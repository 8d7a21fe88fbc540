"""JSON definition files (schema 1).

One file defines a group and a functor over it, either with explicit level
tables or through a constructor shorthand ("fp", "burnside", "coind").
All tables are integer indices; output is deterministic (sorted keys), so
re-serializing an unchanged object is byte-stable.  Documents are built
with their tables left as arrays and written from them, with the bytes
`json.dumps` would give.  A ring's add or mul table of at least
PACK_MIN_ENTRIES entries is written packed, as
{"b64": ..., "dtype": "<u2", "shape": [n, n]}, its base64 text made in
blocks of rows; every other table is nested lists (README, "Tables are
written from their arrays").

Subgroup ids are "H<i>" in the canonical subgroup order; the friendly
aliases "e", "G", and "C<n>" (when unique) are accepted on input.
"""

from __future__ import annotations

import base64
import itertools
import json
import os
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .errors import DefinitionError
from .groups import FiniteGroup, Subgroup, subgroups
from .rings import FiniteRing, GRing, _check_size, fq, product_ring, zero_ring, zn
from .functors import TambaraData, structure_maps
from ._burnside import burnside_mod

SCHEMA_VERSION = 1

# a ring table of this many entries or more is written packed; every ring
# index is below RING_SIZE_CAP = 20000 < 2**16, so "<u2" holds it
PACK_MIN_ENTRIES = 1024
PACK_DTYPE = "<u2"


# -- groups ---------------------------------------------------------------


def parse_group(block: dict) -> FiniteGroup:
    if not isinstance(block, dict):
        raise DefinitionError("group block must be an object")
    name = block.get("name", "G")
    if "table" in block:
        return FiniteGroup(_ints(block["table"], "group table"), name=name)
    if "permutations" in block:
        return FiniteGroup.from_permutations(
            [_ints(p, "permutation") for p in block["permutations"]], name=name)
    raise DefinitionError("group block needs 'table' or 'permutations'")


def group_to_json(G: FiniteGroup) -> dict:
    return {"name": G.name, "table": [list(row) for row in G.mul_table]}


def subgroup_id(G: FiniteGroup, H: Subgroup) -> str:
    """H<i>, with i the position of H's elements in subgroups(G); elements
    that do not form a subgroup of G raise DefinitionError."""
    return f"H{G.lattice_position(H.mask)}"


def resolve_subgroup(G: FiniteGroup, ident: str) -> Subgroup:
    """Accepts H<i>, 'e', 'G', or C<n> when there is a unique cyclic
    subgroup of order n."""
    subs = subgroups(G)
    ident = ident.strip()
    if ident == "e":
        return G.trivial_subgroup
    if ident == "G":
        return G.full_subgroup
    if ident.startswith("H"):
        try:
            idx = int(ident[1:])
        except ValueError:
            raise DefinitionError(f"bad subgroup id {ident!r}")
        if not 0 <= idx < len(subs):
            raise DefinitionError(f"subgroup index out of range: {ident}")
        return subs[idx]
    if ident.startswith("C"):
        try:
            order = int(ident[1:])
        except ValueError:
            raise DefinitionError(f"bad subgroup id {ident!r}")
        cyclic = [s for s in subs if s.order == order and _is_cyclic(G, s)]
        if len(cyclic) == 1:
            return cyclic[0]
        raise DefinitionError(
            f"{ident} is ambiguous or absent; use one of "
            + ", ".join(f"H{i}" for i in range(len(subs))))
    raise DefinitionError(f"unknown subgroup id {ident!r}")


def _is_cyclic(G: FiniteGroup, H: Subgroup) -> bool:
    for g in H.elements:
        x, n = g, 1
        while x != 0:
            x = G.mul(x, g)
            n += 1
        if n == H.order:
            return True
    return False


# -- rings ----------------------------------------------------------------


def parse_ring(block: dict) -> FiniteRing:
    if not isinstance(block, dict) or "kind" not in block:
        raise DefinitionError("ring block needs a 'kind'")
    kind = block["kind"]
    if kind == "zero":
        return zero_ring()
    if kind == "Zn":
        return zn(_int(block["n"], "n"))
    if kind == "Fq":
        return fq(_int(block["q"], "q"))
    if kind == "product":
        return product_ring([parse_ring(b) for b in block["factors"]])
    if kind == "tables":
        R = FiniteRing(_ring_table(block, "add"), _ring_table(block, "mul"),
                       _int(block["zero"], "zero"), _int(block["one"], "one"),
                       label=block.get("label", "R"))
        R.validate()
        return R
    raise DefinitionError(f"unknown ring kind {kind!r}")


def _ring_table(block: dict, name: str):
    """The ring block's add or mul table, from nested lists or from its
    packed form, decoded once its dtype, shape and length are checked."""
    t = block[name]
    if not isinstance(t, dict):
        return _ints(t, f"{name} table")
    shape = t.get("shape")
    if t.get("dtype") != PACK_DTYPE:
        raise DefinitionError(f"packed {name} table needs dtype {PACK_DTYPE!r}")
    if not (isinstance(shape, list) and len(shape) == 2 and shape[0] == shape[1]
            and all(type(k) is int and k > 0 for k in shape)):
        raise DefinitionError(f"packed {name} table needs a shape [n, n] with n > 0")
    n = shape[0]
    _check_size(n)
    if not isinstance(t.get("b64"), str):
        raise DefinitionError(f"packed {name} table needs its bytes as a base64 string")
    try:
        raw = base64.b64decode(t["b64"], validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise DefinitionError(f"packed {name} table: bad base64: {exc}")
    if len(raw) != 2 * n * n:
        raise DefinitionError(f"packed {name} table has {len(raw)} bytes, not 2n^2 = {2 * n * n}")
    return _ints(np.frombuffer(raw, PACK_DTYPE).reshape(n, n), f"{name} table")


def _ints(x, what: str) -> np.ndarray:
    """x, an integer, nested lists of them or a decoded packed table, as
    an int32 array: the one reader of a file's integers.  A float, a
    string or null, a boolean or an entry outside int32 raises
    DefinitionError.  numpy reads a boolean among integers as 0 or 1, so
    nested lists that pass the dtype check are scanned once for one."""
    a = np.asarray(x)
    if a.size and (a.dtype.kind not in "iu" or not np.can_cast(a.dtype, np.int32)
                   and (a.min() < -2 ** 31 or a.max() >= 2 ** 31)):
        raise DefinitionError(f"{what}: expected integers in int32 range")
    if isinstance(x, list):
        flat = x
        for _ in range(a.ndim - 1):
            flat = itertools.chain.from_iterable(flat)
        if bool in map(type, flat):
            raise DefinitionError(f"{what}: expected integers, found a boolean")
    return a.astype(np.int32, copy=False)


def _int(x, what: str) -> int:
    """An integer field (zero, one, n, q, mod), read by `_ints`."""
    a = _ints(x, what)
    if a.ndim:
        raise DefinitionError(f"{what} must be an integer")
    return int(a)


def ring_to_json(R: FiniteRing) -> dict:
    """The ring's block, its add/mul tables left to the writer: as arrays
    below PACK_MIN_ENTRIES entries, packed from there."""
    return {
        "kind": "tables",
        "label": R.label,
        "zero": int(R.zero),
        "one": int(R.one),
        "add": _packed(R.add),
        "mul": _packed(R.mul),
    }


class _Base64:
    """A table whose "<u2" bytes the writer gives as base64 text."""

    def __init__(self, table: np.ndarray) -> None:
        self.table = table


def _packed(A: np.ndarray):
    return A if A.size < PACK_MIN_ENTRIES else {
        "b64": _Base64(A), "dtype": PACK_DTYPE, "shape": list(A.shape)}


def parse_gring(block: dict, G: FiniteGroup) -> GRing:
    ring = parse_ring(block.get("ring", block))
    action = block.get("action")
    if action is None:
        raise DefinitionError("gring block needs an 'action' table")
    return GRing(ring, G, _ints(action, "action table"))


# -- functors ---------------------------------------------------------------


def _table_key(G: FiniteGroup, name: str, key: tuple) -> str:
    """A structure table's key in its block: "H<i><H<j>" for the pair
    K <= H, "g<g>|H<i>" for conj at (g, H)."""
    a, H = key
    if name == "conj":
        return f"g{a}|{subgroup_id(G, H)}"
    return f"{subgroup_id(G, a)}<{subgroup_id(G, H)}"


def functor_doc(T: TambaraData) -> dict:
    """T's document with every table left as an array: the one document
    builder, for `dump_document` and `functor_to_json`."""
    G = T.group
    body = {
        "green_only": not T.has_norms,
        "levels": {subgroup_id(G, H): ring_to_json(T.levels[H]) for H in subgroups(G)},
    }
    for name, key, _, _ in structure_maps(G, T.has_norms):
        body.setdefault(name, {})[_table_key(G, name, key)] = T.table(name, key)
    return {"schema": SCHEMA_VERSION, "group": group_to_json(G), "functor": body,
            "label": T.label}


def _listed(x):
    """x as plain JSON values, as `_plain` gives its arrays and packed tables."""
    if isinstance(x, dict):
        return {k: _listed(v) for k, v in x.items()}
    return _plain(x) if isinstance(x, (np.ndarray, _Base64)) else x


def functor_to_json(T: TambaraData) -> dict:
    """T's document as plain JSON values: `functor_doc` with nested lists
    and packed tables as base64 text."""
    return _listed(functor_doc(T))


def parse_functor_body(body: dict, G: FiniteGroup, label: str = "T") -> TambaraData:
    """Interpret a functor definition body over the group G.

    Explicit tables are accepted nested under "functor" (the emitted form)
    or flat at the top level of the body.
    """
    present = [k for k in ("functor", "levels", "fp", "burnside", "coind") if k in body]
    if len(present) > 1:
        raise DefinitionError(f"ambiguous definition: found {present}")
    if "functor" in body:
        return _parse_explicit(body["functor"], G, body.get("label", label))
    if "levels" in body:
        return _parse_explicit(body, G, body.get("label", label))
    if "fp" in body:
        from .functors import fixed_point_functor

        return fixed_point_functor(parse_gring(body["fp"], G),
                                   label=body.get("label", label))
    if "burnside" in body:
        return burnside_mod(G, _int(body["burnside"]["mod"], "mod"))
    if "coind" in body:
        from .functors import coinduce

        block = body["coind"]
        H = resolve_subgroup(G, block["from"])
        Hg, _ = H.as_group
        inner = parse_functor_body(block["functor"], Hg, label=f"{label}|inner")
        return coinduce(G, H, inner, label=body.get("label", label))
    raise DefinitionError(
        "definition needs one of 'functor', 'fp', 'burnside', 'coind'")


def _parse_explicit(block: dict, G: FiniteGroup, label: str) -> TambaraData:
    green_only = block.get("green_only", False)
    if not isinstance(green_only, bool):
        raise DefinitionError("green_only must be true or false")
    levels = {}
    for H in subgroups(G):
        key = subgroup_id(G, H)
        if key not in block.get("levels", {}):
            raise DefinitionError(f"missing level {key}")
        levels[H] = parse_ring(block["levels"][key])
    tables = []
    for name, key, _, _ in structure_maps(G, not green_only):
        ident = _table_key(G, name, key)
        found = block.get(name, {}).get(ident)
        if found is None:
            raise DefinitionError(f"missing {name} table {ident}")
        tables.append((f"{name} table {ident}", found))
    arrays = iter(_int_tables(tables))
    return TambaraData.build(G, levels, lambda *_: next(arrays), not green_only, label)


def _int_tables(tables: List[Tuple[str, object]]) -> List[np.ndarray]:
    """Each x of the (what, x) as an int32 array, all cut from one array
    of their entries that `_ints` reads: a functor's many small maps cost
    one conversion, not one each.  When that array fails, `_ints` reads
    them one by one, to name the first bad one."""
    try:
        flat = _ints(list(itertools.chain.from_iterable(x for _, x in tables)), "")
        ends = np.cumsum([len(x) for _, x in tables]).tolist()
    except (DefinitionError, TypeError, ValueError):
        return [_ints(x, what) for what, x in tables]
    return [flat[a:b] for a, b in zip([0] + ends, ends)]


def load_document(path: str, over: Optional[str] = None
                  ) -> Tuple[FiniteGroup, Subgroup, TambaraData]:
    """Read a definition file: returns (G, H, T) with G the file's group, H
    its subgroup with id `over` (default: G itself) and T the file's functor
    body read over H.as_group.

    This is the one entry point for files: a malformed block (a missing
    key, a wrong type, a non-integer entry, an entry past int32) raises
    DefinitionError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (RecursionError, ValueError) as exc:  # bad JSON, bad UTF-8 or too deep
            raise DefinitionError(f"invalid JSON: {exc}")
    if not isinstance(doc, dict):
        raise DefinitionError("definition file must hold a JSON object")
    if doc.get("schema") != SCHEMA_VERSION:
        raise DefinitionError(f"unsupported schema {doc.get('schema')!r}")
    if "group" not in doc:
        raise DefinitionError("definition file needs a 'group'")
    try:
        G = parse_group(doc["group"])
        H = G.full_subgroup if over is None else resolve_subgroup(G, over)
        return G, H, parse_functor_body(doc, H.as_group[0], label=doc.get("label", "T"))
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise DefinitionError(f"malformed definition: {type(exc).__name__}: {exc}") from exc


def load_functor(path: str) -> TambaraData:
    return load_document(path)[2]


def _plain(x):
    """An array as nested lists, a packed table's bytes as base64 text."""
    return "".join(_b64_chunks(x.table)) if isinstance(x, _Base64) else x.tolist()


# sorted keys and no spaces, arrays and packed tables as `_plain` gives them
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=_plain)
_dumps = _ENCODER.encode


def _is_table(x) -> bool:
    return isinstance(x, _Base64) or isinstance(x, np.ndarray) and x.ndim == 2


def _holds_table(x) -> bool:
    return _is_table(x) or isinstance(x, dict) and any(map(_holds_table, x.values()))


def _chunks(x) -> Iterator[str]:
    """The text `_dumps` gives x.  A dict holding a 2-D or packed table is
    walked, its keys in sorted order; a packed table's base64 text comes in
    blocks, and anything else, a 2-D table included, is one chunk."""
    if isinstance(x, _Base64):
        yield '"'
        yield from _b64_chunks(x.table)
        yield '"'
    elif isinstance(x, dict) and _holds_table(x):
        yield "{"
        for i, key in enumerate(sorted(x)):
            yield ("," if i else "") + json.dumps(key) + ":"
            yield from _chunks(x[key])
        yield "}"
    else:
        yield _dumps(x)


def _b64_chunks(A: np.ndarray) -> Iterator[str]:
    """The base64 text of A's "<u2" bytes, in blocks of a multiple of 3
    rows: each block but the last is a multiple of 3 bytes, so it is
    unpadded, and the blocks join to the text of the whole."""
    rows = 3 * max(1, 2 ** 17 // A.shape[1])
    for i in range(0, len(A), rows):
        yield base64.b64encode(A[i:i + rows].astype(PACK_DTYPE).tobytes()).decode("ascii")


def dumps_document(doc: dict) -> str:
    """The byte-stable text of a document: sorted keys, no spaces, newline."""
    return "".join(_chunks(doc)) + "\n"


def dump_document(doc: dict, path: str) -> None:
    """Write the text of `dumps_document(doc)` to path, chunk by chunk.

    The text goes to a new file beside path that replaces it only once
    complete, so a failure (out of memory, a full disk) leaves what was at
    path as it was.  A path that is not a regular file (/dev/stdout) is
    written in place."""
    text = itertools.chain(_chunks(doc), ["\n"])
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "w", encoding="utf-8") as fh:
            fh.writelines(text)
        return
    head, tail = os.path.split(target)
    tmp = os.path.join(head, f".{tail}.{os.urandom(8).hex()}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8")
    except OSError as exc:  # name path in the message, not the temporary file
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            fh.writelines(text)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def dump_functor(T: TambaraData, path: str) -> None:
    dump_document(functor_doc(T), path)


def dumps_functor(T: TambaraData) -> str:
    return dumps_document(functor_doc(T))
