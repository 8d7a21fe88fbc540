"""Command-line interface.

Commands: check, decompose, lewis, coinduce, restrict, iso.  All state is
files; every emitted file re-ingests through the same loader.

Exit codes are stable contracts:
  0 pass / definite answer
  1 input, parse or usage error
  2 axiom failure (cmd_check)
  3 unsupported structure (Green-only input where norms are required)
  4 presentation constraint (non-chain lattice without --chain)
  5 search timeout
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from . import serialize
from .errors import NoNorms, SearchTimeout, TambaraError
from .functors import (
    TambaraData,
    _check_budget,
    _over_subgroup,
    check_axioms,
    coinduce,
    functor_isomorphism,
    restrict,
)
from .groups import subgroups, upward_closure
from .decompose import clarify, full_decomposition


def _default_out(path: str, suffix: str) -> str:
    base, ext = os.path.splitext(path)
    return f"{base}.{suffix}{ext or '.json'}"


def cmd_check(args) -> int:
    T = serialize.load_functor(args.path)
    report = check_axioms(T, fiber_bound=args.fiber_bound)
    print(report.summary())
    return 0 if report.passed else 2


def cmd_decompose(args) -> int:
    T = serialize.load_functor(args.path)
    G = T.group
    if args.lam and args.lam != "all":
        H = serialize.resolve_subgroup(G, args.lam)
        result, witness = clarify(T, upward_closure(G, H))
        sizes = [result.levels[K].size for K in subgroups(G)]
        print(f"clarification at Lambda_{args.lam}: level sizes {sizes}")
        extra = {}
        out = args.out or _default_out(args.path, f"clarified.{args.lam}")
    else:
        dec = full_decomposition(T)
        for H, ell in dec.factors:
            sizes = [ell.levels[K].size for K in subgroups(ell.group)]
            print(f"factor: H={serialize.subgroup_id(G, H)} "
                  f"(order {H.order}), level sizes {sizes}")
        result, witness = dec.reassembled, dec.witness
        extra = {"factors": [serialize.subgroup_id(G, H) for H, _ in dec.factors]}
        out = args.out or _default_out(args.path, "decomposed")
    doc = serialize.functor_doc(result)
    doc["witness"] = {serialize.subgroup_id(G, K): witness.maps[K] for K in subgroups(G)}
    doc.update(extra)
    serialize.dump_document(doc, out)
    print(f"wrote {out}")
    return 0


def _chain_of(T: TambaraData) -> Optional[List]:
    subs = subgroups(T.group)
    chain = sorted(subs, key=lambda s: s.order)
    for a, b in zip(chain, chain[1:]):
        if not a.is_subgroup_of(b):
            return None
    return chain


def cmd_lewis(args) -> int:
    T = serialize.load_functor(args.path)
    G = T.group
    if args.chain:
        chain = [serialize.resolve_subgroup(G, s) for s in args.chain.split(",")]
        for a, b in zip(chain, chain[1:]):
            if not a.is_subgroup_of(b):
                print("error: --chain is not increasing")
                return 1
    else:
        chain = _chain_of(T)
        if chain is None:
            print("error: subgroup lattice is not a chain; pass --chain=H0,H1,...")
            return 4

    def fmt_table(t) -> str:
        vals = list(map(int, t))
        if len(vals) <= 16:
            return str(vals)
        return str(vals[:8])[:-1] + ", ...]"

    for i in range(len(chain) - 1, -1, -1):
        H = chain[i]
        ring = T.levels[H]
        print(f"level {serialize.subgroup_id(G, H)} (order {H.order}): "
              f"{ring.label}, {ring.size} elements")
        if i > 0:
            K = chain[i - 1]
            print(f"  res -> {serialize.subgroup_id(G, K)}: {fmt_table(T.res[(K, H)])}")
            print(f"  tr <- {serialize.subgroup_id(G, K)}: {fmt_table(T.tr[(K, H)])}")
            if T.has_norms:
                print(f"  nm <- {serialize.subgroup_id(G, K)}: {fmt_table(T.nm[(K, H)])}")
    e = G.trivial_subgroup
    weyl = [int(x) for x in T.conj[(1, e)]] if G.order > 1 else []
    if weyl:
        print(f"bottom Weyl action of g1: {weyl if len(weyl) <= 16 else weyl[:8] + ['...']}")
    return 0


def cmd_coinduce(args) -> int:
    G, H, inner = serialize.load_document(args.path, over=args.from_id)
    T = coinduce(G, H, inner)
    out = args.out or _default_out(args.path, f"coind.{args.from_id}")
    serialize.dump_functor(T, out)
    print(f"wrote {out}")
    return 0


def cmd_restrict(args) -> int:
    T = serialize.load_functor(args.path)
    R = restrict(serialize.resolve_subgroup(T.group, args.to_id), T)
    out = args.out or _default_out(args.path, f"res.{args.to_id}")
    serialize.dump_functor(R, out)
    print(f"wrote {out}")
    return 0


def cmd_iso(args) -> int:
    # before the norm flags are compared, which answer without a search
    _check_budget(args.budget)
    T1 = serialize.load_functor(args.path1)
    T2 = _over_subgroup(T1.group.full_subgroup, serialize.load_functor(args.path2))
    if T1.has_norms != T2.has_norms:
        print("not isomorphic (norm flags differ)")
        return 0
    iso = functor_isomorphism(T1, T2, budget=args.budget)
    if iso is None:
        print("not isomorphic")
        return 0
    G = T1.group
    print("isomorphic; witness:")
    for H in subgroups(G):
        print(f"  {serialize.subgroup_id(G, H)}: {iso.maps[H].tolist()}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as input errors do: 2 means an axiom failure.
    Subparsers are built from the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="tambara",
        description="Equivariant algebra toolkit: check, decompose, and "
                    "transform Mackey/Green/Tambara functor definition files.")
    ap.add_argument("--fiber-bound", type=int, default=2,
                    help="fiber size bound for exponential-diagram checks (at least 2)")
    ap.add_argument("--budget", type=int, default=10 ** 6,
                    help="node budget for isomorphism search")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify all structure axioms")
    p.add_argument("path")

    p = sub.add_parser("decompose",
                       help="product decomposition into coinductions of "
                            "clarified factors, or --lambda clarification")
    p.add_argument("path")
    p.add_argument("--lambda", dest="lam", default=None,
                   help="subgroup id; compute the Lambda_H clarification")
    p.add_argument("--out", default=None)

    p = sub.add_parser("lewis", help="print the Lewis diagram of a chain-lattice functor")
    p.add_argument("path")
    p.add_argument("--chain", default=None, help="comma-separated subgroup ids")

    p = sub.add_parser("coinduce", help="coinduce the functor body along --from")
    p.add_argument("path")
    p.add_argument("--from", dest="from_id", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("restrict", help="restrict the functor to --to")
    p.add_argument("path")
    p.add_argument("--to", dest="to_id", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("iso", help="search for an isomorphism between two files")
    p.add_argument("path1")
    p.add_argument("path2")
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout has gone (`tambara lewis f | head -1`): send
        # what is still buffered to devnull, so the flush at exit succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _run(args) -> int:
    handlers = {
        "check": cmd_check,
        "decompose": cmd_decompose,
        "lewis": cmd_lewis,
        "coinduce": cmd_coinduce,
        "restrict": cmd_restrict,
        "iso": cmd_iso,
    }
    # the one place where errors become exit codes
    try:
        return handlers[args.command](args)
    except NoNorms:
        print("error: input is a Green functor; the product decomposition "
              "fails for Green functors (see the two-level counterexample)")
        return 3
    except SearchTimeout:
        print("timeout")
        return 5
    except (TambaraError, OSError) as exc:
        print(f"error: {exc}")
        return 1
    except MemoryError:
        # the size caps bound element counts, not bytes (ROADMAP item 7)
        print("error: out of memory; the input's rings are too large for this machine")
        return 1


if __name__ == "__main__":
    sys.exit(main())
