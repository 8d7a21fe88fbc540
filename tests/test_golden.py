"""Golden output: the SHA-256 of every CLI command's exit code, stdout and
written files, on a few small corpus functors.

A change that is meant to keep the output byte for byte (a refactor, a
faster algorithm) must keep every digest here.  To pin a deliberate output
change, rerun ``_digest`` for the affected cases and update the table.

Each written file is hashed a second time with its packed ring tables
turned back into nested lists.  That digest must equal the file's own
where nothing is packed, and LISTED_GOLDEN where something is, so the
content of the cases whose bytes changed when big tables came to be
written packed stays pinned.
"""

import hashlib
import json

import pytest

import corpus
from helpers import unpacked
from tambara import serialize
from tambara.cli import main
from tambara.functors import product

FUNCTORS = ["F4_galois_C2", "coind_C2_C4_FPF4", "coind_C2a_S3_FPF4", "FPF4_x_coindF2"]

COMMANDS = {
    "check": ["check", "in.json"],
    "decompose": ["decompose", "in.json"],
    "lambda": ["decompose", "in.json", "--lambda", "H1"],
    "restrict": ["restrict", "in.json", "--to", "H1"],
    "coinduce": ["coinduce", "in.json", "--from", "G"],
    "iso": ["iso", "in.json", "in.json"],
}

# Burnside mod 2 shorthand files; a shorthand body is read over any
# subgroup, so it can also be coinduced from a proper one
SHORTHAND = {"burnside_C4_2": corpus.C4, "burnside_S3_2": corpus.S3,
             "burnside_D4_2": corpus.D4}
SHORTHAND_COMMANDS = {
    "check": ["check", "in.json"],
    "decompose": ["decompose", "in.json"],
    "coinduce_e": ["coinduce", "in.json", "--from", "e"],
    "coinduce_H1": ["coinduce", "in.json", "--from", "H1"],
}

# products of corpus functors.  S3_three_factors has one factor of the
# decomposition per product factor (the classes of C2, C3 and S3) and pins
# the nested default label "((A x B) x C)" and the C-order encoding of
# three factors; in S3_merged_class both factors are coinduced from the
# same order-2 subgroup, so two orbits of primitive idempotents of its
# 512-element bottom level merge into one factor
PRODUCTS = {"S3_three_factors": ("coind_C2a_S3_constF2", "coind_C3_S3_constF3",
                                 "F4_sign_S3"),
            "S3_merged_class": ("coind_C2a_S3_constF2", "coind_C2a_S3_FPF4")}
PRODUCT_COMMANDS = ["decompose", "lambda", "iso"]

GOLDEN = {
    ('F4_galois_C2', 'check'): '2f1c0b81e1da7afabdf8963ee9e7fc0d6cf591fa795871d477fc80accbdc4158',
    ('F4_galois_C2', 'decompose'): 'f9b6c6daac2af1158299ee5504e8057686e93c693cce6f1618d1fe32b14383f8',
    ('F4_galois_C2', 'lambda'): '63d72cf3a3f304d432c167da81c032dd60695aca99b285795bfbb1c33e5e7bb3',
    ('F4_galois_C2', 'restrict'): '771fa60d2c6c51b56d95b1de7f6c53a84d393789488efdeab95ce8b23052bdca',
    ('F4_galois_C2', 'coinduce'): '9b17eb7c59abbc38229c59cbb2587aaaec7c1fc8f0df7f342dd2debac1d37d9d',
    ('F4_galois_C2', 'iso'): '053bda4f5e8353bfe046d30d81fd475616e5f7964c7b9ca90ad09956f39062d9',
    ('coind_C2_C4_FPF4', 'check'): '442fd9c8ca91beb4559d0b5b4cbf579932fbe19196f9df96d45e6ae4dd14c22b',
    ('coind_C2_C4_FPF4', 'decompose'): 'b0d36498a83d73851dcdbc17c52132d925df15419ea455d54a4695a959c68d81',
    ('coind_C2_C4_FPF4', 'lambda'): '47906f9c540d59d4ce786329002def21be57be7c4cd5afacd2e90b7e917e396e',
    ('coind_C2_C4_FPF4', 'restrict'): 'ae628b02ce1100ee5fabce0322abd5ca88d763b7368767aa1dbc5eb4ac215531',
    ('coind_C2_C4_FPF4', 'coinduce'): 'c38b2ff30dfbc0260a1271ed846693fe35af395ad39f7072003b95f669ca133c',
    ('coind_C2_C4_FPF4', 'iso'): 'd4cf1524d1467fae028d3385a23db32f53dd625d1985e201fa6aa776d61ee066',
    ('coind_C2a_S3_FPF4', 'check'): '9f83c0ab35998ff9d01e5c5790aba7808676b1bc0acd569c14e860f9fbe805f4',
    ('coind_C2a_S3_FPF4', 'decompose'): 'ea9773cff9b224cb506f4e90a587a8cbdbb3461f8b574e36787449f054fe862d',
    ('coind_C2a_S3_FPF4', 'lambda'): 'b8272a80f0209c7383b8baa0e86039999fa8ef3008d014d84f83838f5a8a2ae6',
    ('coind_C2a_S3_FPF4', 'restrict'): '3153e116d1c8a5a21d95eebaea1159705a19a4c540146d1c140eeccfccbb3db0',
    ('coind_C2a_S3_FPF4', 'coinduce'): '14c20c38d6b6828f11656bb2dc22dfdf8b40f78d8c5c3695b9b3fe1d4520ff67',
    ('coind_C2a_S3_FPF4', 'iso'): '7917485d26ca8dc924aff0a6882a7e72e4a3563c9c01e82bd6f555776b2796e2',
    ('FPF4_x_coindF2', 'check'): '7e5a48283ae9ecfa1f017a8a0763af0e7600a518b1b44f2580420dc2f2ed3237',
    ('FPF4_x_coindF2', 'decompose'): 'f4b8100e05e569c45e4164c3f00df097024a1a7cc6d6a6ecc6aafc0d5bdd2240',
    ('FPF4_x_coindF2', 'lambda'): '7e42419d5bcab2ef4b772df141f66e0ee7c4d3683d00a8f08118b2260ca2275a',
    ('FPF4_x_coindF2', 'restrict'): '95c638f622b7a3c0d463e77bbb9c7a6ba346db784f4cda070047288eb766b229',
    ('FPF4_x_coindF2', 'coinduce'): 'a1eb734f2b02c25e0f6495d27d051081dbe77197de8edda7c3367a094a099870',
    ('FPF4_x_coindF2', 'iso'): 'cc32a797e40c3a8de17f240429249bcfbe4e6e801d03efe11f49e40899a9b765',
    ('burnside_C4_2', 'check'): 'ef93d0fe28e756cf98ab86d9c4d2622b59a2a83de9ab189d0a4042adc002b64e',
    ('burnside_C4_2', 'decompose'): '6c01cc21b033ba4dad929f30818d40049bde3714738c0cce25d3ac9880410e43',
    ('burnside_C4_2', 'coinduce_e'): 'eb1fc6f8c217e469f3624ec908522888cb289d1104f2c78fcbce7e0de1db3f60',
    ('burnside_C4_2', 'coinduce_H1'): 'ceaea4ec4895dca5ea5bc0e148d4578da9070712a00d751318bc095e730bd81d',
    ('burnside_S3_2', 'check'): '50e56b877700e5311c33938e0349e3dd92cc4df3c406fc32331ae4bc31862562',
    ('burnside_S3_2', 'decompose'): 'f827c15b8533e9879c9d20a81ebfba0ebfbd972be4f99dc26e7f4d46494bd778',
    ('burnside_S3_2', 'coinduce_e'): 'd4d44b2a6db193a670ab895d5d268679c704e113cf19bb5142f6d6646fd03d96',
    ('burnside_S3_2', 'coinduce_H1'): '6cbdce2b26003e4696f66f85057ceec4186f4a5001b67e4c8036d553832e6dad',
    ('burnside_D4_2', 'check'): '5276a6d26d1cf2497cfe6bf2866a8f9f380083899693c2ea453890f2bd0f2144',
    ('S3_three_factors', 'decompose'): 'abb27fb532d05dbb1572c2c8b60367130deebb45d6d92ccaa5fc54de803f7b5d',
    ('S3_three_factors', 'lambda'): 'be5e12166fbcca4aca0a72f63132141d02ced947fb7601b162073c9cbb06bae3',
    ('S3_three_factors', 'iso'): '2e762febd93e490c026ebd80a382a1bcd7285aff48a44515b688ebd8e4e591e3',
    ('S3_merged_class', 'decompose'): '230ed247d09ce48a0cd1de55c125aaeeef5de692493c6b24d4d36476bbb6ae4e',
    ('S3_merged_class', 'lambda'): '31f73f497ad6698fb6c71dbebffdccbd2c04d69fca7d25a8f6eb74cefc08e919',
    ('S3_merged_class', 'iso'): '385c628963379698f28b611b3b7dcba57be846c4bb6ebb420ce71d84d3643f1c',
}

# the digests of the cases above whose files hold a packed table, with
# every packed table listed: the bytes written when all tables were lists
LISTED_GOLDEN = {
    ('coind_C2a_S3_FPF4', 'decompose'): '7ed34570fd08036fe9c95457f526260e3d28c16aff909f15dd9eeba9166a6af7',
    ('coind_C2a_S3_FPF4', 'lambda'): '3cd61ccf421493fc6c1e107c6b2f71d3d21a7f22d4cc35eaf6ec030c2f87c056',
    ('coind_C2a_S3_FPF4', 'restrict'): 'afc1be86ac32debac0625e62fa42411dbb6c446b28ddee56adc2e895566d1751',
    ('coind_C2a_S3_FPF4', 'coinduce'): '30f8e0f222f304b5d34d32027e5239153108c5a937038a7a85aedc4498b2423d',
    ('burnside_S3_2', 'coinduce_e'): '6345a3f50907b0868d5ff1dead4d39f8fbcf8e19e48aab945b72e051e6b72d7e',
    ('S3_three_factors', 'decompose'): '448443a8690b4b1550a12c1547f3a686c292cbac80de1ccdbf88a68a8e6a3737',
    ('S3_three_factors', 'lambda'): '6b95478d6a9fcd95b8e5f202fc00a8e514b902bc4b0626929ed587246c1ae1a5',
    ('S3_merged_class', 'decompose'): '980993bb3ce9ac33fb498c923d47c754c877a2969de2596459f46cacdbd5244c',
    ('S3_merged_class', 'lambda'): 'dc27760010208275de7bb5462c7c1acca65a54264a4b9062dc50dfc4a4b71024',
}


def _digest(tmp_path, capsys, argv):
    """SHA-256 over the exit code, stdout and each file the command wrote,
    and the same with every packed table in those files listed."""
    before = {p.name for p in tmp_path.iterdir()}
    code = main(argv)
    h = hashlib.sha256(f"exit {code}\n".encode())
    h.update(capsys.readouterr().out.encode())
    listed = h.copy()
    for p in sorted(tmp_path.iterdir()):
        if p.name not in before:
            text = p.read_bytes()
            doc = unpacked(json.loads(text))
            for digest, data in ((h, text), (listed, json.dumps(
                    doc, sort_keys=True, separators=(",", ":")).encode() + b"\n")):
                digest.update(f"\nfile {p.name}\n".encode())
                digest.update(data)
    return h.hexdigest(), listed.hexdigest()


CASES = ([(f, c) for f in FUNCTORS for c in COMMANDS]
         + [(b, c) for b in SHORTHAND for c in SHORTHAND_COMMANDS
            if b != "burnside_D4_2" or c == "check"]
         + [(p, c) for p in PRODUCTS for c in PRODUCT_COMMANDS])


@pytest.mark.parametrize("name,command", CASES, ids=lambda x: x)
def test_cli_output_is_byte_stable(tmp_path, capsys, monkeypatch, name, command):
    monkeypatch.chdir(tmp_path)
    if name in SHORTHAND:
        doc = {"schema": 1, "group": serialize.group_to_json(SHORTHAND[name]),
               "burnside": {"mod": 2}}
        (tmp_path / "in.json").write_text(json.dumps(doc))
        argv = SHORTHAND_COMMANDS[command]
    else:
        T = (product(*(corpus.TAMBARA_CORPUS[f] for f in PRODUCTS[name]))
             if name in PRODUCTS else corpus.TAMBARA_CORPUS[name])
        serialize.dump_functor(T, str(tmp_path / "in.json"))
        argv = COMMANDS[command]
    digest, listed = _digest(tmp_path, capsys, argv)
    assert digest == GOLDEN[(name, command)]
    assert listed == LISTED_GOLDEN.get((name, command), digest)
