"""Golden transcripts of the benchmark's command lists.

perfbench/workloads.py writes each workload's definition files and lists
the CLI commands the benchmark issues on them.  This module generates the
burnside, lattice and tables workloads for seeds 1-3 (165 commands) into a
temporary directory, runs every command in-process through cli.main and
compares one SHA-256 per command with TRANSCRIPTS.  A digest covers the
exit code, stdout and stderr, with the directory replaced by DIR, and
every file the command wrote, by name and bytes.

A change meant to keep the output byte for byte must keep every digest.
For a deliberate output change, print the table at the new code with

    PYTHONPATH=src python tests/test_transcripts.py

paste it over TRANSCRIPTS, and list each changed digest, old -> new, with
the change.
"""

import contextlib
import hashlib
import importlib
import io
import os

import pytest

from tambara.cli import main

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
WORKLOADS = ("burnside", "lattice", "tables")
SEEDS = (1, 2, 3)
DIR = "<DIR>"


def _workloads():
    """perfbench/workloads.py, imported as the benchmark imports it: as a
    top-level module."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(PERFBENCH)
        return importlib.import_module("workloads")


def _written(workdir: str) -> dict:
    return {e.name: (e.inode(), e.stat().st_size, e.stat().st_mtime_ns) for e in os.scandir(workdir)}


def transcript(workload: str, seed: int, workdir: str) -> list:
    """(command with workdir replaced by DIR, digest) for each command of
    the workload at this seed, in the order the benchmark issues them."""
    _, commands = _workloads().generate(workload, seed, workdir)
    out = []
    for cmd in commands:
        before = _written(workdir)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(list(cmd.argv))
        h = hashlib.sha256(f"exit {code}\n".encode())
        for stream in (stdout, stderr):
            h.update(stream.getvalue().replace(workdir, DIR).encode())
            h.update(b"\n--\n")
        for name, stamp in sorted(_written(workdir).items()):
            if before.get(name) != stamp:
                with open(os.path.join(workdir, name), "rb") as fh:
                    h.update(f"file {name}\n".encode() + fh.read())
        out.append((" ".join(cmd.argv).replace(workdir, DIR), h.hexdigest()))
    return out


TRANSCRIPTS = {
    ('burnside', 1): [
        ('check <DIR>/burnside_V4_mod3.json',
         '3a27d9ffb0a7e911ba48744c4191141b5c8ae08269f2a4300c15d0f3f86bd28c'),
        ('check <DIR>/burnside_S3_mod6.json',
         'bd1855980488c043e41e25b7fd269cd818c71a76d70713ce56629ad3a4fb347b'),
        ('check <DIR>/burnside_C4_mod8.json',
         '0ea589de25fa5c0965bc74c80208fb4f60819d6b534e2c97a6e30e559c527b4b'),
        ('check <DIR>/burnside_C3_mod9.json',
         '7887f19d115f7484c106dcf83c069258b5d8a2f75dfbbc0afb8d2c373e721c7c'),
        ('check <DIR>/burnside_C6_mod4.json',
         '1f47aa5875f8d395419d206040a6c13df6fe320c714dd08662a45870ac4a6b62'),
        ('decompose <DIR>/burnside_C4_mod9.json --out <DIR>/burnside_C4_mod9.decomposed.json',
         'c2a8cadd1748e8dad357ba68d433bec33fee15fa52bbb96c3a8d9e4a3c802566'),
        ('decompose <DIR>/burnside_V4_mod3.json --out <DIR>/burnside_V4_mod3.decomposed.json',
         'cce59151e9c486aa19eeb6b7e0a339aa0438652136c8031f2d6df7b15bacdb91'),
        ('iso <DIR>/burnside_V4_mod3.json <DIR>/burnside_V4_mod3.decomposed.json',
         '327161d93448f7fa6fb95f1501c4bafa189a7d0cd3061559da38c3beca8595cf'),
        ('decompose <DIR>/burnside_S3_mod6.json --out <DIR>/burnside_S3_mod6.decomposed.json',
         'f495c1b33d04d3bd4ff2af8d26dfec77ad72639281f104759fc2f505bbbf13bb'),
        ('iso <DIR>/burnside_S3_mod6.json <DIR>/burnside_S3_mod6.decomposed.json',
         '53377a4160458c18f1140ebc181bf64b1e28f359f652a9f0a5a46086e36031c8'),
        ('decompose <DIR>/burnside_C4_mod8.json --out <DIR>/burnside_C4_mod8.decomposed.json',
         '0d838baaf45edbc64618823594fbdb1ff722152028c57a96145ba7edd7db4080'),
        ('lewis <DIR>/burnside_C4_mod8.json',
         'f66e1720c705ac64c57f039624b2ecdcafe84c755b685720b1eb5b5282445326'),
        ('iso <DIR>/burnside_C4_mod8.json <DIR>/burnside_C4_mod8.decomposed.json',
         'b759a68102ec867f514e71f71033eaaef51dbbdf0a048fc5c68a1857c22a333f'),
        ('decompose <DIR>/burnside_C3_mod9.json --out <DIR>/burnside_C3_mod9.decomposed.json',
         '7fdfbb8bf74c96468e1fe98a015b19ffa550f662dc9e229f761fee5daec3205f'),
        ('lewis <DIR>/burnside_C3_mod9.json',
         'bfa4c888556081f8070e973481306358334d0da95ccfa2f24a63fbe7c816c249'),
        ('decompose <DIR>/burnside_C6_mod4.json --out <DIR>/burnside_C6_mod4.decomposed.json',
         '20d36bce206bc32e0ccf2566e7516cb0e8520b7b8037a23947eabec65ff80c90'),
        ('check <DIR>/broken_exponential_burnside_C2_mod4.json',
         'a7f19f44fe87145b3262b9ad27f9fccaa7cc9948b86e5106b80f38a6e4e2eb12'),
        ('check <DIR>/broken_conjugation_burnside_C3_mod3.json',
         'e75d8a5c5c9af092c0c434f5b74aa23e0d56af49df7cde035cb7a8e93b6c7b86'),
        ('iso <DIR>/noiso_Z4.json <DIR>/noiso_F2xF2.json',
         'be70982d66ad41913eeed7726998adf17817302158f75efe016474a7339ff4c5'),
    ],
    ('burnside', 2): [
        ('check <DIR>/burnside_V4_mod3.json',
         '3a27d9ffb0a7e911ba48744c4191141b5c8ae08269f2a4300c15d0f3f86bd28c'),
        ('check <DIR>/burnside_S3_mod6.json',
         'bd1855980488c043e41e25b7fd269cd818c71a76d70713ce56629ad3a4fb347b'),
        ('check <DIR>/burnside_C4_mod8.json',
         '0ea589de25fa5c0965bc74c80208fb4f60819d6b534e2c97a6e30e559c527b4b'),
        ('check <DIR>/burnside_C3_mod9.json',
         '7887f19d115f7484c106dcf83c069258b5d8a2f75dfbbc0afb8d2c373e721c7c'),
        ('check <DIR>/burnside_C6_mod4.json',
         '1f47aa5875f8d395419d206040a6c13df6fe320c714dd08662a45870ac4a6b62'),
        ('decompose <DIR>/burnside_C4_mod9.json --out <DIR>/burnside_C4_mod9.decomposed.json',
         '179c7c4b9d020a8b1e729fa79fcb474d50a3fb203d39a16251692e3f10c5bf8f'),
        ('decompose <DIR>/burnside_V4_mod3.json --out <DIR>/burnside_V4_mod3.decomposed.json',
         'cce59151e9c486aa19eeb6b7e0a339aa0438652136c8031f2d6df7b15bacdb91'),
        ('iso <DIR>/burnside_V4_mod3.json <DIR>/burnside_V4_mod3.decomposed.json',
         '327161d93448f7fa6fb95f1501c4bafa189a7d0cd3061559da38c3beca8595cf'),
        ('decompose <DIR>/burnside_S3_mod6.json --out <DIR>/burnside_S3_mod6.decomposed.json',
         'b1d46ea28e4524b90efa94f38192bc1131ab75e7b1870b3b951449e2284dfe8b'),
        ('iso <DIR>/burnside_S3_mod6.json <DIR>/burnside_S3_mod6.decomposed.json',
         '53377a4160458c18f1140ebc181bf64b1e28f359f652a9f0a5a46086e36031c8'),
        ('decompose <DIR>/burnside_C4_mod8.json --out <DIR>/burnside_C4_mod8.decomposed.json',
         'b88afdc7c3d7b3c07860805244af6b1f91e1aa359cfdd7d7728e4404c0e49e8b'),
        ('lewis <DIR>/burnside_C4_mod8.json',
         '47a6009b885a79b71a580a097d8e4343d81d1fafea52c55d1068a9f150fa035f'),
        ('iso <DIR>/burnside_C4_mod8.json <DIR>/burnside_C4_mod8.decomposed.json',
         'b759a68102ec867f514e71f71033eaaef51dbbdf0a048fc5c68a1857c22a333f'),
        ('decompose <DIR>/burnside_C3_mod9.json --out <DIR>/burnside_C3_mod9.decomposed.json',
         '7fdfbb8bf74c96468e1fe98a015b19ffa550f662dc9e229f761fee5daec3205f'),
        ('lewis <DIR>/burnside_C3_mod9.json',
         'bfa4c888556081f8070e973481306358334d0da95ccfa2f24a63fbe7c816c249'),
        ('decompose <DIR>/burnside_C6_mod4.json --out <DIR>/burnside_C6_mod4.decomposed.json',
         '088ebaddb5e3007300cc8b193df11f1d9301be5cfb9fae85bc90fd9caa8c118b'),
        ('check <DIR>/broken_exponential_burnside_C2_mod4.json',
         'a7f19f44fe87145b3262b9ad27f9fccaa7cc9948b86e5106b80f38a6e4e2eb12'),
        ('check <DIR>/broken_conjugation_burnside_C3_mod3.json',
         'e75d8a5c5c9af092c0c434f5b74aa23e0d56af49df7cde035cb7a8e93b6c7b86'),
        ('iso <DIR>/noiso_Z4.json <DIR>/noiso_F2xF2.json',
         'be70982d66ad41913eeed7726998adf17817302158f75efe016474a7339ff4c5'),
    ],
    ('burnside', 3): [
        ('check <DIR>/burnside_V4_mod3.json',
         '3a27d9ffb0a7e911ba48744c4191141b5c8ae08269f2a4300c15d0f3f86bd28c'),
        ('check <DIR>/burnside_S3_mod6.json',
         'bd1855980488c043e41e25b7fd269cd818c71a76d70713ce56629ad3a4fb347b'),
        ('check <DIR>/burnside_C4_mod8.json',
         '0ea589de25fa5c0965bc74c80208fb4f60819d6b534e2c97a6e30e559c527b4b'),
        ('check <DIR>/burnside_C3_mod9.json',
         '7887f19d115f7484c106dcf83c069258b5d8a2f75dfbbc0afb8d2c373e721c7c'),
        ('check <DIR>/burnside_C6_mod4.json',
         '1f47aa5875f8d395419d206040a6c13df6fe320c714dd08662a45870ac4a6b62'),
        ('decompose <DIR>/burnside_C4_mod9.json --out <DIR>/burnside_C4_mod9.decomposed.json',
         '179c7c4b9d020a8b1e729fa79fcb474d50a3fb203d39a16251692e3f10c5bf8f'),
        ('decompose <DIR>/burnside_V4_mod3.json --out <DIR>/burnside_V4_mod3.decomposed.json',
         'cce59151e9c486aa19eeb6b7e0a339aa0438652136c8031f2d6df7b15bacdb91'),
        ('iso <DIR>/burnside_V4_mod3.json <DIR>/burnside_V4_mod3.decomposed.json',
         '327161d93448f7fa6fb95f1501c4bafa189a7d0cd3061559da38c3beca8595cf'),
        ('decompose <DIR>/burnside_S3_mod6.json --out <DIR>/burnside_S3_mod6.decomposed.json',
         '65b60b7eef5e5352668259878d67bdf8882c979df5bce360a46a147a83ab3c97'),
        ('iso <DIR>/burnside_S3_mod6.json <DIR>/burnside_S3_mod6.decomposed.json',
         '53377a4160458c18f1140ebc181bf64b1e28f359f652a9f0a5a46086e36031c8'),
        ('decompose <DIR>/burnside_C4_mod8.json --out <DIR>/burnside_C4_mod8.decomposed.json',
         'b88afdc7c3d7b3c07860805244af6b1f91e1aa359cfdd7d7728e4404c0e49e8b'),
        ('lewis <DIR>/burnside_C4_mod8.json',
         '47a6009b885a79b71a580a097d8e4343d81d1fafea52c55d1068a9f150fa035f'),
        ('iso <DIR>/burnside_C4_mod8.json <DIR>/burnside_C4_mod8.decomposed.json',
         'b759a68102ec867f514e71f71033eaaef51dbbdf0a048fc5c68a1857c22a333f'),
        ('decompose <DIR>/burnside_C3_mod9.json --out <DIR>/burnside_C3_mod9.decomposed.json',
         '7fdfbb8bf74c96468e1fe98a015b19ffa550f662dc9e229f761fee5daec3205f'),
        ('lewis <DIR>/burnside_C3_mod9.json',
         'bfa4c888556081f8070e973481306358334d0da95ccfa2f24a63fbe7c816c249'),
        ('decompose <DIR>/burnside_C6_mod4.json --out <DIR>/burnside_C6_mod4.decomposed.json',
         '4a25a1293827becc7cf6aaab6025ea2821345f523f8dde2c66aedd5729113128'),
        ('check <DIR>/broken_exponential_burnside_C2_mod4.json',
         'a7f19f44fe87145b3262b9ad27f9fccaa7cc9948b86e5106b80f38a6e4e2eb12'),
        ('check <DIR>/broken_conjugation_burnside_C3_mod3.json',
         'e75d8a5c5c9af092c0c434f5b74aa23e0d56af49df7cde035cb7a8e93b6c7b86'),
        ('iso <DIR>/noiso_Z4.json <DIR>/noiso_F2xF2.json',
         'be70982d66ad41913eeed7726998adf17817302158f75efe016474a7339ff4c5'),
    ],
    ('lattice', 1): [
        ('check <DIR>/coind_A4_C3_F2.json',
         'f0db0ec23c5b3dc7f5f670cf06c68ec81c7a3fa75cd8312c4be326b7f6ffffc9'),
        ('check <DIR>/coind_D4_C2_F2.json',
         'bb3fdf00c055fc5c0e2b0aee35a153289601cb4915cfaae60f9a93702d580d0f'),
        ('check <DIR>/coind_D4_C4_F3.json',
         '14dd6181434d733fe551fb9193d4eaa9b38d8719c9eec926600bcdda2ae67dc8'),
        ('check <DIR>/burnside_Q8_mod2.json',
         'b1486858eeeec3bcff05243c5623ccd2346ce572e2ab6dc27024dcac0315c698'),
        ('check <DIR>/coind_Q8_C4_F3.json',
         '5cf797f6fa0d440ef2605b8fc0ce94935e65c2a70fef65483983e10728045cc2'),
        ('decompose <DIR>/coind_A4_C3_F2.json --out <DIR>/coind_A4_C3_F2.decomposed.json',
         '7228bdeab72e022d063b1b673f196a8cb663ce39742349d7112ede03c9e9ad0a'),
        ('iso <DIR>/coind_A4_C3_F2.json <DIR>/coind_A4_C3_F2.decomposed.json',
         '57aa962e9d6783c524d7331c430e14b8d01488dfd4212ac60d73e6ad39085cd6'),
        ('decompose <DIR>/coind_D4_C2_F2.json --out <DIR>/coind_D4_C2_F2.decomposed.json',
         'cb444f91399619b704ad17fd855b43f5dedf5d25ab72a7dc7c10d9160761026a'),
        ('iso <DIR>/coind_D4_C2_F2.json <DIR>/coind_D4_C2_F2.decomposed.json',
         '85c48ad6bbe13e6c327d6669360f990cec9bd6f408e67565001e33969a127d00'),
        ('decompose <DIR>/coind_D4_C4_F3.json --out <DIR>/coind_D4_C4_F3.decomposed.json',
         '60bdad8b227d38153926bd28e3eb3e0c63f763b173d13b6e8842d323ebe2fffc'),
        ('iso <DIR>/coind_D4_C4_F3.json <DIR>/coind_D4_C4_F3.decomposed.json',
         '69c78aaca0d331c00ea788d32d9f3e91e64e8a5f6e69d1d519aea41870acb69b'),
        ('decompose <DIR>/burnside_Q8_mod2.json --out <DIR>/burnside_Q8_mod2.decomposed.json',
         'f274b5f9a21b6883236410626f17ff437201b8d3e0d959d25c5effec139c6e85'),
        ('iso <DIR>/burnside_Q8_mod2.json <DIR>/burnside_Q8_mod2.decomposed.json',
         '23405ee68caf7694233f674614f770a0964d924547ebab4d7701b71662a83179'),
        ('decompose <DIR>/coind_Q8_C4_F3.json --out <DIR>/coind_Q8_C4_F3.decomposed.json',
         'ac998218caa4e2d0ea1564f003becff2f3ff3682abdfc5518e2a3eb80b6c8616'),
        ('iso <DIR>/coind_Q8_C4_F3.json <DIR>/coind_Q8_C4_F3.decomposed.json',
         'ac4a2aad5b214b5b2cb83b9f6feb3caba452d614cb5e097f5caf318b6ce2264f'),
        ('check <DIR>/broken_conjugation_coind_D4_C4_F3.json',
         'bf8737d6974cb1ba18a904c2777fb3c2b9739c9b7682ebbba6d0db9a972a1e79'),
        ('check <DIR>/broken_mackey_additive_coind_D4_C4_F3.json',
         'f6639ffa4f6ca23c59804070940a040c404f19faab2236f8e6bea0f7bac049b9'),
        ('iso <DIR>/noiso_Z4.json <DIR>/noiso_F2xF2.json',
         'be70982d66ad41913eeed7726998adf17817302158f75efe016474a7339ff4c5'),
    ],
    ('lattice', 2): [
        ('check <DIR>/coind_A4_C3_F2.json',
         'f0db0ec23c5b3dc7f5f670cf06c68ec81c7a3fa75cd8312c4be326b7f6ffffc9'),
        ('check <DIR>/coind_D4_C2_F2.json',
         'bb3fdf00c055fc5c0e2b0aee35a153289601cb4915cfaae60f9a93702d580d0f'),
        ('check <DIR>/coind_D4_C4_F3.json',
         '14dd6181434d733fe551fb9193d4eaa9b38d8719c9eec926600bcdda2ae67dc8'),
        ('check <DIR>/burnside_Q8_mod2.json',
         'b1486858eeeec3bcff05243c5623ccd2346ce572e2ab6dc27024dcac0315c698'),
        ('check <DIR>/coind_Q8_C4_F3.json',
         '5cf797f6fa0d440ef2605b8fc0ce94935e65c2a70fef65483983e10728045cc2'),
        ('decompose <DIR>/coind_A4_C3_F2.json --out <DIR>/coind_A4_C3_F2.decomposed.json',
         '7ccb92767a0a39ee878c9d6ab003e7817c72c9fc45abf737ea34f7ea95703b8e'),
        ('iso <DIR>/coind_A4_C3_F2.json <DIR>/coind_A4_C3_F2.decomposed.json',
         'a5087c2b308574872615caffaa022cd51c197ab17e5bbdbdcaaa7fa456e4ebc9'),
        ('decompose <DIR>/coind_D4_C2_F2.json --out <DIR>/coind_D4_C2_F2.decomposed.json',
         'abd51533578baf12a9dbdac99926ec470e23a9753bea4a9b4c69f53fcd7ad8b7'),
        ('iso <DIR>/coind_D4_C2_F2.json <DIR>/coind_D4_C2_F2.decomposed.json',
         '85c48ad6bbe13e6c327d6669360f990cec9bd6f408e67565001e33969a127d00'),
        ('decompose <DIR>/coind_D4_C4_F3.json --out <DIR>/coind_D4_C4_F3.decomposed.json',
         '964e40366c97e373979fd468d7086e90fd6fad87ba07f65b3f60876762cddd41'),
        ('iso <DIR>/coind_D4_C4_F3.json <DIR>/coind_D4_C4_F3.decomposed.json',
         'c82c884b461ead34a34c20348a34eb11654b0932b43b46ce4d0dd339ec80029d'),
        ('decompose <DIR>/burnside_Q8_mod2.json --out <DIR>/burnside_Q8_mod2.decomposed.json',
         '45869e9e92cc15c5c089ca200d21efc24f4c847b87564970fa3e9989998a82ee'),
        ('iso <DIR>/burnside_Q8_mod2.json <DIR>/burnside_Q8_mod2.decomposed.json',
         '23405ee68caf7694233f674614f770a0964d924547ebab4d7701b71662a83179'),
        ('decompose <DIR>/coind_Q8_C4_F3.json --out <DIR>/coind_Q8_C4_F3.decomposed.json',
         '0c067f3e9a14a14359ad212185d44c48d968a45f1e6be4819b2d81580251a993'),
        ('iso <DIR>/coind_Q8_C4_F3.json <DIR>/coind_Q8_C4_F3.decomposed.json',
         'ac4a2aad5b214b5b2cb83b9f6feb3caba452d614cb5e097f5caf318b6ce2264f'),
        ('check <DIR>/broken_conjugation_coind_D4_C4_F3.json',
         'c227590e529a10132f98bfe4102998d05fd198c3706dfda79e88b08d9d5eb242'),
        ('check <DIR>/broken_mackey_additive_coind_D4_C4_F3.json',
         '6040c8c42e241e0c7f9237384d10b154715a9a39f78cc9880272424061bbb3a4'),
        ('iso <DIR>/noiso_Z4.json <DIR>/noiso_F2xF2.json',
         'be70982d66ad41913eeed7726998adf17817302158f75efe016474a7339ff4c5'),
    ],
    ('lattice', 3): [
        ('check <DIR>/coind_A4_C3_F2.json',
         'f0db0ec23c5b3dc7f5f670cf06c68ec81c7a3fa75cd8312c4be326b7f6ffffc9'),
        ('check <DIR>/coind_D4_C2_F2.json',
         'bb3fdf00c055fc5c0e2b0aee35a153289601cb4915cfaae60f9a93702d580d0f'),
        ('check <DIR>/coind_D4_C4_F3.json',
         '14dd6181434d733fe551fb9193d4eaa9b38d8719c9eec926600bcdda2ae67dc8'),
        ('check <DIR>/burnside_Q8_mod2.json',
         'b1486858eeeec3bcff05243c5623ccd2346ce572e2ab6dc27024dcac0315c698'),
        ('check <DIR>/coind_Q8_C4_F3.json',
         '5cf797f6fa0d440ef2605b8fc0ce94935e65c2a70fef65483983e10728045cc2'),
        ('decompose <DIR>/coind_A4_C3_F2.json --out <DIR>/coind_A4_C3_F2.decomposed.json',
         'ed2c520c4837759e760971e27cc39047560d1d82ceb8da74bba4f1ba88455411'),
        ('iso <DIR>/coind_A4_C3_F2.json <DIR>/coind_A4_C3_F2.decomposed.json',
         'fe236d0ee3753b6bee06a7ce3d49b2a1955af4f40625e6a8f22edff96e07d5c5'),
        ('decompose <DIR>/coind_D4_C2_F2.json --out <DIR>/coind_D4_C2_F2.decomposed.json',
         '47284a4982992ddc016b0a7eb65854c3aca98af4fa5c186f730752e6cdc30227'),
        ('iso <DIR>/coind_D4_C2_F2.json <DIR>/coind_D4_C2_F2.decomposed.json',
         '85c48ad6bbe13e6c327d6669360f990cec9bd6f408e67565001e33969a127d00'),
        ('decompose <DIR>/coind_D4_C4_F3.json --out <DIR>/coind_D4_C4_F3.decomposed.json',
         '5674621976e7c85acbdffbbc80d3b6e34897ba6f1696a51e985fdd584fc40365'),
        ('iso <DIR>/coind_D4_C4_F3.json <DIR>/coind_D4_C4_F3.decomposed.json',
         '579879ecf0d8e9aee91415d65338a8fff1069c4a2d26f133e78cf00bcb16ea41'),
        ('decompose <DIR>/burnside_Q8_mod2.json --out <DIR>/burnside_Q8_mod2.decomposed.json',
         'd3819fcd7eb82e09d8b84d5da6ddd86f96b6e0482b30daebeab41331f6462fce'),
        ('iso <DIR>/burnside_Q8_mod2.json <DIR>/burnside_Q8_mod2.decomposed.json',
         '23405ee68caf7694233f674614f770a0964d924547ebab4d7701b71662a83179'),
        ('decompose <DIR>/coind_Q8_C4_F3.json --out <DIR>/coind_Q8_C4_F3.decomposed.json',
         '3910818d8de1b3aa49e410b3c5b84294fb3a5d110ecc4ba36617f153c08afd48'),
        ('iso <DIR>/coind_Q8_C4_F3.json <DIR>/coind_Q8_C4_F3.decomposed.json',
         'f59e9a16b38b2d04c5b5b2b9aed5f9c6606e940eb7813bdc49af353e967c374a'),
        ('check <DIR>/broken_conjugation_coind_D4_C4_F3.json',
         'c227590e529a10132f98bfe4102998d05fd198c3706dfda79e88b08d9d5eb242'),
        ('check <DIR>/broken_mackey_additive_coind_D4_C4_F3.json',
         '82e92a46dd065c2e05b18387a85ad19a1fa2378b5c57948f786714fb2f3a0710'),
        ('iso <DIR>/noiso_Z4.json <DIR>/noiso_F2xF2.json',
         'be70982d66ad41913eeed7726998adf17817302158f75efe016474a7339ff4c5'),
    ],
    ('tables', 1): [
        ('check <DIR>/assembly_C4.json',
         'd7ba352942b5a9c97b386d8390941f6a3e55f0dc0a4a5f3d8144e57229227ad0'),
        ('check <DIR>/assembly_S3.json',
         'a1e4f6096df39b94b8d15e2789367c1e453dded8f519a2c1f78ddab84b98dbec'),
        ('check <DIR>/assembly_C8.json',
         '987a7a4994c9211aa5dd6e0a615b663cc4c04b703ba091b16f6224f769c91cf7'),
        ('check <DIR>/assembly_V4.json',
         '20813e5e348518b5d70015d95b64f73e4b90e1733fc33f985ce020b4dfd95984'),
        ('decompose <DIR>/assembly_C4.json --out <DIR>/assembly_C4.decomposed.json',
         'a33cbf5c57170acf6fe95caaa4c56a11cdbe85bf443f9dec57126d8ec8dd4cf7'),
        ('iso <DIR>/assembly_C4.json <DIR>/assembly_C4.decomposed.json',
         'cffb18f55f031dc3e6abdebb8d4fc3c1141f85539f3aa4c8ab654e693e54e1ea'),
        ('decompose <DIR>/assembly_S3.json --out <DIR>/assembly_S3.decomposed.json',
         'a2400b3540d11fdfaed98963c511e08a58d412ae2836e2f44b9414d3b8cd326f'),
        ('iso <DIR>/assembly_S3.json <DIR>/assembly_S3.decomposed.json',
         '21a4a9c8fd86263ffe6f77aca66d68ea75715b236450ecc0436023a62920ad10'),
        ('decompose <DIR>/assembly_S3.json --lambda H1 --out <DIR>/assembly_S3.clarified.json',
         'aba4226f0ebe5277b2161bb8dcabdb5acea1d52b7538f3a02ef7f9ac80871e36'),
        ('decompose <DIR>/assembly_C8.json --out <DIR>/assembly_C8.decomposed.json',
         'df51999c10abfef518043af5159c73783661478aac454b9ce92d37f8a2842c82'),
        ('iso <DIR>/assembly_C8.json <DIR>/assembly_C8.decomposed.json',
         '788f7ebfbb070c6f7371016243f90bf689208a782be325de70fd2d53612e4b90'),
        ('decompose <DIR>/assembly_V4.json --out <DIR>/assembly_V4.decomposed.json',
         '345f037147587408dc8318132225e12b9e8199d8d559be4e51c429b009ce0761'),
        ('iso <DIR>/assembly_V4.json <DIR>/assembly_V4.decomposed.json',
         '305e1227e86ea551866a90f5a67b0ebd8a0d0e91c90be3a3a2a5971d06e51fe4'),
        ('restrict <DIR>/assembly_V4.json --to H2 --out <DIR>/assembly_V4.res.json',
         '33134edff25426b697e629622e6b62c6819eb774d957f4f29e6fa2c5f0c3516d'),
        ('coinduce <DIR>/body_F3_over_C2_V4.json --from H2 --out <DIR>/body_F3_over_C2_V4.coind.json',
         'e82caa1d13721ab3c42e5345f1a9d02bd797064059b834d2c5ba6c6d0a7175bc'),
        ('check <DIR>/broken_mackey_additive_assembly_V4.json',
         'b95ccb3af5bced92d995d06ddbcd7ddf2f27758b3d905ac5a235913396922ac0'),
        ('check <DIR>/broken_frobenius_green_C2.json',
         '3ab04ca8a1117bf884eabf1c35e207323fb584cc89abe084c7128da5c8a7657c'),
        ('iso <DIR>/noiso_Z4.json <DIR>/noiso_F2xF2.json',
         'be70982d66ad41913eeed7726998adf17817302158f75efe016474a7339ff4c5'),
    ],
    ('tables', 2): [
        ('check <DIR>/assembly_C4.json',
         'd7ba352942b5a9c97b386d8390941f6a3e55f0dc0a4a5f3d8144e57229227ad0'),
        ('check <DIR>/assembly_S3.json',
         'a1e4f6096df39b94b8d15e2789367c1e453dded8f519a2c1f78ddab84b98dbec'),
        ('check <DIR>/assembly_C8.json',
         '987a7a4994c9211aa5dd6e0a615b663cc4c04b703ba091b16f6224f769c91cf7'),
        ('check <DIR>/assembly_V4.json',
         '20813e5e348518b5d70015d95b64f73e4b90e1733fc33f985ce020b4dfd95984'),
        ('decompose <DIR>/assembly_C4.json --out <DIR>/assembly_C4.decomposed.json',
         '4c9ef1d08fdbebee1d1c1f769af108de98c9fa8d5a11a922de7172ae12c2fca9'),
        ('iso <DIR>/assembly_C4.json <DIR>/assembly_C4.decomposed.json',
         'cffb18f55f031dc3e6abdebb8d4fc3c1141f85539f3aa4c8ab654e693e54e1ea'),
        ('decompose <DIR>/assembly_S3.json --out <DIR>/assembly_S3.decomposed.json',
         '945e357b6b5069870fc0719a180c72bd04501aa4745fa2a2a7b3b4735a4353e0'),
        ('iso <DIR>/assembly_S3.json <DIR>/assembly_S3.decomposed.json',
         '21a4a9c8fd86263ffe6f77aca66d68ea75715b236450ecc0436023a62920ad10'),
        ('decompose <DIR>/assembly_S3.json --lambda H1 --out <DIR>/assembly_S3.clarified.json',
         '6f55deaae5fd01b25095b5925ad20e8d1bb564b54200c8a48737f23b72c10934'),
        ('decompose <DIR>/assembly_C8.json --out <DIR>/assembly_C8.decomposed.json',
         '365a6cfe0674da8e0a2d9c4889e6e41dd9de22e574007b8c0366fb24341d89ca'),
        ('iso <DIR>/assembly_C8.json <DIR>/assembly_C8.decomposed.json',
         '788f7ebfbb070c6f7371016243f90bf689208a782be325de70fd2d53612e4b90'),
        ('decompose <DIR>/assembly_V4.json --out <DIR>/assembly_V4.decomposed.json',
         '345f037147587408dc8318132225e12b9e8199d8d559be4e51c429b009ce0761'),
        ('iso <DIR>/assembly_V4.json <DIR>/assembly_V4.decomposed.json',
         '305e1227e86ea551866a90f5a67b0ebd8a0d0e91c90be3a3a2a5971d06e51fe4'),
        ('restrict <DIR>/assembly_V4.json --to H2 --out <DIR>/assembly_V4.res.json',
         '33134edff25426b697e629622e6b62c6819eb774d957f4f29e6fa2c5f0c3516d'),
        ('coinduce <DIR>/body_F3_over_C2_V4.json --from H2 --out <DIR>/body_F3_over_C2_V4.coind.json',
         'e82caa1d13721ab3c42e5345f1a9d02bd797064059b834d2c5ba6c6d0a7175bc'),
        ('check <DIR>/broken_mackey_additive_assembly_V4.json',
         'b95ccb3af5bced92d995d06ddbcd7ddf2f27758b3d905ac5a235913396922ac0'),
        ('check <DIR>/broken_frobenius_green_C2.json',
         '3ab04ca8a1117bf884eabf1c35e207323fb584cc89abe084c7128da5c8a7657c'),
        ('iso <DIR>/noiso_Z4.json <DIR>/noiso_F2xF2.json',
         'be70982d66ad41913eeed7726998adf17817302158f75efe016474a7339ff4c5'),
    ],
    ('tables', 3): [
        ('check <DIR>/assembly_C4.json',
         'd7ba352942b5a9c97b386d8390941f6a3e55f0dc0a4a5f3d8144e57229227ad0'),
        ('check <DIR>/assembly_S3.json',
         'a1e4f6096df39b94b8d15e2789367c1e453dded8f519a2c1f78ddab84b98dbec'),
        ('check <DIR>/assembly_C8.json',
         '987a7a4994c9211aa5dd6e0a615b663cc4c04b703ba091b16f6224f769c91cf7'),
        ('check <DIR>/assembly_V4.json',
         '20813e5e348518b5d70015d95b64f73e4b90e1733fc33f985ce020b4dfd95984'),
        ('decompose <DIR>/assembly_C4.json --out <DIR>/assembly_C4.decomposed.json',
         '8c383c69162389eee820daec06d6166b2eb1903c5fcd7dfd88d5d0ceaf2835b9'),
        ('iso <DIR>/assembly_C4.json <DIR>/assembly_C4.decomposed.json',
         'cffb18f55f031dc3e6abdebb8d4fc3c1141f85539f3aa4c8ab654e693e54e1ea'),
        ('decompose <DIR>/assembly_S3.json --out <DIR>/assembly_S3.decomposed.json',
         'd8d3c68e28274c67f912fc4037cac710e755bd046e29d2801b905efdfc891f92'),
        ('iso <DIR>/assembly_S3.json <DIR>/assembly_S3.decomposed.json',
         'd7babc6c980473c52ec4e20ad43e2839e95dc8079be089dd30c491692c0b9fa9'),
        ('decompose <DIR>/assembly_S3.json --lambda H3 --out <DIR>/assembly_S3.clarified.json',
         '7a4fa0584f39c707a2ca564925156ba54e4ad6ba1a8ae94d635b3ecbdea170c2'),
        ('decompose <DIR>/assembly_C8.json --out <DIR>/assembly_C8.decomposed.json',
         '21df034cbb187e3072c9c8eec253681061d0b1917b6e018c259bb2fb82cb4e79'),
        ('iso <DIR>/assembly_C8.json <DIR>/assembly_C8.decomposed.json',
         '788f7ebfbb070c6f7371016243f90bf689208a782be325de70fd2d53612e4b90'),
        ('decompose <DIR>/assembly_V4.json --out <DIR>/assembly_V4.decomposed.json',
         '2771ad70baea39698ff1cea416901b6091041f1ea88b0c8bd700a86bb1ee2210'),
        ('iso <DIR>/assembly_V4.json <DIR>/assembly_V4.decomposed.json',
         '9e764832ff4f26841254c3a2ad2410dd54e249e9de446de9ad643a8d8640cc22'),
        ('restrict <DIR>/assembly_V4.json --to H1 --out <DIR>/assembly_V4.res.json',
         '895f008fa92e9a1fe78173bd6ac350d3d3a73a1830f4728e60d62f26bc65b800'),
        ('coinduce <DIR>/body_F3_over_C2_V4.json --from H1 --out <DIR>/body_F3_over_C2_V4.coind.json',
         '9ff0529bd812dfad8bcd2fe8533efc5b804bbbdd62fbed7a63aa013feb82da80'),
        ('check <DIR>/broken_mackey_additive_assembly_V4.json',
         'dff1eb5c5dd799d13a9498bb5803c662e1fef11a713eae6dbc63cad11ea8eb5e'),
        ('check <DIR>/broken_frobenius_green_C2.json',
         '3ab04ca8a1117bf884eabf1c35e207323fb584cc89abe084c7128da5c8a7657c'),
        ('iso <DIR>/noiso_Z4.json <DIR>/noiso_F2xF2.json',
         'be70982d66ad41913eeed7726998adf17817302158f75efe016474a7339ff4c5'),
    ],
}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", SEEDS)
def test_benchmark_commands_are_byte_stable(tmp_path, monkeypatch, workload, seed):
    monkeypatch.chdir(tmp_path)
    assert transcript(workload, seed, str(tmp_path)) == TRANSCRIPTS[(workload, seed)]


if __name__ == "__main__":
    import tempfile

    print("TRANSCRIPTS = {")
    for workload in WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as workdir:
                print(f"    ({workload!r}, {seed}): [")
                for command, digest in transcript(workload, seed, workdir):
                    print(f"        ({command!r},\n         {digest!r}),")
                print("    ],")
    print("}")
