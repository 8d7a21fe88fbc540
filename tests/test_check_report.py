"""The axiom checker's report text, pinned byte for byte.

Each case hashes the full ``CheckReport.summary()``: the identity count of
every family, the verdict, and each failure's family, message and place in
the failure order.  Cases run twice, once under the default cap on failures
per family and once uncapped, so the order of every failure is pinned, not
only the first few.  A change meant to keep the checker's output must keep
every digest; to pin a deliberate change, rerun ``_summary_digest`` for the
affected cases and update the table.
"""

import hashlib

import numpy as np
import pytest

import corpus
import helpers
from tambara import functors
from tambara.functors import check_axioms, fixed_point_functor


def _break(T, name, K, H, table):
    getattr(T, name)[(K, H)] = np.asarray(table, dtype=np.int32)


def _broken_tambara():
    """coind_C2_C4_FPF4 with res, tr and nm broken at C2 < C4 and at C2 = C2."""
    T = helpers.copy_functor(corpus.COIND_CORPUS["coind_C2_C4_FPF4"])
    G = T.group
    C2, C4 = G.subgroup([0, 2]), G.full_subgroup
    top, mid = T.levels[C4], T.levels[C2]
    _break(T, "res", C2, C4, np.full(top.size, mid.zero))      # 1 -> 0
    _break(T, "tr", C2, C4, np.full(mid.size, top.one))        # 0 -> 1
    _break(T, "nm", C2, C4, np.full(mid.size, top.zero))       # 1 -> 0
    _break(T, "res", C2, C2, np.roll(np.arange(mid.size), 1))
    _break(T, "tr", C2, C2, np.full(mid.size, mid.zero))       # additive, not the identity
    _break(T, "nm", C2, C2, np.roll(np.arange(mid.size), -1))
    return T


def _broken_green():
    """The Green functor of F4 with the sign action of S3, with res and tr
    broken at an order-2 subgroup below S3 and at that subgroup itself."""
    T = helpers.copy_functor(fixed_point_functor(corpus.GRING_CORPUS["F4_sign_S3"],
                                                 green_only=True))
    G = T.group
    K, H = corpus.S3_ORDER2, G.full_subgroup
    top, mid = T.levels[H], T.levels[K]
    _break(T, "res", K, H, np.full(top.size, mid.zero))
    _break(T, "tr", K, H, np.full(mid.size, top.one))
    _break(T, "res", K, K, np.roll(np.arange(mid.size), 1))
    _break(T, "tr", K, K, np.full(mid.size, mid.zero))
    return T


CASES = {desc: T for desc, T, _ in helpers.mutation_fixtures()}
CASES["res tr nm broken"] = _broken_tambara()
CASES["green res tr broken"] = _broken_green()


def _summary_digest(T):
    return hashlib.sha256(check_axioms(T).summary().encode()).hexdigest()


GOLDEN = {
    ('broken multiplicativity', True): '043199ea87f071ba52049e8a5f1d76454420e4175757eb5528484b4137fa79e6',
    ('broken multiplicativity', False): '043199ea87f071ba52049e8a5f1d76454420e4175757eb5528484b4137fa79e6',
    ('c_h not identity', True): 'a51a212aec9e6635f1b0e071c8de60a3ee2114966aa3da9d54f09efb39421dea',
    ('c_h not identity', False): '93c32307e0e5167a8711fef5113be2c27c0a15aba0b77dcb49b6a7e7404709e5',
    ('diagonal transfer', True): 'ea212aab928f0e84ce9bbeb4c51a060042b923edc3952429977ab01c96b9c8d8',
    ('diagonal transfer', False): 'ea212aab928f0e84ce9bbeb4c51a060042b923edc3952429977ab01c96b9c8d8',
    ('doubled transfer', True): 'c6262eae7cb50f7a64422c1d2c40d7c7b6f5b5829b159ac32f0284b790cb7bf3',
    ('doubled transfer', False): 'c6262eae7cb50f7a64422c1d2c40d7c7b6f5b5829b159ac32f0284b790cb7bf3',
    ('green res tr broken', True): '6ed8a93711936de357dad8230b5a47c5f186fd25e3feec1c6ade3d271cb4461d',
    ('green res tr broken', False): 'bd71782972e9eab9dcf38893d965f67905618c71f096863f669990215ef0ed55',
    ('kernel-twisted transfer', True): '954b7dd0a4f07375ba6a2e29a6ca518800956872c48804588fdf5b7d69a7d7ef',
    ('kernel-twisted transfer', False): '954b7dd0a4f07375ba6a2e29a6ca518800956872c48804588fdf5b7d69a7d7ef',
    ('res tr nm broken', True): 'bd51acca660dfdb3ef53efcf8ddd2be3f1cf129ce92feeaa22e1cbc03d2c7bea',
    ('res tr nm broken', False): '54668c1233ee12a0d24431656d067ccb9997d18e9ecba02ce854e20d05c37cfb',
    ('squared norm', True): 'e9eb39850e5badc07dc6d2fc79b44e300bf51c3c01ecff33a6676973c9bf39d0',
    ('squared norm', False): 'e9eb39850e5badc07dc6d2fc79b44e300bf51c3c01ecff33a6676973c9bf39d0',
}


@pytest.mark.parametrize("capped", [True, False], ids=["capped", "uncapped"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_report_text_is_pinned(case, capped, monkeypatch):
    if not capped:
        monkeypatch.setattr(functors, "MAX_FAILURES_PER_FAMILY", 10 ** 6)
    assert _summary_digest(CASES[case]) == GOLDEN[(case, capped)]
