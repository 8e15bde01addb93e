from __future__ import annotations

import numpy as np
import pytest

from conftest import random_coefficients
from selftesting import (
    SchmidtCoefficients,
    angles,
    block_scores,
    blocks,
    corner,
    pairs,
    reference_tables,
    target_state,
)
from selftesting.errors import (
    CoefficientRangeError,
    DimensionError,
    NormalizationError,
)

# arctan(0.6 / 0.8) and the tilt data it induces
THETA_86 = 0.6435011087932844
ALPHA_86 = 0.40397689977733287

# d=4, c=(0.8, 0.4, 0.4, 0.2): first unprimed block and the wrap block
ALPHA_D4_M0 = 6 / np.sqrt(41)
ALPHA_D4_WRAP = -30 / np.sqrt(353)


def test_validation_rejects_zero_coefficient():
    with pytest.raises(CoefficientRangeError):
        SchmidtCoefficients(np.array([1.0, 0.0]))


def test_validation_rejects_negative_and_overshoot():
    with pytest.raises(CoefficientRangeError):
        SchmidtCoefficients(np.array([-0.8, 0.6]))
    with pytest.raises(CoefficientRangeError):
        SchmidtCoefficients(np.array([1.2, 0.6]))


def test_validation_rejects_bad_normalization():
    with pytest.raises(NormalizationError):
        SchmidtCoefficients(np.array([0.8, 0.7]))
    # inside tolerance passes untouched
    sc = SchmidtCoefficients(np.array([0.8, 0.6]))
    assert np.array_equal(sc.c, np.array([0.8, 0.6]))


def test_validation_rejects_scalars_and_nan():
    with pytest.raises(DimensionError):
        SchmidtCoefficients(np.array([1.0]))
    with pytest.raises(CoefficientRangeError):
        SchmidtCoefficients(np.array([np.nan, 0.6]))


def test_no_sorting_no_renormalizing():
    sc = SchmidtCoefficients(np.array([0.6, 0.8]))
    assert sc.c[0] == 0.6 and sc.c[1] == 0.8


# d: (unprimed pairs, primed pairs, unprimed corner, primed corner)
BLOCK_TABLE = {
    2: ([(0, 1)], [(1, 0)], None, None),
    3: ([(0, 1)], [(1, 2)], 2, 0),
    4: ([(0, 1), (2, 3)], [(1, 2), (3, 0)], None, None),
    5: ([(0, 1), (2, 3)], [(1, 2), (3, 4)], 4, 0),
    6: ([(0, 1), (2, 3), (4, 5)], [(1, 2), (3, 4), (5, 0)], None, None),
    7: ([(0, 1), (2, 3), (4, 5)], [(1, 2), (3, 4), (5, 6)], 6, 0),
}
SETTINGS = {False: ((0, 1), (0, 1)), True: ((0, 2), (2, 3))}


def test_pair_structure_even():
    assert pairs(2, False) == [(0, 1)]
    assert pairs(2, True) == [(1, 0)]
    assert pairs(4, False) == [(0, 1), (2, 3)]
    assert pairs(4, True) == [(1, 2), (3, 0)]
    assert pairs(6, False) == [(0, 1), (2, 3), (4, 5)]
    assert pairs(6, True) == [(1, 2), (3, 4), (5, 0)]


def test_pair_structure_odd():
    # odd d: outcome d-1 has no unprimed home, outcome 0 no primed home
    assert pairs(3, False) == [(0, 1)]
    assert pairs(3, True) == [(1, 2)]
    assert pairs(5, False) == [(0, 1), (2, 3)]
    assert pairs(5, True) == [(1, 2), (3, 4)]


def test_block_table():
    # even d: the last primed block wraps to (d-1, 0); odd d: outcome d-1
    # has no unprimed home and outcome 0 no primed home
    for d, (unprimed, primed, corner_u, corner_p) in BLOCK_TABLE.items():
        sc = random_coefficients(d, seed=20 + d)
        table = blocks(sc)
        want = [
            (fam, m, lo, hi, *SETTINGS[fam])
            for fam, fam_pairs in ((False, unprimed), (True, primed))
            for m, (lo, hi) in enumerate(fam_pairs)
        ]
        assert [(b.primed, b.m, b.lo, b.hi, b.xs, b.ys) for b in table] == want
        assert pairs(d, False) == unprimed and pairs(d, True) == primed
        assert corner(d, False) == corner_u and corner(d, True) == corner_p
        for b in table:
            assert b.pair == (b.lo, b.hi)
            assert b.mass == sc.c[b.lo] ** 2 + sc.c[b.hi] ** 2
        # angles() is a view of the table, family by family in order m
        sched = angles(sc)
        for name in ("theta", "mu", "alpha"):
            got = np.concatenate([getattr(sched, name), getattr(sched, name + "_primed")])
            assert np.array_equal(got, [getattr(b, name) for b in table])
        # block_scores lists its blocks in table order
        scores = block_scores(reference_tables(sc), sc)
        assert [(s.primed, s.m, s.pair) for s in scores] == [(b.primed, b.m, b.pair) for b in table]


def test_pair_structure_rejects_small_d():
    with pytest.raises(DimensionError):
        pairs(1, False)
    with pytest.raises(DimensionError):
        pairs(0, True)


def test_angles_d2():
    sc = SchmidtCoefficients(np.array([0.8, 0.6]))
    sched = angles(sc)
    assert sched.n_blocks == 1
    assert abs(sched.theta[0] - THETA_86) < 1e-15
    assert abs(sched.alpha[0] - ALPHA_86) < 1e-15
    # primed block reverses the pair, flipping the tilt sign
    assert abs(sched.theta_primed[0] - (np.pi / 2 - THETA_86)) < 1e-15
    assert abs(sched.alpha_primed[0] + ALPHA_86) < 1e-15
    assert abs(sched.mu_primed[0] - sched.mu[0]) < 1e-15


def test_angles_maximally_entangled():
    sc = SchmidtCoefficients(np.array([1.0, 1.0]) / np.sqrt(2))
    sched = angles(sc)
    assert abs(sched.theta[0] - np.pi / 4) < 1e-15
    assert abs(sched.alpha[0]) < 1e-15
    assert abs(sched.mu[0] - np.pi / 4) < 1e-15


def test_angles_d4_including_wrap():
    sc = SchmidtCoefficients(np.array([0.8, 0.4, 0.4, 0.2]))
    sched = angles(sc)
    assert sched.n_blocks == 2
    assert abs(sched.alpha[0] - ALPHA_D4_M0) < 1e-14
    # primed m=0 pairs equal coefficients (0.4, 0.4): no tilt
    assert abs(sched.alpha_primed[0]) < 1e-15
    # wrap block (3, 0) pairs 0.2 below 0.8: strongly negative tilt
    assert abs(sched.alpha_primed[1] - ALPHA_D4_WRAP) < 1e-14


def test_angle_identity_tan_mu():
    for d in range(2, 10):
        sc = random_coefficients(d, seed=40 + d)
        sched = angles(sc)
        for th, mu in zip(sched.theta, sched.mu):
            assert abs(np.tan(mu) - np.sin(2 * th)) < 1e-12
        for th, mu in zip(sched.theta_primed, sched.mu_primed):
            assert abs(np.tan(mu) - np.sin(2 * th)) < 1e-12


def test_alpha_range_and_sign():
    for d in range(2, 10):
        sc = random_coefficients(d, seed=60 + d)
        for b in blocks(sc):
            assert -2.0 < b.alpha < 2.0
            assert np.sign(b.alpha) == np.sign(sc.c[b.lo] - sc.c[b.hi]) or b.alpha == 0.0


def test_target_state():
    sc = SchmidtCoefficients(np.array([0.8, 0.6]))
    psi = target_state(sc)
    assert psi.shape == (4,)
    assert np.allclose(psi, [0.8, 0.0, 0.0, 0.6])
    sc3 = random_coefficients(3, seed=5)
    psi3 = target_state(sc3).reshape(3, 3)
    assert np.allclose(np.diag(psi3), sc3.c)
    assert np.allclose(psi3 - np.diag(sc3.c), 0.0)
