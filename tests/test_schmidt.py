from __future__ import annotations

import re
from dataclasses import fields

import numpy as np
import pytest

from conftest import random_coefficients
from selftesting import (
    SchmidtCoefficients,
    angles,
    block_scores,
    blocks,
    build_block_operators,
    ideal_realization,
    reference_tables,
    schmidt,
    target_state,
    verify_tables,
)
from selftesting.errors import (
    AngleRangeError,
    CoefficientRangeError,
    DimensionError,
    NormalizationError,
)
from selftesting.schmidt import BlockTable

# arctan(0.6 / 0.8) and the tilt data it induces
THETA_86 = 0.6435011087932844
ALPHA_86 = 0.40397689977733287

# d=4, c=(0.8, 0.4, 0.4, 0.2): first unprimed block and the wrap block
ALPHA_D4_M0 = 6 / np.sqrt(41)
ALPHA_D4_WRAP = -30 / np.sqrt(353)


@pytest.mark.parametrize(
    "ratio, d, block, ratio_text",
    [(0.5, 54, "(26, True) on pair (53, 0)", "1.110e-16"),
     (0.3, 32, "(15, True) on pair (31, 0)", "6.177e-17")],
)
def test_angle_range_error_names_its_block(ratio, d, block, ratio_text):
    # a geometric state's wrap block pairs its smallest coefficient with its
    # largest; below about 1.1e-16, theta rounds to pi/2
    c = ratio ** np.arange(d)
    sc = SchmidtCoefficients(c / np.linalg.norm(c))
    message = rf"^block \(m, primed\) = {re.escape(block)}, c_lo/c_hi = {ratio_text}: "
    with pytest.raises(AngleRangeError, match=message + r"angles left \(0, pi/2\)"):
        blocks(sc)


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


def test_complex_coefficients_with_zero_imaginary_part_are_taken_real():
    for given in (np.array([0.8 + 0j, 0.6]), [0.8 + 0j, 0.6 + 0j]):
        sc = SchmidtCoefficients(given)
        assert sc.c.dtype == np.float64 and np.array_equal(sc.c, [0.8, 0.6])


@pytest.mark.parametrize(
    "given, message",
    [
        (np.array([0.8 + 0.1j, 0.6]), "coefficient 0 has a nonzero imaginary part"),
        ([0.8, 0.6 + 1e-20j], "coefficient 1 has a nonzero imaginary part"),
        (np.array([0.8, complex(0.6, np.nan)]), "coefficient 1 has a nonzero imaginary part"),
        (["0.8", "0.6"], "coefficients must be real numbers, got dtype <U3"),
        (np.array([True, False]), "coefficients must be real numbers, got dtype bool"),
        (np.array([0.8, 0.6], dtype=object), "coefficients must be real numbers, got dtype object"),
    ],
    ids=["complex", "complex-list", "nan-imaginary", "strings", "bools", "objects"],
)
def test_coefficients_must_be_real_numbers(given, message):
    # a complex or parsed-from-text vector would silently change the state
    with pytest.raises(CoefficientRangeError, match=f"^{re.escape(message)}$"):
        SchmidtCoefficients(given)


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
    8: ([(0, 1), (2, 3), (4, 5), (6, 7)], [(1, 2), (3, 4), (5, 6), (7, 0)], None, None),
    9: ([(0, 1), (2, 3), (4, 5), (6, 7)], [(1, 2), (3, 4), (5, 6), (7, 8)], 8, 0),
}
SETTINGS = {False: ((0, 1), (0, 1)), True: ((0, 2), (2, 3))}


def _pairs(d):
    return blocks(random_coefficients(d, seed=20 + d)).pair.tolist()


def test_pair_structure_even():
    # the last primed pair wraps around to (d-1, 0)
    assert _pairs(2) == [[0, 1], [1, 0]]
    assert _pairs(4) == [[0, 1], [2, 3], [1, 2], [3, 0]]
    assert _pairs(6) == [[0, 1], [2, 3], [4, 5], [1, 2], [3, 4], [5, 0]]
    assert _pairs(8) == [[0, 1], [2, 3], [4, 5], [6, 7], [1, 2], [3, 4], [5, 6], [7, 0]]


def test_pair_structure_odd():
    # odd d: outcome d-1 has no unprimed home, outcome 0 no primed home
    assert _pairs(3) == [[0, 1], [1, 2]]
    assert _pairs(5) == [[0, 1], [2, 3], [1, 2], [3, 4]]
    assert _pairs(7) == [[0, 1], [2, 3], [4, 5], [1, 2], [3, 4], [5, 6]]
    assert _pairs(9) == [[0, 1], [2, 3], [4, 5], [6, 7], [1, 2], [3, 4], [5, 6], [7, 8]]


def test_block_table():
    # even d: the last primed block wraps to (d-1, 0); odd d: outcome d-1
    # has no unprimed home and outcome 0 no primed home
    for d, (unprimed, primed, corner_u, corner_p) in BLOCK_TABLE.items():
        sc = random_coefficients(d, seed=20 + d)
        table = blocks(sc)
        assert len(table) == 2 * (d // 2)
        families = ((False, unprimed), (True, primed))
        want = [(fam, m) for fam, fam_pairs in families for m in range(len(fam_pairs))]
        assert list(zip(table.primed.tolist(), table.m.tolist())) == want
        assert table.pair.tolist() == [list(pair) for pair in unprimed + primed]
        for name, side in (("xs", 0), ("ys", 1)):
            want = [list(SETTINGS[fam][side]) for fam, fam_pairs in families for _ in fam_pairs]
            assert getattr(table, name).tolist() == want
        # odd d leaves d-1 outside every unprimed block and 0 outside every
        # primed one; even d leaves nothing out
        assert (corner_u, corner_p) == ((d - 1, 0) if d % 2 else (None, None))
        # each family's pairs and its corner cover every outcome once
        for fam, top in ((False, corner_u), (True, corner_p)):
            covered = table.pair[table.primed == fam].ravel().tolist()
            covered += [] if top is None else [top]
            assert sorted(covered) == list(range(d))
        assert table.mass.tolist() == [sc.c[lo] ** 2 + sc.c[hi] ** 2 for lo, hi in table.pair]
        # angles() is a view of the table, family by family in order m
        sched = angles(sc)
        for name in ("theta", "mu", "alpha"):
            got = np.concatenate([getattr(sched, name), getattr(sched, name + "_primed")])
            assert np.array_equal(got, getattr(table, name))
        # block_scores lists its blocks in table order
        scores = block_scores(reference_tables(sc), sc)
        assert [(s.primed, s.m, list(s.pair)) for s in scores] == list(
            zip(table.primed.tolist(), table.m.tolist(), table.pair.tolist())
        )


def test_block_table_is_read_only_and_kept():
    sc = random_coefficients(5, seed=25)
    table = blocks(sc)
    assert blocks(sc) is table
    for f in fields(BlockTable):
        column = getattr(table, f.name)
        assert column.shape == ((4, 2) if f.name in ("pair", "xs", "ys") else (4,))
        with pytest.raises(ValueError):
            column[0] = column[1]


def test_coefficients_are_a_read_only_copy():
    # a float64 array used to be kept as given, so writing to it later
    # changed a frozen value
    source = np.array([0.8, 0.6])
    sc = SchmidtCoefficients(source)
    table = blocks(sc)
    want = [getattr(table, name).tolist() for name in ("theta", "mu", "alpha", "mass")]
    source[0] = 0.6
    assert sc.c.tolist() == [0.8, 0.6]
    assert blocks(sc) is table
    assert [getattr(table, name).tolist() for name in ("theta", "mu", "alpha", "mass")] == want
    with pytest.raises(ValueError):
        sc.c[0] = 0.5


def test_block_table_is_computed_once(monkeypatch):
    calls = []

    def counted(lo, hi):
        calls.append((lo, hi))
        return block_angles(lo, hi)

    block_angles = schmidt._block_angles
    monkeypatch.setattr(schmidt, "_block_angles", counted)
    sc = random_coefficients(7, seed=41)
    ref = reference_tables(sc)
    assert verify_tables(ref, sc).passed
    angles(sc)
    r = ideal_realization(sc)
    block_scores(ref, sc)
    build_block_operators(r, sc)
    assert blocks(sc) is blocks(sc)
    assert len(calls) == len(blocks(sc)) == 6


def test_angles_d2():
    sc = SchmidtCoefficients(np.array([0.8, 0.6]))
    sched = angles(sc)
    assert len(sched.theta) == 1
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
    assert len(sched.theta) == 2
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
        table = blocks(sc)
        lo, hi = table.pair.T
        assert np.all((-2.0 < table.alpha) & (table.alpha < 2.0))
        same = np.sign(table.alpha) == np.sign(sc.c[lo] - sc.c[hi])
        assert np.all(same | (table.alpha == 0.0))


def test_target_state():
    sc = SchmidtCoefficients(np.array([0.8, 0.6]))
    psi = target_state(sc)
    assert psi.shape == (4,)
    assert np.allclose(psi, [0.8, 0.0, 0.0, 0.6])
    sc3 = random_coefficients(3, seed=5)
    psi3 = target_state(sc3).reshape(3, 3)
    assert np.allclose(np.diag(psi3), sc3.c)
    assert np.allclose(psi3 - np.diag(sc3.c), 0.0)
