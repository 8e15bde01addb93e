from __future__ import annotations

import numpy as np

from conftest import random_coefficients
from selftesting import (
    EmbeddingSpec,
    SchmidtCoefficients,
    angles,
    block_correlators,
    block_scores,
    block_violation,
    blocks,
    compute_tables,
    embed_realization,
    ideal_realization,
    reference_tables,
    sample_tables,
)

TWO_SQRT_TWO = 2 * np.sqrt(2)
# d=4, c=(0.8, 0.4, 0.4, 0.2): frozen block maxima
BETA_D4_M0 = 20 / np.sqrt(41) * 0.8
BETA_D4_M0_PRIMED = TWO_SQRT_TWO * 0.32


def _block(sc, m, primed=False):
    return next(b for b in blocks(sc) if (b.m, b.primed) == (m, primed))


def test_maximal_d2_correlators_and_score():
    sc = SchmidtCoefficients(np.array([1.0, 1.0]) / np.sqrt(2))
    t = reference_tables(sc)
    corr = block_correlators(t, _block(sc, 0))
    assert abs(corr.a0) < 1e-14
    assert abs(corr.a0b0 - 1 / np.sqrt(2)) < 1e-14
    assert abs(corr.a0b1 - 1 / np.sqrt(2)) < 1e-14
    assert abs(corr.a1b0 - 1 / np.sqrt(2)) < 1e-14
    assert abs(corr.a1b1 + 1 / np.sqrt(2)) < 1e-14
    score = block_violation(t, _block(sc, 0))
    assert abs(score.beta - TWO_SQRT_TWO) < 1e-10
    assert abs(score.residual) < 1e-12


def test_marginal_correlator_d2():
    sc = SchmidtCoefficients(np.array([0.8, 0.6]))
    corr = block_correlators(reference_tables(sc), _block(sc, 0))
    assert abs(corr.a0 - (0.64 - 0.36)) < 1e-14


def test_frozen_d4_block_values():
    sc = SchmidtCoefficients(np.array([0.8, 0.4, 0.4, 0.2]))
    t = reference_tables(sc)
    unprimed = block_violation(t, _block(sc, 0))
    assert abs(unprimed.beta - BETA_D4_M0) < 1e-12
    assert abs(unprimed.target - BETA_D4_M0) < 1e-12
    primed = block_violation(t, _block(sc, 0, primed=True))
    assert abs(primed.beta - BETA_D4_M0_PRIMED) < 1e-12
    # the equal-coefficient primed block carries no tilt
    assert abs(primed.alpha) < 1e-14


def test_violation_identity_all_blocks():
    # measured beta equals sqrt(8 + 2 alpha^2) * block mass on every block
    for d in range(2, 10):
        sc = random_coefficients(d, seed=700 + d)
        t = compute_tables(ideal_realization(sc))
        for score in block_scores(t, sc):
            assert abs(score.residual) < 1e-12
            assert abs(score.beta - score.target) < 1e-12


def test_block_scores_match_block_violation():
    # one block table per call must give exactly the per-block scores, also
    # on sampled tables that meet no identity
    for d in (2, 3, 6, 9):
        sc = random_coefficients(d, seed=720 + d)
        r = embed_realization(ideal_realization(sc), EmbeddingSpec(extra_a=1, seed=d))
        for t in (compute_tables(r), sample_tables(r, 500, seed=d).estimated):
            want = [block_violation(t, b) for b in blocks(sc)]
            assert block_scores(t, sc) == want


def test_scores_cover_both_families():
    sc = random_coefficients(5, seed=12)
    scores = block_scores(compute_tables(ideal_realization(sc)), sc)
    key = [(s.primed, s.m) for s in scores]
    assert key == [(False, 0), (False, 1), (True, 0), (True, 1)]
    assert [s.pair for s in scores] == [(0, 1), (2, 3), (1, 2), (3, 4)]


def test_block_mass_and_alpha_match_schedule():
    sc = random_coefficients(4, seed=13)
    sched = angles(sc)
    scores = block_scores(compute_tables(ideal_realization(sc)), sc)
    for s in scores:
        lo, hi = s.pair
        assert abs(s.mass - (sc.c[lo] ** 2 + sc.c[hi] ** 2)) < 1e-14
        want = sched.alpha_primed[s.m] if s.primed else sched.alpha[s.m]
        assert abs(s.alpha - want) < 1e-14


def test_every_block_beats_classical_bound():
    # scaled classical bound is (2 + |alpha|) * mass; entangled blocks
    # must exceed it strictly
    for d in (2, 3, 4, 5, 6):
        sc = random_coefficients(d, seed=800 + d)
        t = compute_tables(ideal_realization(sc))
        for s in block_scores(t, sc):
            classical = (2.0 + abs(s.alpha)) * s.mass
            assert s.beta > classical + 1e-6


def test_correlator_magnitudes_bounded_by_mass():
    # every block correlator is an expectation over at most the block's
    # probability weight
    for d in (2, 3, 6):
        sc = random_coefficients(d, seed=900 + d)
        t = compute_tables(ideal_realization(sc))
        for s in block_scores(t, sc):
            corr = s.correlators
            for value in (corr.a0, corr.a0b0, corr.a0b1, corr.a1b0, corr.a1b1):
                assert abs(value) <= s.mass + 1e-9


def test_quantum_bound_holds_on_rotated_realizations():
    # no realization, embedded or not, may exceed the tilted quantum bound
    for d in (2, 3, 4):
        sc = random_coefficients(d, seed=950 + d)
        r = embed_realization(
            ideal_realization(sc), EmbeddingSpec(extra_a=2, extra_b=1, seed=d)
        )
        for s in block_scores(compute_tables(r), sc):
            assert s.beta <= s.target + 1e-9
    # even d pairs outcome d-1 with outcome 0 in the primed family
    sc = SchmidtCoefficients(np.array([0.8, 0.4, 0.4, 0.2]))
    t = reference_tables(sc)
    wrap = block_violation(t, _block(sc, 1, primed=True))
    assert wrap.pair == (3, 0)
    assert abs(wrap.alpha - (-30 / np.sqrt(353))) < 1e-13
    assert abs(wrap.residual) < 1e-12
