from __future__ import annotations

import itertools

import numpy as np
import pytest

from conftest import random_coefficients
from selftesting import (
    BlockScore,
    CorrelationTables,
    CoverageError,
    EmbeddingSpec,
    SchmidtCoefficients,
    angles,
    block_scores,
    blocks,
    compute_tables,
    embed_realization,
    ideal_realization,
    reference_tables,
    sample_tables,
)
from selftesting.correlations import constrained_pairs

TWO_SQRT_TWO = 2 * np.sqrt(2)
# d=4, c=(0.8, 0.4, 0.4, 0.2): frozen block maxima
BETA_D4_M0 = 20 / np.sqrt(41) * 0.8
BETA_D4_M0_PRIMED = TWO_SQRT_TWO * 0.32


def _score(sc, m, primed=False):
    scores = block_scores(reference_tables(sc), sc)
    return next(s for s in scores if (s.m, s.primed) == (m, primed))


def _correlators(t, b):
    """(<A0>, <A0B0>, <A0B1>, <A1B0>, <A1B1>) of block `b`, one entry at a time."""
    lo, hi = b.pair
    tabs = [t.table(x, y) for x in b.xs for y in b.ys]
    marginal = float(tabs[0][lo, :].sum() - tabs[0][hi, :].sum())
    pair_sums = [float(tab[lo, lo] - tab[lo, hi] - tab[hi, lo] + tab[hi, hi]) for tab in tabs]
    return (marginal, *pair_sums)


def _score_loop(t, sc):
    """Per-block reference for block_scores: each block scored on its own."""
    t.require_d(sc.d)
    out = []
    for b in blocks(sc):
        a0, a0b0, a0b1, a1b0, a1b1 = _correlators(t, b)
        beta = b.alpha * a0 + a0b0 + a0b1 + a1b0 - a1b1
        target = float(np.sqrt(8.0 + 2.0 * b.alpha * b.alpha) * b.mass)
        out.append(BlockScore(b.m, b.primed, b.pair, b.mass, b.alpha, float(beta), target))
    return out


def test_maximal_d2_correlators_and_score():
    sc = SchmidtCoefficients(np.array([1.0, 1.0]) / np.sqrt(2))
    a0, a0b0, a0b1, a1b0, a1b1 = _correlators(reference_tables(sc), blocks(sc)[0])
    assert abs(a0) < 1e-14
    assert abs(a0b0 - 1 / np.sqrt(2)) < 1e-14
    assert abs(a0b1 - 1 / np.sqrt(2)) < 1e-14
    assert abs(a1b0 - 1 / np.sqrt(2)) < 1e-14
    assert abs(a1b1 + 1 / np.sqrt(2)) < 1e-14
    score = _score(sc, 0)
    assert abs(score.beta - TWO_SQRT_TWO) < 1e-10
    assert abs(score.residual) < 1e-12


def test_marginal_correlator_d2():
    sc = SchmidtCoefficients(np.array([0.8, 0.6]))
    a0 = _correlators(reference_tables(sc), blocks(sc)[0])[0]
    assert abs(a0 - (0.64 - 0.36)) < 1e-14


def test_frozen_d4_block_values():
    sc = SchmidtCoefficients(np.array([0.8, 0.4, 0.4, 0.2]))
    unprimed = _score(sc, 0)
    assert abs(unprimed.beta - BETA_D4_M0) < 1e-12
    assert abs(unprimed.target - BETA_D4_M0) < 1e-12
    primed = _score(sc, 0, primed=True)
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


def test_block_scores_match_score_loop():
    # the batched read gives exactly the per-block scores, also on sampled
    # tables that meet no identity, and on tables stored column-major
    for d in range(2, 34):
        sc = random_coefficients(d, seed=720 + d)
        ideal = ideal_realization(sc)
        embedded = embed_realization(ideal, EmbeddingSpec(extra_a=1, extra_b=2, seed=d))
        sets = [reference_tables(sc)]
        for r in (ideal, embedded):
            sets += [compute_tables(r), sample_tables(r, 300, seed=d).estimated]
        sets += [CorrelationTables(d, {p: np.asfortranarray(a) for p, a in t.tables.items()})
                 for t in sets]
        for t in sets:
            assert block_scores(t, sc) == _score_loop(t, sc), d


def test_missing_pair_names_first_in_block_order():
    sc = random_coefficients(5, seed=730)
    full = reference_tables(sc).tables
    # constrained_pairs() lists the pairs in the order the blocks read them
    for missing in itertools.combinations(constrained_pairs(), 2):
        t = CorrelationTables(5, {p: a for p, a in full.items() if p not in missing})
        first = rf"no table for setting pair \({missing[0][0]}, {missing[0][1]}\)$"
        for score in (block_scores, _score_loop):
            with pytest.raises(CoverageError, match=first):
                score(t, sc)


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
        for b in blocks(sc):
            for value in _correlators(t, b):
                assert abs(value) <= b.mass + 1e-9


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
    wrap = _score(sc, 1, primed=True)
    assert wrap.pair == (3, 0)
    assert abs(wrap.alpha - (-30 / np.sqrt(353))) < 1e-13
    assert abs(wrap.residual) < 1e-12
