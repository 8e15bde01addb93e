"""Acceptance gate: one test and one printed pass/fail line per criterion."""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import random_coefficients
from selftesting import (
    CorrelationTables,
    EmbeddingSpec,
    SchmidtCoefficients,
    block_scores,
    build_criterion_ops,
    check_criterion,
    compute_tables,
    embed_realization,
    ideal_realization,
    measurement_equivalence,
    no_signaling_check,
    reference_tables,
    sample_tables,
    verify_tables,
)
from selftesting.correlations import constrained_pairs, _reference
from selftesting.errors import CoefficientRangeError
from selftesting.extraction import apply_isometry, extraction_report

ALL_D = range(2, 10)
SEEDS_PER_D = 5
MAXIMAL_D2 = SchmidtCoefficients(np.array([1.0, 1.0]) / np.sqrt(2))
D4_CASE = SchmidtCoefficients(np.array([0.8, 0.4, 0.4, 0.2]))


def _cases():
    for d in ALL_D:
        for i in range(SEEDS_PER_D):
            yield random_coefficients(d, seed=1000 * d + i)


def _report(capsys, label: str, ok: bool, elapsed: float) -> None:
    with capsys.disabled():
        print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
    assert ok, label


def test_criterion_1_oracle_equivalence(capsys):
    start = time.perf_counter()
    worst_match = 0.0
    worst_off = 0.0
    for sc in _cases():
        computed = compute_tables(ideal_realization(sc))
        reference = reference_tables(sc)
        for x, y in constrained_pairs():
            got = computed.table(x, y)
            worst_match = max(
                worst_match, float(np.max(np.abs(got - reference.table(x, y))))
            )
            off = got[~_reference(sc)[1][x, y]]
            if off.size:
                worst_off = max(worst_off, float(np.max(np.abs(off))))
    elapsed = time.perf_counter() - start
    ok = worst_match <= 1e-10 and worst_off <= 1e-12 and elapsed < 5.0
    _report(capsys, "criterion 1 oracle equivalence", ok, elapsed)


def test_criterion_2_tilted_chsh_identity(capsys):
    start = time.perf_counter()
    worst = 0.0
    for sc in _cases():
        t = compute_tables(ideal_realization(sc))
        for s in block_scores(t, sc):
            worst = max(worst, abs(s.beta - s.target))

    t = reference_tables(MAXIMAL_D2)
    beta_max = block_scores(t, MAXIMAL_D2)[0].beta
    t4 = reference_tables(D4_CASE)
    scores4 = {(s.primed, s.m): s for s in block_scores(t4, D4_CASE)}
    beta_u = scores4[(False, 0)].beta
    beta_p = scores4[(True, 0)].beta
    elapsed = time.perf_counter() - start
    ok = (
        worst <= 1e-9
        and abs(beta_max - 2 * np.sqrt(2)) <= 1e-10
        and abs(beta_u - 20 / np.sqrt(41) * 0.8) <= 1e-9
        and abs(beta_p - 2 * np.sqrt(2) * 0.32) <= 1e-9
    )
    _report(capsys, "criterion 2 tilted-CHSH identity", ok, elapsed)


def test_criterion_3_criterion_conditions(capsys):
    start = time.perf_counter()
    worst = 0.0
    for sc in _cases():
        r = ideal_realization(sc)
        ops = build_criterion_ops(r, sc)
        rep = check_criterion(ops, r, sc)
        worst = max(
            worst,
            float(np.max(rep.projector_match)),
            float(np.max(rep.chain_map)),
            float(np.max(rep.chain_map_adjoint)),
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    _report(capsys, "criterion 3 chain conditions", ok, elapsed)


def test_criterion_4_extraction_fidelity(capsys):
    start = time.perf_counter()
    worst_fid = 1.0
    worst_overlap = 1.0
    for d in ALL_D:
        for sc in (random_coefficients(d, seed=2000 + d), random_coefficients(d, seed=3000 + d)):
            r = ideal_realization(sc)
            ops = build_criterion_ops(r, sc)
            _, rep = apply_isometry(ops, r, sc)
            worst_fid = min(worst_fid, rep.fidelity)
            worst_overlap = min(worst_overlap, rep.product_overlap)

    r = ideal_realization(MAXIMAL_D2)
    ops = build_criterion_ops(r, MAXIMAL_D2)
    _, rep = apply_isometry(ops, r, MAXIMAL_D2)
    plus = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    singlet_dev = float(np.max(np.abs(rep.rho_ancilla - np.outer(plus, plus))))
    elapsed = time.perf_counter() - start
    ok = (
        worst_fid >= 1 - 1e-9
        and worst_overlap >= 1 - 1e-9
        and rep.fidelity >= 1 - 1e-9
        and singlet_dev <= 1e-9
    )
    _report(capsys, "criterion 4 extraction fidelity", ok, elapsed)


def test_criterion_5_isometry_invariance(capsys):
    start = time.perf_counter()
    ok = True
    combos = [(1, 1), (2, 3), (3, 3)]
    for d in (2, 3, 4, 5):
        sc = random_coefficients(d, seed=4000 + d)
        r = ideal_realization(sc)
        exact = compute_tables(r)
        for seed, (extra_a, extra_b) in zip((1, 2, 3), combos):
            emb = embed_realization(
                r, EmbeddingSpec(extra_a=extra_a, extra_b=extra_b, seed=seed)
            )
            t = compute_tables(emb)
            table_dev = max(
                float(np.max(np.abs(t.table(*p) - exact.table(*p))))
                for p in exact.pairs()
            )
            rep = extraction_report(emb, sc)
            ok = ok and (
                rep.fidelity >= 1 - 1e-6
                and rep.max_criterion_residual() <= 1e-8
                and table_dev <= 1e-10
            )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(capsys, "criterion 5 isometry invariance", ok, elapsed)


def test_criterion_6_measurement_selftesting(capsys):
    start = time.perf_counter()
    worst_ideal = 0.0
    worst_embedded = 0.0
    for d in (2, 3, 4, 5):
        sc = random_coefficients(d, seed=5000 + d)
        r = ideal_realization(sc)
        ops = build_criterion_ops(r, sc)
        worst_ideal = max(
            worst_ideal, max(v.residual for v in measurement_equivalence(ops, r, sc))
        )
        for seed in (1, 2, 3):
            emb = embed_realization(r, EmbeddingSpec(extra_a=2, extra_b=2, seed=seed))
            ops_e = build_criterion_ops(emb, sc)
            worst_embedded = max(
                worst_embedded,
                max(v.residual for v in measurement_equivalence(ops_e, emb, sc)),
            )
    elapsed = time.perf_counter() - start
    ok = worst_ideal <= 1e-8 and worst_embedded <= 1e-7
    _report(capsys, "criterion 6 measurement self-testing", ok, elapsed)


def test_criterion_7_nosignaling_normalization(capsys):
    start = time.perf_counter()
    worst_ns = 0.0
    worst_sum = 0.0
    worst_marginal = 0.0
    for sc in _cases():
        for t in (compute_tables(ideal_realization(sc)), reference_tables(sc)):
            worst_ns = max(worst_ns, no_signaling_check(t))
            for pair in t.pairs():
                worst_sum = max(worst_sum, abs(float(t.table(*pair).sum()) - 1.0))
            for y in range(4):
                if (0, y) in t.pairs():
                    marg = t.table(0, y).sum(axis=1)
                    worst_marginal = max(
                        worst_marginal, float(np.max(np.abs(marg - sc.c**2)))
                    )
    elapsed = time.perf_counter() - start
    ok = worst_ns <= 1e-10 and worst_sum <= 1e-10 and worst_marginal <= 1e-10
    _report(capsys, "criterion 7 no-signaling and normalization", ok, elapsed)


def test_criterion_8_statistical_harness(capsys):
    start = time.perf_counter()
    r = ideal_realization(MAXIMAL_D2)
    exact = compute_tables(r)
    shots = 10**6
    within = 0
    total = 0
    for seed in range(20):
        res = sample_tables(r, shots=shots, seed=seed)
        bound = 5 * res.stderr_max
        for pair in exact.pairs():
            dev = np.abs(res.estimated.table(*pair) - exact.table(*pair))
            within += int(np.sum(dev <= bound))
            total += dev.size
    base = sample_tables(r, shots=shots, seed=0)
    quad = sample_tables(r, shots=4 * shots, seed=0)
    elapsed = time.perf_counter() - start
    ok = within / total >= 0.99 and base.stderr_max == 2.0 * quad.stderr_max
    _report(capsys, "criterion 8 statistical harness", ok, elapsed)


def test_criterion_9_negative_controls(capsys):
    start = time.perf_counter()
    ok = True
    for d in (2, 3):
        sc = random_coefficients(d, seed=6000 + d)
        clean = reference_tables(sc)
        for x, y in constrained_pairs():
            mask = _reference(sc)[1][x, y]
            for a, b in zip(*np.nonzero(mask)):
                tables = {p: clean.table(*p).copy() for p in clean.pairs()}
                tables[(x, y)][a, b] += 1e-3
                rep = verify_tables(CorrelationTables(d=d, tables=tables), sc)
                ok = ok and not rep.passed
                ok = ok and abs(rep.block_residual - 1e-3) <= 1e-4

    rejected = False
    try:
        SchmidtCoefficients(np.array([1.0, 0.0]))
    except CoefficientRangeError:
        rejected = True
    elapsed = time.perf_counter() - start
    ok = ok and rejected
    _report(capsys, "criterion 9 negative controls", ok, elapsed)
