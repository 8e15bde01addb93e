from __future__ import annotations

import re

import numpy as np
import pytest

from conftest import random_coefficients
from selftesting import (
    EmbeddingSpec,
    SchmidtCoefficients,
    compute_tables,
    embed_realization,
    ideal_realization,
    sample_tables,
)
from selftesting.harness import haar_unitary


def test_embedding_spec_rejects_negative_padding():
    with pytest.raises(ValueError):
        EmbeddingSpec(extra_a=-1)
    with pytest.raises(ValueError):
        EmbeddingSpec(extra_b=33)
    EmbeddingSpec(extra_a=32, extra_b=32)


def test_embedding_spec_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed"):
        EmbeddingSpec(extra_a=1, extra_b=0, seed=-1)
    EmbeddingSpec(seed=0)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"extra_a": 1.5}, "extra_a"),
        ({"extra_a": True}, "extra_a"),
        ({"extra_b": np.float64(2.0)}, "extra_b"),
        ({"seed": "3"}, "seed"),
        ({"seed": False}, "seed"),
    ],
    ids=["float", "bool", "numpy-float", "string-seed", "bool-seed"],
)
def test_embedding_spec_rejects_non_integers(kwargs, name):
    # 1.5 and True constructed and then failed inside numpy in
    # embed_realization; "3" raised "'<' not supported"
    value = next(iter(kwargs.values()))
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {re.escape(repr(value))}$"):
        EmbeddingSpec(**kwargs)


def test_embedding_spec_accepts_numpy_integers():
    r = ideal_realization(SchmidtCoefficients(np.array([0.8, 0.6])))
    got = embed_realization(r, EmbeddingSpec(np.int64(2), np.int32(1), np.uint8(7)))
    want = embed_realization(r, EmbeddingSpec(2, 1, 7))
    assert np.array_equal(got.proj_a, want.proj_a) and np.array_equal(got.state, want.state)


@pytest.mark.parametrize(
    "shots, seed, message",
    [
        (True, 0, r"^shots must be an integer, got True$"),
        (10, 1.5, r"^seed must be an integer, got 1\.5$"),
        (10, True, r"^seed must be an integer, got True$"),
    ],
    ids=["bool-shots", "float-seed", "bool-seed"],
)
def test_sample_tables_rejects_non_integers(shots, seed, message):
    # True drew one shot and reported shots_per_pair=True; 1.5 raised
    # numpy's "seed must be integer"
    r = ideal_realization(SchmidtCoefficients(np.array([0.8, 0.6])))
    with pytest.raises(ValueError, match=message):
        sample_tables(r, shots, seed)


def test_sample_tables_rejects_negative_seed():
    r = ideal_realization(SchmidtCoefficients(np.array([0.8, 0.6])))
    with pytest.raises(ValueError, match="seed"):
        sample_tables(r, 10, -1)


@pytest.mark.parametrize(
    "shots, message",
    [
        (0, r"^shots must lie between 1 and 2\*\*63 - 1, got 0$"),
        (2**63, rf"^shots must lie between 1 and 2\*\*63 - 1, got {2**63}$"),
        (10.5, r"^shots must be an integer, got 10\.5$"),
    ],
    ids=["zero", "beyond-int64", "non-integer"],
)
def test_sample_tables_rejects_shots_out_of_range(shots, message):
    # 2**63 raised OverflowError from Generator.multinomial; 10.5 drew 10
    # shots and divided the counts by 10.5, so the tables summed to 0.952
    r = ideal_realization(SchmidtCoefficients(np.array([0.8, 0.6])))
    with pytest.raises(ValueError, match=message):
        sample_tables(r, shots, 0)


def test_sample_tables_accepts_numpy_integer_shots():
    r = ideal_realization(SchmidtCoefficients(np.array([0.8, 0.6])))
    got, want = sample_tables(r, np.int64(10), 0), sample_tables(r, 10, 0)
    assert np.array_equal(got.estimated.values, want.estimated.values)


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(19)
    for dim in (2, 3, 7):
        u = haar_unitary(dim, rng)
        assert np.allclose(u @ u.conj().T, np.eye(dim), atol=1e-12)


def test_haar_unitary_seed_determinism():
    a = haar_unitary(4, np.random.default_rng(20))
    b = haar_unitary(4, np.random.default_rng(20))
    assert np.array_equal(a, b)
    c = haar_unitary(4, np.random.default_rng(21))
    assert not np.allclose(a, c)


def test_zero_embedding_is_exact():
    # no padding and identity rotations cannot move a single bit of the
    # state or the projectors; the embedded party is held as stacks, whose
    # tables are those of their rounded bases, a rounding error away
    sc = random_coefficients(3, seed=22)
    r = ideal_realization(sc)
    emb = embed_realization(r, EmbeddingSpec(extra_a=0, extra_b=0, seed=None))
    assert np.array_equal(emb.state, r.state)
    assert np.array_equal(emb.proj_a, r.proj_a) and np.array_equal(emb.proj_b, r.proj_b)
    t0 = compute_tables(r)
    t1 = compute_tables(emb)
    for pair in t0.pairs():
        assert np.max(np.abs(t0.table(*pair) - t1.table(*pair))) <= 4 * np.finfo(float).eps


def test_padding_without_rotation_preserves_tables():
    sc = random_coefficients(3, seed=22)
    r = ideal_realization(sc)
    emb = embed_realization(r, EmbeddingSpec(extra_a=2, extra_b=1, seed=None))
    emb.validate()
    assert emb.dim_a == 5 and emb.dim_b == 4
    t0 = compute_tables(r)
    t1 = compute_tables(emb)
    for pair in t0.pairs():
        assert np.max(np.abs(t0.table(*pair) - t1.table(*pair))) < 1e-14


def test_rotated_embedding_preserves_tables():
    for d in (2, 4):
        sc = random_coefficients(d, seed=23 + d)
        r = ideal_realization(sc)
        for seed in (1, 2, 3):
            emb = embed_realization(r, EmbeddingSpec(extra_a=3, extra_b=2, seed=seed))
            emb.validate()
            t0 = compute_tables(r)
            t1 = compute_tables(emb)
            worst = max(
                np.max(np.abs(t0.table(*p) - t1.table(*p))) for p in t0.pairs()
            )
            assert worst < 1e-12


def test_embedding_seeds_differ():
    sc = random_coefficients(2, seed=24)
    r = ideal_realization(sc)
    e1 = embed_realization(r, EmbeddingSpec(extra_a=1, extra_b=1, seed=1))
    e2 = embed_realization(r, EmbeddingSpec(extra_a=1, extra_b=1, seed=2))
    assert not np.allclose(e1.state, e2.state)


def test_zero_padding_keeps_outcome_count():
    sc = random_coefficients(2, seed=25)
    r = ideal_realization(sc)
    emb = embed_realization(r, EmbeddingSpec(extra_a=2, extra_b=2, seed=7))
    assert emb.n_outcomes == 2
    for meas in (*emb.alice, *emb.bob):
        assert meas.projectors.shape == (2, 4, 4)


def test_sampling_reproducible_and_seed_sensitive():
    sc = random_coefficients(2, seed=26)
    r = ideal_realization(sc)
    a = sample_tables(r, shots=1000, seed=5)
    b = sample_tables(r, shots=1000, seed=5)
    for pair in a.estimated.pairs():
        assert np.array_equal(a.estimated.table(*pair), b.estimated.table(*pair))
    c = sample_tables(r, shots=1000, seed=6)
    different = any(
        not np.array_equal(a.estimated.table(*p), c.estimated.table(*p))
        for p in a.estimated.pairs()
    )
    assert different


def test_sampling_tables_are_distributions():
    sc = random_coefficients(3, seed=27)
    r = ideal_realization(sc)
    res = sample_tables(r, shots=500, seed=8)
    assert res.shots_per_pair == 500
    for pair in res.estimated.pairs():
        tab = res.estimated.table(*pair)
        assert np.all(tab >= 0.0)
        assert abs(tab.sum() - 1.0) < 1e-12
        # every entry is a multiple of 1/shots
        assert np.allclose(tab * 500, np.round(tab * 500), atol=1e-9)


def test_stderr_quarter_shots_halves_exactly():
    sc = SchmidtCoefficients(np.array([1.0, 1.0]) / np.sqrt(2))
    r = ideal_realization(sc)
    base = sample_tables(r, shots=10_000, seed=9)
    quad = sample_tables(r, shots=40_000, seed=9)
    assert base.stderr_max / quad.stderr_max == 2.0


def test_stderr_from_exact_probabilities():
    sc = SchmidtCoefficients(np.array([0.8, 0.6]))
    r = ideal_realization(sc)
    res = sample_tables(r, shots=100, seed=10)
    exact = compute_tables(r)
    worst = max(
        float(np.max(np.sqrt(exact.table(*p) * (1 - exact.table(*p)) / 100)))
        for p in exact.pairs()
    )
    assert abs(res.stderr_max - worst) < 1e-15


def test_single_shot_runs():
    sc = random_coefficients(2, seed=28)
    r = ideal_realization(sc)
    res = sample_tables(r, shots=1, seed=11)
    for pair in res.estimated.pairs():
        assert abs(res.estimated.table(*pair).sum() - 1.0) < 1e-12
