from __future__ import annotations

import numpy as np
import pytest

from conftest import projector_stack, random_coefficients, random_ranges
from selftesting import (
    EmbeddingSpec,
    Measurement,
    Realization,
    SchmidtCoefficients,
    embed_realization,
    ideal_alice,
    ideal_bob,
    ideal_realization,
)
from selftesting.errors import HermiticityError, NormalizationError
from selftesting.ideal import MEASUREMENT_TOL

# cos^2(mu/2) for c=(0.8, 0.6): overlap of Bob's first tilted vector with e_0
BOB_OVERLAP_86 = 0.8606936605154758


def test_measurement_validation_catches_broken_projectors():
    good = Measurement(projectors=np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]))
    good.validate()
    bad = Measurement(projectors=np.stack([np.diag([1.0, 0.0]), np.diag([1.0, 0.0])]))
    with pytest.raises(ValueError):
        bad.validate()


def _validate_loop(meas: Measurement, tol: float = MEASUREMENT_TOL) -> None:
    """Pairwise reference for Measurement.validate: one product per (j, k >= j)."""
    p = meas.projectors
    herm = np.max(np.abs(p - np.conj(np.transpose(p, (0, 2, 1)))))
    if herm > tol:
        raise HermiticityError(f"projector asymmetry {herm:.3e} > {tol:.0e}")
    for j in range(meas.n_outcomes):
        idem = np.max(np.abs(p[j] @ p[j] - p[j]))
        if idem > tol:
            raise ValueError(f"outcome {j} projector not idempotent ({idem:.3e})")
        for k in range(j + 1, meas.n_outcomes):
            cross = np.max(np.abs(p[j] @ p[k]))
            if cross > tol:
                raise ValueError(f"outcomes {j},{k} projectors overlap ({cross:.3e})")
    comp = np.max(np.abs(p.sum(axis=0) - np.eye(meas.dim)))
    if comp > tol:
        raise ValueError(f"projectors sum off identity by {comp:.3e}")


def _verdict(check) -> tuple[type, str] | None:
    try:
        check()
    except (ValueError, HermiticityError) as e:
        return type(e), str(e)
    return None


def _perturbed_stack(seed: int, real: bool = False) -> tuple[str, np.ndarray]:
    """Random projective measurement with one seeded defect of size eps.

    The defect is one of: nothing, a non-Hermitian entry, a scaled
    projector (idempotency), a vector leaning into another outcome's range
    (overlap), or a dropped outcome (completeness). With `real` the bases
    are real orthogonal and the non-Hermitian entry is a real asymmetry,
    so the stack stays real.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    dim = n + int(rng.integers(0, 4))
    ranges = random_ranges(n, dim, rng, real)
    p = projector_stack(ranges)
    kind = ("none", "hermiticity", "idempotency", "overlap", "completeness")[seed % 5]
    eps = 10.0 ** rng.uniform(-12, -3)
    j, k = (int(v) for v in rng.choice(n, size=2, replace=False))
    if kind == "hermiticity":
        p[j, 0, dim - 1] += eps if real else eps * 1j
    elif kind == "idempotency":
        p[j] *= 1 + eps
    elif kind == "overlap":
        a, b = ranges[k][:, 0], ranges[j][:, 0]
        v = (a + eps * b) / np.sqrt(1 + eps * eps)
        p[k] += np.outer(v, v.conj()) - np.outer(a, a.conj())
    elif kind == "completeness":
        p[j] = 0.0
    return kind, p


def _assert_validate_matches_loop(real: bool) -> None:
    first_words = set()
    for seed in range(400):
        kind, stack = _perturbed_stack(seed, real)
        meas = Measurement(stack)
        assert meas.projectors.dtype == (float if real else complex), (seed, kind)
        want = _verdict(lambda: _validate_loop(meas))
        assert _verdict(meas.validate) == want, (seed, kind)
        if want is not None:
            first_words.add(want[1].split()[0])
    # every failure kind was reached: asymmetry, idempotency, overlap, completeness
    assert first_words == {"projector", "outcome", "outcomes", "projectors"}


def test_validate_matches_pairwise_loop():
    _assert_validate_matches_loop(real=False)


def test_validate_matches_pairwise_loop_real():
    # the float64 path is exactly as strict as the complex one
    _assert_validate_matches_loop(real=True)


def _unit_vector(q: np.ndarray) -> np.ndarray:
    """A unit vector spanning the real rank-one projector `q`."""
    i = np.argmax(np.diagonal(q))
    return q[:, i] / np.sqrt(q[i, i])


def _planted_overlap(p: np.ndarray, j: int, k: int, eps: float) -> np.ndarray:
    """Real rank-one stack `p` with outcome k's vector leaned by `eps` into outcome j's."""
    a, b = _unit_vector(p[k]), _unit_vector(p[j])
    v = (a + eps * b) / np.sqrt(1 + eps * eps)
    out = p.copy()
    out[k] = np.outer(v, v)
    return out


def test_validate_reports_overlap_deep_in_stack():
    # a pair far from the diagonal of a long outcome row
    r = ideal_realization(random_coefficients(32, seed=32))
    for meas in r.alice + r.bob:
        bad = Measurement(_planted_overlap(meas.projectors, 3, 30, 1e-9))
        want = _verdict(lambda: _validate_loop(bad))
        assert want is not None and want[1].startswith("outcomes 3,30 projectors overlap")
        assert _verdict(bad.validate) == want


@pytest.mark.parametrize("d", [8, 16, 32])
def test_validate_passes_ideal_and_embedded_many_outcomes(d):
    r = ideal_realization(random_coefficients(d, seed=d))
    hidden = embed_realization(r, EmbeddingSpec(2, 1, 7))
    for meas in r.alice + r.bob + hidden.alice + hidden.bob:
        assert _verdict(meas.validate) is None
        assert _verdict(lambda: _validate_loop(meas)) is None


def test_validate_rejects_nonfinite_projectors():
    stack = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
    stack[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        Measurement(stack).validate()
    stack[0, 0, 0] = 1.0
    stack[1, 0, 1] = complex(0.0, np.inf)
    with pytest.raises(ValueError, match="non-finite"):
        Measurement(stack).validate()


def test_ideal_realization_is_real():
    for d in (2, 3, 5, 32):
        r = ideal_realization(random_coefficients(d, seed=400 + d))
        assert r.state.dtype == np.float64
        for meas in (*r.alice, *r.bob):
            assert meas.projectors.dtype == np.float64


def test_seeded_embedding_is_complex():
    r = embed_realization(
        ideal_realization(random_coefficients(3, seed=404)), EmbeddingSpec(1, 2, seed=7)
    )
    assert r.state.dtype == np.complex128
    for meas in (*r.alice, *r.bob):
        assert meas.projectors.dtype == np.complex128


def test_zero_imaginary_parts_are_stored_real():
    stack = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
    meas = Measurement(stack)
    assert meas.projectors.dtype == np.float64
    assert np.array_equal(meas.projectors, stack.real)
    r = ideal_realization(SchmidtCoefficients(np.array([0.8, 0.6])))
    r = Realization(r.dim_a, r.dim_b, r.state.astype(complex), r.alice, r.bob)
    assert r.state.dtype == np.float64
    r.validate()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_imaginary_parts_stay_complex(bad):
    stack = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
    stack[1, 0, 1] = complex(0.0, bad)
    meas = Measurement(stack)
    assert meas.projectors.dtype == np.complex128
    with pytest.raises(ValueError, match="non-finite"):
        meas.validate()
    r = ideal_realization(SchmidtCoefficients(np.array([0.8, 0.6])))
    state = r.state.astype(complex)
    state[1] = complex(0.0, bad)
    r = Realization(r.dim_a, r.dim_b, state, r.alice, r.bob)
    assert r.state.dtype == np.complex128
    with pytest.raises(ValueError, match="non-finite"):
        r.validate()


def test_ideal_measurements_are_valid_projective():
    for d in range(2, 10):
        sc = random_coefficients(d, seed=100 + d)
        r = ideal_realization(sc)
        r.validate()
        assert len(r.alice) == 3
        assert len(r.bob) == 4
        for meas in (*r.alice, *r.bob):
            assert meas.projectors.shape == (d, d, d)


def test_alice_x0_is_computational():
    sc = random_coefficients(4, seed=1)
    a0 = ideal_alice(sc)[0]
    for k in range(4):
        e = np.zeros(4)
        e[k] = 1.0
        assert np.allclose(a0.projectors[k], np.outer(e, e))


def test_alice_flip_observables():
    # x=1 acts as a flip on every unprimed pair, x=2 on every primed pair
    sc = SchmidtCoefficients(np.array([0.8, 0.4, 0.4, 0.2]))
    a1, a2 = ideal_alice(sc)[1], ideal_alice(sc)[2]
    flip01 = np.zeros((4, 4))
    flip01[0, 1] = flip01[1, 0] = 1.0
    obs = a1.projectors[0] - a1.projectors[1]
    assert np.allclose(obs[:2, :2], flip01[:2, :2])
    # primed wrap block (3, 0)
    obs2 = a2.projectors[3] - a2.projectors[0]
    assert abs(obs2[3, 0] - 1.0) < 1e-14
    assert abs(obs2[0, 3] - 1.0) < 1e-14


def test_alice_corner_outcomes_odd_d():
    # for odd d the leftover outcome keeps its computational projector
    sc = random_coefficients(5, seed=2)
    a1, a2 = ideal_alice(sc)[1], ideal_alice(sc)[2]
    e4 = np.zeros(5)
    e4[4] = 1.0
    assert np.allclose(a1.projectors[4], np.outer(e4, e4))
    e0 = np.zeros(5)
    e0[0] = 1.0
    assert np.allclose(a2.projectors[0], np.outer(e0, e0))


def test_bob_tilt_overlap():
    sc = SchmidtCoefficients(np.array([0.8, 0.6]))
    b0 = ideal_bob(sc)[0]
    e0 = np.zeros(2)
    e0[0] = 1.0
    overlap = float(np.real(e0 @ b0.projectors[0] @ e0))
    assert abs(overlap - BOB_OVERLAP_86) < 1e-14


def test_bob_tilt_signs_mirror():
    # y=0 and y=1 tilt by +mu and -mu: same diagonal, opposite off-diagonal
    sc = random_coefficients(4, seed=3)
    bob = ideal_bob(sc)
    p0, p1 = bob[0].projectors[0], bob[1].projectors[0]
    assert np.allclose(np.diag(p0), np.diag(p1), atol=1e-14)
    off0 = p0 - np.diag(np.diag(p0))
    off1 = p1 - np.diag(np.diag(p1))
    assert np.allclose(off0, -off1, atol=1e-14)


def test_realization_state_is_target():
    sc = random_coefficients(3, seed=5)
    r = ideal_realization(sc)
    assert r.dim_a == 3 and r.dim_b == 3
    assert np.allclose(np.diag(r.state_matrix()), sc.c)


def test_realization_validate_rejects_unnormalized_state():
    sc = random_coefficients(2, seed=6)
    r = ideal_realization(sc)
    broken = type(r)(
        dim_a=r.dim_a,
        dim_b=r.dim_b,
        state=r.state * 1.001,
        alice=r.alice,
        bob=r.bob,
    )
    with pytest.raises(NormalizationError):
        broken.validate()
