from __future__ import annotations

import numpy as np
import pytest

from selftesting.errors import (
    HermiticityError,
    NormalizationError,
    RankError,
)
from selftesting.qlinalg import (
    SIGMA_X,
    SIGMA_Z,
    dagger,
    hermitian_eig,
    projector_onto_range,
    pure_fidelity,
    sign_unitarize,
)


def test_dagger():
    a = np.array([[1.0, 2.0j], [3.0, 4.0]])
    assert np.array_equal(dagger(a), a.conj().T)


def test_hermitian_eig_reconstruction_and_phase():
    rng = np.random.default_rng(1)
    g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = g + dagger(g)
    w, v = hermitian_eig(h)
    assert np.all(np.diff(w) >= 0)
    assert np.allclose(v @ np.diag(w) @ dagger(v), h, atol=1e-12)
    for col in v.T:
        lead = col[np.abs(col) > 1e-12][0]
        assert abs(lead.imag) < 1e-12 and lead.real > 0


def test_hermitian_eig_tilted_qubit():
    mu = np.arctan(0.8)
    h = np.cos(mu) * SIGMA_Z + np.sin(mu) * SIGMA_X
    w, v = hermitian_eig(h)
    assert np.allclose(w, [-1.0, 1.0], atol=1e-12)
    plus = v[:, 1]
    assert np.allclose(plus, [np.cos(mu / 2), np.sin(mu / 2)], atol=1e-12)
    assert np.allclose(plus, [0.94363, 0.33101], atol=1e-5)


def test_hermitian_eig_large_dimension():
    rng = np.random.default_rng(7)
    g = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    h = (g + dagger(g)) / np.linalg.norm(g, 2)
    w, v = hermitian_eig(h)
    assert np.allclose(v @ np.diag(w) @ dagger(v), h, atol=1e-12)


def test_hermitian_eig_rejects_nonhermitian():
    with pytest.raises(HermiticityError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_sign_unitarize():
    h = np.diag([2.0, 0.0, -3.0])
    u = sign_unitarize(h)
    assert np.allclose(u, np.diag([1.0, 1.0, -1.0]))
    # result is always a Hermitian involution
    rng = np.random.default_rng(2)
    g = rng.standard_normal((4, 4))
    u = sign_unitarize(g + g.T)
    assert np.allclose(u @ u, np.eye(4), atol=1e-12)
    assert np.allclose(u, dagger(u), atol=1e-12)


def test_projector_onto_range():
    v = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
    p = projector_onto_range(np.outer(v, v) * 0.3)
    assert np.allclose(p, np.outer(v, v), atol=1e-12)
    assert np.allclose(p @ p, p, atol=1e-12)


def test_projector_onto_range_ambiguous_rank():
    with pytest.raises(RankError):
        projector_onto_range(np.diag([1.0, 5e-8, 0.0]))


def test_pure_fidelity_half():
    target = np.array([1.0, 0.0])
    rho = np.eye(2) / 2
    assert abs(pure_fidelity(rho, target) - 0.5) < 1e-14
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    assert abs(pure_fidelity(np.diag([0.64, 0.36]), plus) - 0.5) < 1e-14


def test_pure_fidelity_gates():
    target = np.array([1.0, 0.0])
    with pytest.raises(NormalizationError):
        pure_fidelity(np.eye(2), target)
    with pytest.raises(HermiticityError):
        pure_fidelity(np.array([[0.5, 0.5], [0.0, 0.5]]), target)


def test_pauli_constants():
    assert np.array_equal(SIGMA_Z, np.diag([1.0, -1.0]))
    assert np.array_equal(SIGMA_X, np.array([[0.0, 1.0], [1.0, 0.0]]))
