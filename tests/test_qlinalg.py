"""Tests of the small dense linear-algebra helpers of `selftesting.extraction`."""

from __future__ import annotations

import numpy as np
import pytest

from selftesting.errors import HermiticityError, NormalizationError
from selftesting.extraction import dagger, pure_fidelity, sign_unitarize


def test_dagger():
    a = np.array([[1.0, 2.0j], [3.0, 4.0]])
    assert np.array_equal(dagger(a), a.conj().T)


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
