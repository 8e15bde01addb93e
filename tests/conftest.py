from __future__ import annotations

import os
from pathlib import Path

import numpy as np

import selftesting
from selftesting import SchmidtCoefficients
from selftesting.harness import haar_unitary


def package_env() -> dict[str, str]:
    """The environment for a subprocess that must import this same package:
    its source directory goes first on PYTHONPATH."""
    src = str(Path(selftesting.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def random_coefficients(d: int, seed: int) -> SchmidtCoefficients:
    """Seeded coefficient vector, strictly inside (0, 1), unsorted."""
    rng = np.random.default_rng(seed)
    c = rng.uniform(0.2, 1.0, size=d)
    return SchmidtCoefficients(c / np.linalg.norm(c))


def random_ranges(n: int, dim: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Orthonormal bases of n mutually orthogonal subspaces spanning C^dim.

    Each subspace gets at least one column of a Haar unitary and the
    remaining dim - n columns go to random owners, so ranks vary.
    """
    u = haar_unitary(dim, rng)
    owner = np.concatenate([np.arange(n), rng.integers(0, n, dim - n)])
    return [u[:, owner == k] for k in range(n)]


def projector_stack(ranges: list[np.ndarray]) -> np.ndarray:
    """Projectors onto the given orthonormal bases, one per outcome."""
    return np.stack([v @ v.conj().T for v in ranges])
