"""Adversarial harness: dimension embedding and finite-shot sampling.

Both tools manufacture realizations or data that look less tidy than the
ideal ones while provably carrying the same correlations, which is exactly
what the certification pipeline is supposed to see through.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlations import (
    ALICE_SETTINGS,
    BOB_SETTINGS,
    CorrelationTables,
    compute_tables,
)
from .ideal import Measurement, Realization

__all__ = [
    "EmbeddingSpec",
    "SampleResult",
    "embed_realization",
    "sample_tables",
    "haar_unitary",
]


@dataclass(frozen=True)
class EmbeddingSpec:
    """How to hide a realization inside a larger space.

    ``extra_a`` and ``extra_b`` unused dimensions are appended on the
    respective sides; `seed` selects the pair of local rotations applied
    afterwards. ``seed=None`` keeps both rotations at the identity, so
    pure padding can be tested for exact table preservation.
    """

    extra_a: int = 0
    extra_b: int = 0
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.extra_a < 0 or self.extra_b < 0:
            raise ValueError("extra dimensions must be non-negative")
        if self.extra_a > 32 or self.extra_b > 32:
            raise ValueError("at most 32 extra dimensions per side")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary from a QR factorization.

    A complex Gaussian matrix is orthonormalized and the R factor's
    diagonal phases folded back in, which removes the QR gauge and makes
    the distribution rotation invariant.
    """
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def _pad_projectors(stack: np.ndarray, extra: int) -> np.ndarray:
    """Zero-pad every projector; outcome 0 absorbs the new dimensions."""
    n, dim, _ = stack.shape
    out = np.zeros((n, dim + extra, dim + extra), dtype=complex)
    out[:, :dim, :dim] = stack
    out[0, dim:, dim:] = np.eye(extra)
    return out


def embed_realization(r: Realization, spec: EmbeddingSpec) -> Realization:
    """Pad a realization into a larger space and rotate it locally.

    The state picks up zero amplitudes on the new dimensions; each
    measurement keeps its outcome structure, with outcome 0's projector
    absorbing the new dimensions so completeness survives. Local unitaries
    (one per side, drawn from sub-streams 0 and 1 of `spec.seed`) then
    scramble the embedding. Correlation tables are exactly invariant under
    all of this.
    """
    dim_a = r.dim_a + spec.extra_a
    dim_b = r.dim_b + spec.extra_b
    if spec.seed is None:
        u_a = np.eye(dim_a, dtype=complex)
        u_b = np.eye(dim_b, dtype=complex)
    else:
        u_a = haar_unitary(dim_a, np.random.default_rng(np.random.SeedSequence((spec.seed, 0))))
        u_b = haar_unitary(dim_b, np.random.default_rng(np.random.SeedSequence((spec.seed, 1))))

    mat = np.zeros((dim_a, dim_b), dtype=complex)
    mat[: r.dim_a, : r.dim_b] = r.state_matrix()
    mat = u_a @ mat @ u_b.T

    def conjugate(stack: np.ndarray, u: np.ndarray, extra: int) -> Measurement:
        return Measurement(u @ _pad_projectors(stack, extra) @ u.conj().T)

    alice = tuple(conjugate(m.projectors, u_a, spec.extra_a) for m in r.alice)
    bob = tuple(conjugate(m.projectors, u_b, spec.extra_b) for m in r.bob)
    return Realization(dim_a=dim_a, dim_b=dim_b, state=mat.reshape(-1), alice=alice, bob=bob)


@dataclass(frozen=True)
class SampleResult:
    """Finite-shot estimate of a realization's tables.

    Estimated entries are empirical frequencies (integer counts over
    ``shots_per_pair``). ``stderr_max`` is the largest binomial standard
    error ``sqrt(p (1 - p) / shots)`` over all exact entries, a uniform
    scale for judging deviations.
    """

    seed: int
    shots_per_pair: int
    estimated: CorrelationTables
    stderr_max: float


def sample_tables(r: Realization, shots: int, seed: int) -> SampleResult:
    """Simulate finite statistics for every setting pair.

    Each pair draws one multinomial with `shots` trials from its exact
    outcome distribution, on an independent PCG64 sub-stream seeded with
    ``(seed, x, y)`` so pairs are reproducible in isolation and the result
    does not depend on iteration order.
    """
    if shots < 1:
        raise ValueError(f"shots must be positive, got {shots}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    exact = compute_tables(r)
    estimated: dict[tuple[int, int], np.ndarray] = {}
    stderr_max = 0.0
    for x in range(ALICE_SETTINGS):
        for y in range(BOB_SETTINGS):
            tab = exact.tables[(x, y)]
            stderr_max = max(stderr_max, float(np.max(np.sqrt(np.clip(tab * (1 - tab), 0, None) / shots))))
            p = np.clip(tab, 0, None).reshape(-1)
            rng = np.random.default_rng(np.random.SeedSequence((seed, x, y)))
            counts = rng.multinomial(shots, p / p.sum())
            estimated[(x, y)] = counts.reshape(tab.shape) / shots
    return SampleResult(
        seed=seed,
        shots_per_pair=shots,
        estimated=CorrelationTables(d=exact.d, tables=estimated),
        stderr_max=stderr_max,
    )
