"""Adversarial harness: dimension embedding and finite-shot sampling.

Both tools manufacture realizations or data that look less tidy than the
ideal ones while provably carrying the same correlations, which is exactly
what the certification pipeline is supposed to see through.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlations import CorrelationTables, compute_tables
from .ideal import Realization, basis_projectors, is_int

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
    pure padding can be tested for exact table preservation. Each field is
    a Python or numpy integer, not a bool (`seed` may also be None);
    anything else is a ``ValueError`` that names the field.
    """

    extra_a: int = 0
    extra_b: int = 0
    seed: int | None = None

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not (is_int(value) or (name == "seed" and value is None)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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


def embed_realization(r: Realization, spec: EmbeddingSpec) -> Realization:
    """Pad a realization into a larger space and rotate it locally.

    The state picks up zero amplitudes on the new dimensions; each setting's
    basis is padded with the new unit vectors, all labelled outcome 0, so
    each measurement keeps its outcome structure and outcome 0's projector
    absorbs the new dimensions. Local unitaries (one per side, drawn from
    sub-streams 0 and 1 of `spec.seed`) then rotate the state and multiply
    into the bases. Correlation tables are exactly invariant under all of
    this. A party given as projector stacks is padded as its rounded bases
    (:func:`selftesting.ideal.round_ladder`).

    The result holds the projectors of the rotated bases as its stacks, not
    the bases: an embedded party is dense and extraction reads its
    projectors, so keeping both would hold half as much again at two
    outcomes.
    """
    dim_a = r.dim_a + spec.extra_a
    dim_b = r.dim_b + spec.extra_b
    if spec.seed is None:
        u_a, u_b = np.eye(dim_a), np.eye(dim_b)
    else:
        u_a = haar_unitary(dim_a, np.random.default_rng(np.random.SeedSequence((spec.seed, 0))))
        u_b = haar_unitary(dim_b, np.random.default_rng(np.random.SeedSequence((spec.seed, 1))))

    def party(basis: np.ndarray, labels: np.ndarray, u: np.ndarray) -> np.ndarray:
        settings, dim, _ = basis.shape
        padded = np.zeros((settings, len(u), len(u)), dtype=basis.dtype)
        padded[:, :dim, :dim] = basis
        padded[:, dim:, dim:] = np.eye(len(u) - dim)
        labels = np.pad(labels, ((0, 0), (0, len(u) - dim)))
        return basis_projectors(u @ padded, labels, r.n_outcomes)

    mat = np.zeros((dim_a, dim_b), dtype=r.state.dtype)
    mat[: r.dim_a, : r.dim_b] = r.state_matrix()
    mat = u_a @ mat @ u_b.T
    return Realization(
        dim_a=dim_a,
        dim_b=dim_b,
        state=mat.reshape(-1),
        alice=party(r.basis_a, r.labels_a, u_a),
        bob=party(r.basis_b, r.labels_b, u_b),
    )


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
    does not depend on iteration order: the counts of pair (x, y) are
    those of ``default_rng(SeedSequence((seed, x, y))).multinomial(shots,
    p / p.sum())``, with ``p`` the pair's Born table clipped at zero and
    flattened. The Born tables are those :func:`compute_tables` keeps on
    `r`, computed here only if no earlier call did. All pairs are
    normalized at once and their counts written into one array, from
    which :meth:`CorrelationTables.from_values` builds the estimate.
    `shots` and `seed` are Python or numpy integers, not bools; anything
    else is a ``ValueError`` that names the argument.
    """
    # The frequencies divide by `shots`, but the draw truncates it.
    for name, value in (("shots", shots), ("seed", seed)):
        if not is_int(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    # Generator.multinomial counts in int64.
    if not 1 <= shots <= np.iinfo(np.int64).max:
        raise ValueError(f"shots must lie between 1 and 2**63 - 1, got {shots}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    exact = compute_tables(r)
    v, d = exact.values, exact.d
    stderr_max = float(np.max(np.sqrt(np.clip(v * (1 - v), 0, None) / shots)))
    p = np.clip(v, 0, None)
    p = (p / p.sum(axis=(2, 3), keepdims=True)).reshape(*p.shape[:2], d * d)
    counts = np.empty(p.shape, dtype=np.int64)
    for x, y in exact.pairs():
        rng = np.random.default_rng(np.random.SeedSequence((seed, x, y)))
        counts[x, y] = rng.multinomial(shots, p[x, y])
    return SampleResult(
        seed=seed,
        shots_per_pair=shots,
        estimated=CorrelationTables.from_values(counts.reshape(v.shape) / shots, exact.present),
        stderr_max=stderr_max,
    )
