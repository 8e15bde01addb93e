"""Ideal reference realization: state plus projective measurements.

The two parties measure a shared d-level pair. Settings and outcome
conventions:

* First party (3 settings): setting 0 is the computational basis; setting 1
  measures the two-level flip observable on every unprimed block; setting 2
  does the same on every primed block. Within a block the +1 eigenvector is
  assigned to the block's first outcome label and the -1 eigenvector to the
  second. Leftover corner outcomes keep their computational projector.
* Second party (4 settings): settings 0 and 1 measure the tilted observables
  ``cos(mu) Z +/- sin(mu) X`` on the unprimed blocks, settings 2 and 3 the
  primed analogues with the primed tilt angles. Same outcome convention.

All projectors are rank one except corner cases, and each measurement's
projectors sum to the identity exactly by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, HermiticityError, NormalizationError
from .schmidt import (
    AngleSchedule,
    SchmidtCoefficients,
    angles,
    primed_pairs,
    target_state,
    unprimed_pairs,
)

__all__ = [
    "Measurement",
    "Realization",
    "ideal_alice",
    "ideal_bob",
    "ideal_realization",
]

MEASUREMENT_TOL = 1e-10


@dataclass(frozen=True)
class Measurement:
    """A projective measurement as a stack of projectors.

    ``projectors[k]`` is the (possibly zero) projector of outcome k; the
    stack has shape (n_outcomes, dim, dim).
    """

    projectors: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.projectors, dtype=complex)
        if p.ndim != 3 or p.shape[1] != p.shape[2]:
            raise ValueError(f"projector stack must be (n, dim, dim), got {p.shape}")
        object.__setattr__(self, "projectors", p)

    @property
    def n_outcomes(self) -> int:
        return int(self.projectors.shape[0])

    @property
    def dim(self) -> int:
        return int(self.projectors.shape[1])

    def validate(self, tol: float = MEASUREMENT_TOL) -> None:
        """Check finite, Hermitian, idempotent, mutually orthogonal, complete.

        Products ``P_j P_k`` for k >= j are formed one outcome row at a
        time, as ``P_j`` against the stack ``[P_j, ..., P_{n-1}]`` laid side
        by side; the first failing pair in (j, k) order is reported.
        """
        p = self.projectors
        if not np.all(np.isfinite(p)):
            raise ValueError("projectors contain non-finite entries")
        herm = np.max(np.abs(p - np.conj(np.transpose(p, (0, 2, 1)))))
        if herm > tol:
            raise HermiticityError(f"projector asymmetry {herm:.3e} > {tol:.0e}")
        n, dim = self.n_outcomes, self.dim
        right = p.transpose(1, 0, 2).reshape(dim, n * dim)
        worst = np.zeros((n, n))
        for j in range(n):
            row = (p[j] @ right[:, j * dim :]).reshape(dim, n - j, dim)
            row[:, 0] -= p[j]
            worst[j, j:] = np.max(np.abs(row), axis=(0, 2))
        bad = np.argwhere(worst > tol)
        if bad.size:
            j, k = bad[0]
            if j == k:
                raise ValueError(f"outcome {j} projector not idempotent ({worst[j, j]:.3e})")
            raise ValueError(f"outcomes {j},{k} projectors overlap ({worst[j, k]:.3e})")
        comp = np.max(np.abs(p.sum(axis=0) - np.eye(self.dim)))
        if comp > tol:
            raise ValueError(f"projectors sum off identity by {comp:.3e}")


@dataclass(frozen=True)
class Realization:
    """A concrete state and measurement assignment for both parties.

    `state` is a flat vector on the product space, index ``i * dim_b + j``.
    `alice` holds 3 measurements on the first factor, `bob` 4 on the second,
    all with the same number of outcomes.
    """

    dim_a: int
    dim_b: int
    state: np.ndarray
    alice: tuple[Measurement, ...]
    bob: tuple[Measurement, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "state", np.asarray(self.state, dtype=complex).reshape(-1))

    @property
    def n_outcomes(self) -> int:
        return self.alice[0].n_outcomes

    def state_matrix(self) -> np.ndarray:
        """The state as a dim_a x dim_b coefficient matrix."""
        return self.state.reshape(self.dim_a, self.dim_b)

    def validate(self, tol: float = MEASUREMENT_TOL) -> None:
        if self.dim_a < 2 or self.dim_b < 2:
            raise DimensionError(
                f"local dimensions must be at least 2, got {self.dim_a}, {self.dim_b}"
            )
        if self.state.size != self.dim_a * self.dim_b:
            raise ValueError(
                f"state length {self.state.size} != dim_a*dim_b = {self.dim_a * self.dim_b}"
            )
        if not np.all(np.isfinite(self.state.view(float))):
            raise ValueError("state contains non-finite entries")
        norm_sq = float(np.real(np.vdot(self.state, self.state)))
        if abs(norm_sq - 1.0) > tol:
            raise NormalizationError(f"state squared norm {norm_sq!r} off 1 beyond {tol:.0e}")
        if len(self.alice) != 3 or len(self.bob) != 4:
            raise ValueError(
                f"need 3 first-party and 4 second-party settings, "
                f"got {len(self.alice)}, {len(self.bob)}"
            )
        n = self.n_outcomes
        for label, group, dim in (("alice", self.alice, self.dim_a), ("bob", self.bob, self.dim_b)):
            for x, meas in enumerate(group):
                if meas.dim != dim:
                    raise DimensionError(f"{label} setting {x} acts on dim {meas.dim} != {dim}")
                if meas.n_outcomes != n:
                    raise ValueError(
                        f"{label} setting {x} has {meas.n_outcomes} outcomes, expected {n}"
                    )
                meas.validate(tol)


def _rank_one(dim: int, vec: np.ndarray) -> np.ndarray:
    return np.outer(vec, vec.conj())


def _basis(dim: int, i: int) -> np.ndarray:
    e = np.zeros(dim, dtype=complex)
    e[i] = 1.0
    return e


def _block_flip_measurement(d: int, pairs: list[tuple[int, int]], corner: int | None) -> Measurement:
    """Flip-observable eigenbasis on each block: outcomes (lo, hi) get the
    (+1, -1) eigenvectors (e_lo +/- e_hi)/sqrt(2)."""
    p = np.zeros((d, d, d), dtype=complex)
    for lo, hi in pairs:
        plus = (_basis(d, lo) + _basis(d, hi)) / np.sqrt(2)
        minus = (_basis(d, lo) - _basis(d, hi)) / np.sqrt(2)
        p[lo] = _rank_one(d, plus)
        p[hi] = _rank_one(d, minus)
    if corner is not None:
        p[corner] = _rank_one(d, _basis(d, corner))
    return Measurement(p)


def _tilted_measurement(
    d: int, pairs: list[tuple[int, int]], mus: np.ndarray, sign: float, corner: int | None
) -> Measurement:
    """Eigenbasis of cos(mu) Z + sign * sin(mu) X on each block.

    Outcome lo gets the +1 eigenvector cos(mu/2) e_lo + sign sin(mu/2) e_hi,
    outcome hi the orthogonal -1 eigenvector.
    """
    p = np.zeros((d, d, d), dtype=complex)
    for (lo, hi), mu in zip(pairs, mus):
        ch, sh = np.cos(mu / 2), np.sin(mu / 2)
        plus = ch * _basis(d, lo) + sign * sh * _basis(d, hi)
        minus = -sign * sh * _basis(d, lo) + ch * _basis(d, hi)
        p[lo] = _rank_one(d, plus)
        p[hi] = _rank_one(d, minus)
    if corner is not None:
        p[corner] = _rank_one(d, _basis(d, corner))
    return Measurement(p)


def ideal_alice(sc: SchmidtCoefficients) -> tuple[Measurement, ...]:
    """The first party's three ideal measurements."""
    d = sc.d
    computational = Measurement(
        np.stack([_rank_one(d, _basis(d, i)) for i in range(d)])
    )
    unprimed_corner = d - 1 if d % 2 else None
    primed_corner = 0 if d % 2 else None
    return (
        computational,
        _block_flip_measurement(d, unprimed_pairs(d), unprimed_corner),
        _block_flip_measurement(d, primed_pairs(d), primed_corner),
    )


def ideal_bob(sc: SchmidtCoefficients, schedule: AngleSchedule | None = None) -> tuple[Measurement, ...]:
    """The second party's four ideal tilted measurements."""
    d = sc.d
    sched = angles(sc) if schedule is None else schedule
    unprimed_corner = d - 1 if d % 2 else None
    primed_corner = 0 if d % 2 else None
    unp = unprimed_pairs(d)
    pri = primed_pairs(d)
    return (
        _tilted_measurement(d, unp, sched.mu, +1.0, unprimed_corner),
        _tilted_measurement(d, unp, sched.mu, -1.0, unprimed_corner),
        _tilted_measurement(d, pri, sched.mu_primed, +1.0, primed_corner),
        _tilted_measurement(d, pri, sched.mu_primed, -1.0, primed_corner),
    )


def ideal_realization(sc: SchmidtCoefficients) -> Realization:
    """Target state plus ideal measurements on both sides."""
    d = sc.d
    r = Realization(
        dim_a=d,
        dim_b=d,
        state=target_state(sc),
        alice=ideal_alice(sc),
        bob=ideal_bob(sc),
    )
    return r
