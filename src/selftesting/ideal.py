"""Ideal reference realization: state plus projective measurements.

The two parties measure a shared d-level pair. Each setting measures one
two-level observable on every block of its family (see
:func:`selftesting.schmidt.blocks` for the blocks, their settings and their
corners):

* first party: the block's first setting measures Z (the computational
  basis), its second setting the flip observable X;
* second party: the block's two settings measure the tilted observables
  ``cos(mu) Z + sin(mu) X`` and ``cos(mu) Z - sin(mu) X``.

Within a block the +1 eigenvector is assigned to the block's first outcome
label and the -1 eigenvector to the second. A family's corner outcome keeps
its computational projector. All projectors are rank one, and each
measurement's projectors sum to the identity exactly by construction.

Every ideal projector and the target state are real, so an ideal
realization is stored, and multiplied, as float64 (see :func:`_real_or_complex`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionError, HermiticityError, NormalizationError
from .schmidt import Block, SchmidtCoefficients, blocks, corner, target_state

__all__ = [
    "Measurement",
    "Realization",
    "ideal_realization",
]

MEASUREMENT_TOL = 1e-10


def _real_or_complex(a: np.ndarray) -> np.ndarray:
    """`a` as float64 if no entry has a nonzero imaginary part, else complex128.

    An imaginary part that is NaN or inf counts as nonzero, so such an entry
    stays complex and the finiteness checks still see it. Real data goes
    through the real BLAS paths, about four times cheaper than complex ones.
    """
    a = np.asarray(a)
    if np.iscomplexobj(a):
        if np.any(a.imag != 0):
            return a.astype(complex, copy=False)
        a = a.real
    return np.ascontiguousarray(a, dtype=float)


@dataclass(frozen=True)
class Measurement:
    """A projective measurement as a stack of projectors.

    ``projectors[k]`` is the (possibly zero) projector of outcome k; the
    stack has shape (n_outcomes, dim, dim). It is float64 when no entry has
    a nonzero imaginary part, complex128 otherwise.
    """

    projectors: np.ndarray

    def __post_init__(self) -> None:
        p = _real_or_complex(self.projectors)
        if p.ndim != 3 or p.shape[1] != p.shape[2]:
            raise ValueError(f"projector stack must be (n, dim, dim), got {p.shape}")
        object.__setattr__(self, "projectors", p)

    @property
    def n_outcomes(self) -> int:
        return int(self.projectors.shape[0])

    @property
    def dim(self) -> int:
        return int(self.projectors.shape[1])

    def validate(self) -> None:
        """Check finite, Hermitian, idempotent, mutually orthogonal, complete,
        each within ``MEASUREMENT_TOL``.

        Products ``P_j P_k`` for k >= j are formed one outcome row at a
        time, as ``P_j @ P[j:]``: a stack of ``n - j`` separate
        ``dim x dim`` products, the same per pair as one ``P_j @ P_k``.
        Each product is contiguous, so its largest entry is one reduction
        along its flattened row. The first failing pair in (j, k) order is
        reported.
        """
        p = self.projectors
        if not np.all(np.isfinite(p)):
            raise ValueError("projectors contain non-finite entries")
        herm = np.max(np.abs(p - np.conj(np.transpose(p, (0, 2, 1)))))
        if herm > MEASUREMENT_TOL:
            raise HermiticityError(f"projector asymmetry {herm:.3e} > {MEASUREMENT_TOL:.0e}")
        n = self.n_outcomes
        worst = np.zeros((n, n))
        for j in range(n):
            row = p[j] @ p[j:]
            row[0] -= p[j]
            worst[j, j:] = np.max(np.abs(row).reshape(n - j, -1), axis=1)
        bad = np.argwhere(worst > MEASUREMENT_TOL)
        if bad.size:
            j, k = bad[0]
            if j == k:
                raise ValueError(f"outcome {j} projector not idempotent ({worst[j, j]:.3e})")
            raise ValueError(f"outcomes {j},{k} projectors overlap ({worst[j, k]:.3e})")
        comp = np.max(np.abs(p.sum(axis=0) - np.eye(self.dim)))
        if comp > MEASUREMENT_TOL:
            raise ValueError(f"projectors sum off identity by {comp:.3e}")


@dataclass(frozen=True)
class Realization:
    """A concrete state and measurement assignment for both parties.

    `state` is a flat vector on the product space, index ``i * dim_b + j``,
    float64 when no entry has a nonzero imaginary part, complex128
    otherwise. `alice` holds 3 measurements on the first factor, `bob` 4 on
    the second, all with the same number of outcomes.
    """

    dim_a: int
    dim_b: int
    state: np.ndarray
    alice: tuple[Measurement, ...]
    bob: tuple[Measurement, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "state", _real_or_complex(self.state).reshape(-1))

    @property
    def n_outcomes(self) -> int:
        return self.alice[0].n_outcomes

    def state_matrix(self) -> np.ndarray:
        """The state as a dim_a x dim_b coefficient matrix."""
        return self.state.reshape(self.dim_a, self.dim_b)

    def validate(self) -> None:
        if self.dim_a < 2 or self.dim_b < 2:
            raise DimensionError(
                f"local dimensions must be at least 2, got {self.dim_a}, {self.dim_b}"
            )
        if self.state.size != self.dim_a * self.dim_b:
            raise ValueError(
                f"state length {self.state.size} != dim_a*dim_b = {self.dim_a * self.dim_b}"
            )
        if not np.all(np.isfinite(self.state)):
            raise ValueError("state contains non-finite entries")
        norm_sq = float(np.real(np.vdot(self.state, self.state)))
        if abs(norm_sq - 1.0) > MEASUREMENT_TOL:
            raise NormalizationError(
                f"state squared norm {norm_sq!r} off 1 beyond {MEASUREMENT_TOL:.0e}"
            )
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
                meas.validate()


def _alice_vectors(mu: np.ndarray, i: int) -> np.ndarray:
    """Eigenvectors for outcomes (lo, hi): Z for setting i=0, X for i=1.

    Like every function passed to :func:`_measurements`, returns an
    ``(outcome, coordinate, block)`` array: entry ``[o, k, m]`` is the
    coefficient on block m's k-th basis vector (``e_lo``, then ``e_hi``) of
    the eigenvector for its o-th outcome. The first party's vectors do not
    depend on the tilts ``mu``, so the block axis has length 1.
    """
    if i == 0:
        return np.eye(2)[:, :, None]
    s = 1.0 / np.sqrt(2)
    return np.array([[s, s], [s, -s]])[:, :, None]


def _bob_vectors(mu: np.ndarray, i: int) -> np.ndarray:
    """Eigenvectors of cos(mu) Z + sign * sin(mu) X, sign + for i=0 and - for i=1.

    Outcome lo gets the +1 eigenvector cos(mu/2) e_lo + sign sin(mu/2) e_hi,
    outcome hi the orthogonal -1 eigenvector, as an ``(outcome, coordinate,
    block)`` array over the tilts ``mu`` of a family's blocks.
    """
    sign = 1.0 if i == 0 else -1.0
    ch, sh = np.cos(mu / 2), np.sin(mu / 2)
    return np.array([[ch, sign * sh], [-sign * sh, ch]])


def _measurements(
    d: int,
    table: tuple[Block, ...],
    side: str,
    vectors: Callable[[np.ndarray, int], np.ndarray],
) -> tuple[Measurement, ...]:
    """One party's measurements, in setting order.

    ``side`` names the block field holding the party's settings ("xs" or
    "ys"); the i-th of them measures ``vectors(mu, i)`` on every block of
    the family, plus the family's corner. A setting shared by both
    families (the first party's Z basis) is built from the first.

    Each setting's rank-one projectors are written with one index
    assignment: outcome ``pair[o]`` of every block gets ``u[o, k] u[o, l]``
    at ``(pair[k], pair[l])``. Adding 0.0 turns each -0.0 into 0.0, so a
    saved ideal realization holds no signed zeros.
    """
    out: dict[int, Measurement] = {}
    for primed in (False, True):
        family = [b for b in table if b.primed == primed]
        pair = np.array([b.pair for b in family]).T
        mu = np.array([b.mu for b in family])
        top = corner(d, primed)
        for i, setting in enumerate(getattr(family[0], side)):
            if setting in out:
                continue
            u = vectors(mu, i)
            p = np.zeros((d, d, d))
            p[pair[:, None, None], pair[None, :, None], pair[None, None, :]] = (
                u[:, :, None] * u[:, None, :] + 0.0
            )
            if top is not None:
                p[top, top, top] = 1.0
            out[setting] = Measurement(p)
    return tuple(out[x] for x in sorted(out))


def ideal_realization(sc: SchmidtCoefficients) -> Realization:
    """Target state plus ideal measurements on both sides."""
    table = blocks(sc)
    return Realization(
        dim_a=sc.d,
        dim_b=sc.d,
        state=target_state(sc),
        alice=_measurements(sc.d, table, "xs", _alice_vectors),
        bob=_measurements(sc.d, table, "ys", _bob_vectors),
    )
