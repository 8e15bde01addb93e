"""Schmidt coefficients and the block table derived from them.

A target state is described by its Schmidt coefficients ``c_0 .. c_{d-1}``,
all strictly inside (0, 1) with squares summing to one. The self-test is a
table of 2x2 blocks (:func:`blocks`), one tilted-CHSH sub-test each, in two
overlapping families of ``floor(d/2)`` blocks:

* unprimed block m pairs outcomes ``(2m, 2m+1)`` and uses first-party
  settings (0, 1) and second-party settings (0, 1); when d is odd no
  unprimed block holds the last outcome ``d-1``.
* primed block m pairs outcomes ``(2m+1, (2m+2) mod d)`` and uses
  first-party settings (0, 2) and second-party settings (2, 3); for even d
  the last primed block wraps around to pair ``(d-1, 0)``, while for odd d
  no primed block holds outcome 0.

Every outcome is held by some block of the union of the two families,
which is what lets the flip chain walk the full ladder of outcomes. An
outcome that no block of a setting holds keeps its computational
projector in that setting, and its full weight ``c_k^2`` in the tables.

Each block carries its mass ``c_lo^2 + c_hi^2`` and three derived angles.
With ``theta = arctan(c_hi / c_lo)`` for the block's ordered pair (lo, hi):

* ``theta`` fixes the block's internal weight ratio,
* ``mu = arctan(sin 2 theta)`` sets the measurement tilt used on the
  second party,
* ``alpha = 2 cos(2 theta) / sqrt(1 + sin^2(2 theta))`` is the tilt of the
  block's tilted-CHSH functional. It carries the sign of ``cos 2 theta``:
  blocks whose second coefficient exceeds the first get a negative tilt,
  which is the relabeled mirror of the positive-tilt functional and keeps
  the maximal-score identity ``beta = sqrt(8 + 2 alpha^2) * mass`` exact
  for every block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    AngleRangeError,
    CoefficientRangeError,
    DimensionError,
    NormalizationError,
)

__all__ = [
    "SchmidtCoefficients",
    "BlockTable",
    "blocks",
    "SETTINGS",
    "AngleSchedule",
    "angles",
    "target_state",
]

#: Allowed deviation of sum(c_i^2) from 1; no silent renormalization.
NORMALIZATION_TOL = 1e-10

#: First- and second-party settings of each family, keyed by ``primed``.
SETTINGS = {False: ((0, 1), (0, 1)), True: ((0, 2), (2, 3))}


@dataclass(frozen=True)
class SchmidtCoefficients:
    """Validated Schmidt coefficient vector.

    Coefficients are kept exactly as given (no sorting, no renormalizing),
    in a read-only float64 copy of the caller's values, so neither ``c`` nor
    the block table derived from it can change after construction.
    Coefficients must be real numbers: a complex coefficient with a zero
    imaginary part is taken as its real part, while a nonzero imaginary
    part, or strings, bools or objects, raise :class:`CoefficientRangeError`
    naming the first such coefficient or the dtype. Construction also fails
    if d < 2, any coefficient leaves the open interval (0, 1), or the
    squares do not sum to 1 within ``NORMALIZATION_TOL``.
    """

    c: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.c)
        if c.dtype.kind not in "iufc":
            raise CoefficientRangeError(f"coefficients must be real numbers, got dtype {c.dtype}")
        if c.dtype.kind == "c":
            imag = np.flatnonzero(c.imag)
            if imag.size:
                raise CoefficientRangeError(f"coefficient {imag[0]} has a nonzero imaginary part")
            c = c.real
        c = np.array(c, dtype=float).reshape(-1)
        c.flags.writeable = False
        object.__setattr__(self, "c", c)
        if c.size < 2:
            raise DimensionError(f"need at least 2 coefficients, got {c.size}")
        if not np.all(np.isfinite(c)):
            raise CoefficientRangeError("coefficients must be finite")
        if np.any(c <= 0.0) or np.any(c >= 1.0):
            raise CoefficientRangeError(
                "every coefficient must lie strictly inside (0, 1); "
                "a zero coefficient means a lower Schmidt rank state"
            )
        total = float(np.sum(c * c))
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise NormalizationError(
                f"sum of squared coefficients is {total!r}, "
                f"off from 1 beyond {NORMALIZATION_TOL:.0e}"
            )

    @property
    def d(self) -> int:
        return int(self.c.size)

    @cached_property
    def _blocks(self) -> BlockTable:
        c, d = self.c, self.d
        primed = np.repeat([False, True], d // 2)
        m = np.tile(np.arange(d // 2), 2)
        lo = 2 * m + primed
        pair = np.stack((lo, (lo + 1) % d), axis=1)
        xs, ys = np.repeat(list(SETTINGS.values()), d // 2, axis=0).swapaxes(0, 1)
        # One scalar evaluation per block, each block's values independent
        # of how many blocks there are.
        rows = [(*_block_angles(c_lo, c_hi), c_lo**2 + c_hi**2) for c_lo, c_hi in c[pair]]
        theta, mu, alpha, mass = np.array(rows).T.copy()
        inside = (0.0 < theta) & (theta < np.pi / 2) & (0.0 < mu) & (mu < np.pi / 2)
        if not inside.all():
            k = np.argmin(inside)
            lo, hi = pair[k]
            raise AngleRangeError(
                f"block (m, primed) = ({m[k]}, {primed[k]}) on pair ({lo}, {hi}), c_lo/c_hi = "
                f"{c[lo] / c[hi]:.3e}: angles left (0, pi/2): theta={theta[k]}, mu={mu[k]}"
            )
        return BlockTable(primed, m, pair, xs, ys, theta, mu, alpha, mass)


@dataclass(frozen=True, eq=False)
class BlockTable:
    """Every 2x2 tilted-CHSH sub-test of the self-test, as read-only columns.

    Row i is one block, unprimed first, each family in order m. ``primed``,
    ``m``, ``theta``, ``mu``, ``alpha`` and ``mass`` have shape (n,);
    ``pair``, ``xs`` and ``ys`` shape (n, 2). Block i pairs the outcomes
    ``pair[i] = (lo, hi)``; ``xs[i]`` and ``ys[i]`` are the two first-party
    and two second-party settings its functional reads, the first of each
    being the block's Z-like setting. ``theta``, ``mu`` and ``alpha`` are
    its angles and ``mass = c_lo^2 + c_hi^2`` its weight in the target
    state. ``len`` is the number of blocks; ``==`` is identity.
    """

    primed: np.ndarray
    m: np.ndarray
    pair: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    theta: np.ndarray
    mu: np.ndarray
    alpha: np.ndarray
    mass: np.ndarray

    def __post_init__(self) -> None:
        for column in vars(self).values():
            column.flags.writeable = False

    def __len__(self) -> int:
        return len(self.m)


def _block_angles(lo: float, hi: float) -> tuple[float, float, float]:
    theta = float(np.arctan2(hi, lo))
    sin2t = float(np.sin(2 * theta))
    mu = float(np.arctan(sin2t))
    alpha = float(2 * np.cos(2 * theta) / np.sqrt(1 + sin2t * sin2t))
    return theta, mu, alpha


def blocks(sc: SchmidtCoefficients) -> BlockTable:
    """Every block of both families, unprimed first, each in order m.

    The table is computed on the first call and kept on `sc`: every later
    call returns the same object.
    """
    return sc._blocks


@dataclass(frozen=True)
class AngleSchedule:
    """Per-block angles for both block families, as arrays over m.

    A view of :func:`blocks`: each array is a read-only view of one family's
    half of a table column, and both families have ``floor(d/2)`` blocks.
    theta and mu sit in (0, pi/2), alpha in (-2, 2) with the sign of
    cos(2 theta).
    """

    d: int
    theta: np.ndarray
    mu: np.ndarray
    alpha: np.ndarray
    theta_primed: np.ndarray
    mu_primed: np.ndarray
    alpha_primed: np.ndarray


def angles(sc: SchmidtCoefficients) -> AngleSchedule:
    """Angle schedule derived from the coefficient vector."""
    table = blocks(sc)
    (theta, theta_primed), (mu, mu_primed), (alpha, alpha_primed) = (
        column.reshape(2, -1) for column in (table.theta, table.mu, table.alpha)
    )
    return AngleSchedule(sc.d, theta, mu, alpha, theta_primed, mu_primed, alpha_primed)


def target_state(sc: SchmidtCoefficients) -> np.ndarray:
    """The diagonal two-party state sum_i c_i |ii> as a flat real d*d vector.

    No renormalization is applied; the norm inherits whatever residue the
    coefficient normalization check admitted.
    """
    d = sc.d
    state = np.zeros(d * d)
    state[np.arange(d) * d + np.arange(d)] = sc.c
    return state
