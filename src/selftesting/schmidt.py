"""Schmidt coefficients and the block table derived from them.

A target state is described by its Schmidt coefficients ``c_0 .. c_{d-1}``,
all strictly inside (0, 1) with squares summing to one. The self-test is a
table of 2x2 blocks (:func:`blocks`), one tilted-CHSH sub-test each, in two
overlapping families of ``floor(d/2)`` blocks:

* unprimed block m pairs outcomes ``(2m, 2m+1)`` and uses first-party
  settings (0, 1) and second-party settings (0, 1); when d is odd the last
  outcome ``d-1`` is left over as the family's corner.
* primed block m pairs outcomes ``(2m+1, (2m+2) mod d)`` and uses
  first-party settings (0, 2) and second-party settings (2, 3); for even d
  the last primed block wraps around to pair ``(d-1, 0)``, while for odd d
  the corner outcome 0 is left over.

Every outcome is covered by the union of the two families, which is what
lets the flip chain walk the full ladder of outcomes. A corner outcome
keeps its computational projector in every setting of its family.

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

import numpy as np

from .errors import (
    AngleRangeError,
    CoefficientRangeError,
    DimensionError,
    NormalizationError,
)

__all__ = [
    "SchmidtCoefficients",
    "Block",
    "blocks",
    "pairs",
    "corner",
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

    Coefficients are kept exactly as given (no sorting, no renormalizing).
    Construction fails if d < 2, any coefficient leaves the open interval
    (0, 1), or the squares do not sum to 1 within ``NORMALIZATION_TOL``.
    """

    c: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.c, dtype=float).reshape(-1)
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


def pairs(d: int, primed: bool) -> list[tuple[int, int]]:
    """Outcome pairs (lo, hi) of one family's blocks, in block order m.

    Unprimed: ``(2m, 2m+1)``. Primed: ``(2m+1, (2m+2) mod d)``, so for even
    d the last pair wraps around to (d-1, 0).
    """
    if d < 2:
        raise DimensionError(f"d must be at least 2, got {d}")
    first = int(primed)
    return [(2 * m + first, (2 * m + first + 1) % d) for m in range(d // 2)]


def corner(d: int, primed: bool) -> int | None:
    """The outcome no block of the family covers: d-1 unprimed and 0 primed
    for odd d, none for even d."""
    if d % 2 == 0:
        return None
    return 0 if primed else d - 1


@dataclass(frozen=True)
class Block:
    """One 2x2 tilted-CHSH sub-test of the self-test.

    The block pairs outcomes ``(lo, hi)``; ``xs`` and ``ys`` are the two
    first-party and two second-party settings its functional reads, the
    first of each being the block's Z-like setting. ``theta``, ``mu`` and
    ``alpha`` are its angles and ``mass = c_lo^2 + c_hi^2`` its weight in
    the target state.
    """

    primed: bool
    m: int
    lo: int
    hi: int
    xs: tuple[int, int]
    ys: tuple[int, int]
    theta: float
    mu: float
    alpha: float
    mass: float

    @property
    def pair(self) -> tuple[int, int]:
        return (self.lo, self.hi)


def _block_angles(lo: float, hi: float) -> tuple[float, float, float]:
    theta = float(np.arctan2(hi, lo))
    sin2t = float(np.sin(2 * theta))
    mu = float(np.arctan(sin2t))
    alpha = float(2 * np.cos(2 * theta) / np.sqrt(1 + sin2t * sin2t))
    if not (0.0 < theta < np.pi / 2 and 0.0 < mu < np.pi / 2):
        raise AngleRangeError(f"block angles left (0, pi/2): theta={theta}, mu={mu}")
    return theta, mu, alpha


def blocks(sc: SchmidtCoefficients) -> tuple[Block, ...]:
    """Every block of both families, unprimed first, each in order m."""
    c = sc.c
    return tuple(
        Block(
            primed, m, lo, hi, *SETTINGS[primed],
            *_block_angles(c[lo], c[hi]),
            mass=float(c[lo] ** 2 + c[hi] ** 2),
        )
        for primed in (False, True)
        for m, (lo, hi) in enumerate(pairs(sc.d, primed))
    )


@dataclass(frozen=True)
class AngleSchedule:
    """Per-block angles for both block families, as arrays over m.

    A view of :func:`blocks`: unprimed and primed families both have
    ``floor(d/2)`` blocks. theta and mu sit in (0, pi/2), alpha in (-2, 2)
    with the sign of cos(2 theta).
    """

    d: int
    theta: np.ndarray
    mu: np.ndarray
    alpha: np.ndarray
    theta_primed: np.ndarray
    mu_primed: np.ndarray
    alpha_primed: np.ndarray

    @property
    def n_blocks(self) -> int:
        return self.d // 2


def angles(sc: SchmidtCoefficients) -> AngleSchedule:
    """Angle schedule derived from the coefficient vector."""
    table = blocks(sc)

    def column(name: str, primed: bool) -> np.ndarray:
        return np.array([getattr(b, name) for b in table if b.primed == primed], dtype=float)

    return AngleSchedule(
        d=sc.d,
        theta=column("theta", False),
        mu=column("mu", False),
        alpha=column("alpha", False),
        theta_primed=column("theta", True),
        mu_primed=column("mu", True),
        alpha_primed=column("alpha", True),
    )


def target_state(sc: SchmidtCoefficients) -> np.ndarray:
    """The diagonal two-party state sum_i c_i |ii> as a flat d*d vector.

    No renormalization is applied; the norm inherits whatever residue the
    coefficient normalization check admitted.
    """
    d = sc.d
    state = np.zeros(d * d, dtype=complex)
    state[np.arange(d) * d + np.arange(d)] = sc.c
    return state
