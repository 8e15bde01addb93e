"""Per-block tilted-CHSH scores read off correlation tables.

Each block, unprimed or primed, supports a two-setting/two-setting
sub-experiment. Writing A0, A1 for the first party's block observables and
B0, B1 for the second party's, the block functional is

    beta = alpha <A0> + <A0 B0> + <A0 B1> + <A1 B0> - <A1 B1>

with the block's tilt alpha. Its quantum maximum over everything living on
the block is ``sqrt(8 + 2 alpha^2)`` times the block's state mass, and the
ideal tables meet that bound exactly on every block; the classical
(deterministic) bound is ``(2 + |alpha|) * mass``.

Setting use per family:

* unprimed block m: A settings (0, 1), B settings (0, 1), outcomes
  (2m, 2m+1);
* primed block m: A settings (0, 2), B settings (2, 3), outcomes
  (2m+1, (2m+2) mod d).

Marginals ``<A0>`` are taken as full row sums of the relevant table, so
off-block weight (absent in ideal tables, present in noisy ones) is
accounted for rather than silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlations import CorrelationTables
from .schmidt import AngleSchedule, SchmidtCoefficients, angles, primed_pairs, unprimed_pairs

__all__ = [
    "BlockCorrelators",
    "BlockScore",
    "block_correlators",
    "block_violation",
    "block_scores",
]


@dataclass(frozen=True)
class BlockCorrelators:
    """Raw two-outcome correlators of one block."""

    m: int
    primed: bool
    a0: float
    a0b0: float
    a0b1: float
    a1b0: float
    a1b1: float


@dataclass(frozen=True)
class BlockScore:
    """Tilted-CHSH evaluation of one block against its exact maximum."""

    m: int
    primed: bool
    pair: tuple[int, int]
    mass: float
    alpha: float
    beta: float
    target: float
    correlators: BlockCorrelators

    @property
    def residual(self) -> float:
        return self.beta - self.target


def _pair_correlator(tab: np.ndarray, lo: int, hi: int) -> float:
    return float(tab[lo, lo] - tab[lo, hi] - tab[hi, lo] + tab[hi, hi])


def block_correlators(
    t: CorrelationTables, d: int, m: int, *, primed: bool = False
) -> BlockCorrelators:
    """Correlators and first-party marginal of block m from the tables."""
    if primed:
        lo, hi = primed_pairs(d)[m]
        xs, ys = (0, 2), (2, 3)
    else:
        lo, hi = unprimed_pairs(d)[m]
        xs, ys = (0, 1), (0, 1)
    t00 = t.table(xs[0], ys[0])
    t01 = t.table(xs[0], ys[1])
    t10 = t.table(xs[1], ys[0])
    t11 = t.table(xs[1], ys[1])
    marginal = float(t00[lo, :].sum() - t00[hi, :].sum())
    return BlockCorrelators(
        m=m,
        primed=primed,
        a0=marginal,
        a0b0=_pair_correlator(t00, lo, hi),
        a0b1=_pair_correlator(t01, lo, hi),
        a1b0=_pair_correlator(t10, lo, hi),
        a1b1=_pair_correlator(t11, lo, hi),
    )


def _block_score(
    t: CorrelationTables, sc: SchmidtCoefficients, sched: AngleSchedule, m: int, primed: bool
) -> BlockScore:
    if primed:
        lo, hi = primed_pairs(sc.d)[m]
        alpha = float(sched.alpha_primed[m])
    else:
        lo, hi = unprimed_pairs(sc.d)[m]
        alpha = float(sched.alpha[m])
    corr = block_correlators(t, sc.d, m, primed=primed)
    beta = alpha * corr.a0 + corr.a0b0 + corr.a0b1 + corr.a1b0 - corr.a1b1
    mass = float(sc.c[lo] ** 2 + sc.c[hi] ** 2)
    target = float(np.sqrt(8.0 + 2.0 * alpha * alpha) * mass)
    return BlockScore(
        m=m,
        primed=primed,
        pair=(lo, hi),
        mass=mass,
        alpha=alpha,
        beta=float(beta),
        target=target,
        correlators=corr,
    )


def block_violation(
    t: CorrelationTables, sc: SchmidtCoefficients, m: int, *, primed: bool = False
) -> BlockScore:
    """Score block m of the tables against its exact quantum maximum."""
    return _block_score(t, sc, angles(sc), m, primed)


def block_scores(t: CorrelationTables, sc: SchmidtCoefficients) -> list[BlockScore]:
    """Scores for every block of both families, unprimed first."""
    sched = angles(sc)
    n = sc.d // 2
    out = [_block_score(t, sc, sched, m, False) for m in range(n)]
    out += [_block_score(t, sc, sched, m, True) for m in range(n)]
    return out
