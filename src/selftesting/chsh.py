"""Per-block tilted-CHSH scores read off correlation tables.

Each block, unprimed or primed, supports a two-setting/two-setting
sub-experiment. Writing A0, A1 for the first party's block observables and
B0, B1 for the second party's, the block functional is

    beta = alpha <A0> + <A0 B0> + <A0 B1> + <A1 B0> - <A1 B1>

with the block's tilt alpha. Its quantum maximum over everything living on
the block is ``sqrt(8 + 2 alpha^2)`` times the block's state mass, and the
ideal tables meet that bound exactly on every block; the classical
(deterministic) bound is ``(2 + |alpha|) * mass``.

The observables of a block are read from the tables of its settings
``xs`` x ``ys`` on its outcome pair (lo, hi), as listed by
:func:`selftesting.schmidt.blocks`.

Marginals ``<A0>`` are taken as full row sums of the relevant table, so
off-block weight (absent in ideal tables, present in noisy ones) is
accounted for rather than silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlations import CorrelationTables
from .schmidt import Block, SchmidtCoefficients, blocks

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


def block_correlators(t: CorrelationTables, b: Block) -> BlockCorrelators:
    """Correlators and first-party marginal of block `b` from the tables."""
    lo, hi = b.pair
    xs, ys = b.xs, b.ys
    t00 = t.table(xs[0], ys[0])
    t01 = t.table(xs[0], ys[1])
    t10 = t.table(xs[1], ys[0])
    t11 = t.table(xs[1], ys[1])
    marginal = float(t00[lo, :].sum() - t00[hi, :].sum())
    return BlockCorrelators(
        m=b.m,
        primed=b.primed,
        a0=marginal,
        a0b0=_pair_correlator(t00, lo, hi),
        a0b1=_pair_correlator(t01, lo, hi),
        a1b0=_pair_correlator(t10, lo, hi),
        a1b1=_pair_correlator(t11, lo, hi),
    )


def block_violation(t: CorrelationTables, b: Block) -> BlockScore:
    """Score block `b` of the tables against its exact quantum maximum."""
    corr = block_correlators(t, b)
    beta = b.alpha * corr.a0 + corr.a0b0 + corr.a0b1 + corr.a1b0 - corr.a1b1
    return BlockScore(
        m=b.m,
        primed=b.primed,
        pair=b.pair,
        mass=b.mass,
        alpha=b.alpha,
        beta=float(beta),
        target=float(np.sqrt(8.0 + 2.0 * b.alpha * b.alpha) * b.mass),
        correlators=corr,
    )


def block_scores(t: CorrelationTables, sc: SchmidtCoefficients) -> list[BlockScore]:
    """Scores for every block of both families, in :func:`blocks` order.

    Tables of another d than `sc` raise :class:`DimensionError`.
    """
    t.require_d(sc.d)
    return [block_violation(t, b) for b in blocks(sc)]
