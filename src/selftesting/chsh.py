"""Per-block tilted-CHSH scores read off correlation tables.

Each block, unprimed or primed, supports a two-setting/two-setting
sub-experiment. Writing A0, A1 for the first party's block observables and
B0, B1 for the second party's, the block functional is

    beta = alpha <A0> + <A0 B0> + <A0 B1> + <A1 B0> - <A1 B1>

with the block's tilt alpha. Its quantum maximum over everything living on
the block is ``sqrt(8 + 2 alpha^2)`` times the block's state mass, and the
ideal tables meet that bound exactly on every block; the classical
(deterministic) bound is ``(2 + |alpha|) * mass``.

A correlator ``<Ai Bj>`` is ``P(lo,lo) - P(lo,hi) - P(hi,lo) + P(hi,hi)``
on the block's outcome pair (lo, hi) in the table of settings
``(xs[i], ys[j])``, as listed by :func:`selftesting.schmidt.blocks`. Each
family's four tables are read at the same block cells that
:func:`selftesting.correlations.reference_tables` writes.

Marginals ``<A0>`` are taken as full row sums of the relevant table, so
off-block weight (absent in ideal tables, present in noisy ones) is
accounted for rather than silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlations import CorrelationTables, _block_cells
from .schmidt import SETTINGS, SchmidtCoefficients, blocks

__all__ = ["BlockScore", "block_scores"]


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

    @property
    def residual(self) -> float:
        return self.beta - self.target


def block_scores(t: CorrelationTables, sc: SchmidtCoefficients) -> list[BlockScore]:
    """Scores for every block of both families, in :func:`blocks` order.

    Tables of another d than `sc` raise :class:`DimensionError`, and a
    missing constrained pair raises :class:`CoverageError` naming the first
    one in block order.
    """
    t.require_d(sc.d)
    table = blocks(sc)
    scores: list[BlockScore] = []
    for primed, (xs, ys) in SETTINGS.items():
        family = [b for b in table if b.primed == primed]
        rows, cols = _block_cells(sc.d, primed)
        tabs = [t.table(x, y) for x in xs for y in ys]
        cells = np.stack(tabs)[:, rows, cols]
        e00, e01, e10, e11 = cells[:, 0] - cells[:, 1] - cells[:, 2] + cells[:, 3]
        # Summed from gathered (C-ordered) rows, so each is the pairwise sum
        # of one row whatever the memory layout of the table.
        lo, hi = tabs[0][rows[::2]].sum(axis=-1)
        alpha = np.array([b.alpha for b in family])
        mass = np.array([b.mass for b in family])
        beta = alpha * (lo - hi) + e00 + e01 + e10 - e11
        target = np.sqrt(8.0 + 2.0 * alpha * alpha) * mass
        scores += [
            BlockScore(b.m, b.primed, b.pair, b.mass, b.alpha, float(bv), float(tv))
            for b, bv, tv in zip(family, beta, target)
        ]
    return scores
