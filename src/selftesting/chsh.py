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
:func:`selftesting.correlations.reference_tables` writes, all eight
constrained tables in one gather.

Marginals ``<A0>`` are taken as full row sums of the relevant table, so
off-block weight (absent in ideal tables, present in noisy ones) is
accounted for rather than silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlations import CorrelationTables, _block_cells, _constrained_tables
from .schmidt import SchmidtCoefficients, blocks

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
    got = _constrained_tables(t)
    rows, cols = _block_cells(table)
    family = np.arange(2)[:, None, None]
    # Family by cell by block by table, then the four correlators, each
    # family by block.
    cells = got[family, :, rows, cols]
    e00, e01, e10, e11 = np.moveaxis(cells[:, 0] - cells[:, 1] - cells[:, 2] + cells[:, 3], -1, 0)
    # Row sums of each family's first table, each the pairwise sum of one
    # C-ordered row, read at the rows lo and hi of every block.
    lo, hi = got[:, 0].sum(axis=-1)[family, rows[:, ::2]].swapaxes(0, 1)
    alpha, mass = table.alpha, table.mass
    beta = (alpha.reshape(2, -1) * (lo - hi) + e00 + e01 + e10 - e11).ravel()
    target = np.sqrt(8.0 + 2.0 * alpha * alpha) * mass
    columns = (table.m, table.primed, table.pair, mass, alpha, beta, target)
    return [
        BlockScore(m, primed, tuple(pair), *values)
        for m, primed, pair, *values in zip(*(a.tolist() for a in columns))
    ]
