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
``(xs[i], ys[j])``, as listed by :func:`selftesting.schmidt.blocks`. The
cells of every block are read in one gather from the (3, 4, d, d) array
``CorrelationTables.values``, addressed by the block table's columns
``xs``, ``ys`` and ``pair``: the same cells that
:func:`selftesting.correlations.reference_tables` writes.

Marginals ``<A0>`` are taken as full row sums of the relevant table, so
off-block weight (absent in ideal tables, present in noisy ones) is
accounted for rather than silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlations import CorrelationTables
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
    one in :func:`selftesting.correlations.constrained_pairs` order.
    """
    t.require_constrained(sc.d)
    table = blocks(sc)
    v, xs, ys, pair = t.values, table.xs.T, table.ys.T, table.pair.T
    # Indexed [i, j, a, b, block]: cell (a, b) of settings (xs[i], ys[j]).
    cells = v[xs[:, None, None, None], ys[:, None, None], pair[:, None], pair]
    e = cells[:, :, 0, 0] - cells[:, :, 0, 1] - cells[:, :, 1, 0] + cells[:, :, 1, 1]
    # Row sums of each block's first table, each the pairwise sum of one
    # C-ordered row, read at the rows lo and hi of the block.
    lo, hi = v[xs[0], ys[0], pair].sum(axis=-1)
    alpha, mass = table.alpha, table.mass
    beta = alpha * (lo - hi) + e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1]
    target = np.sqrt(8.0 + 2.0 * alpha * alpha) * mass
    columns = (table.m, table.primed, table.pair, mass, alpha, beta, target)
    return [
        BlockScore(m, primed, tuple(pair), *values)
        for m, primed, pair, *values in zip(*(a.tolist() for a in columns))
    ]
