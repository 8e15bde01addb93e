"""Correlation tables: computing, predicting, and verifying them.

A table set holds one d x d matrix per setting pair (x, y), entry [a][b]
being P(a, b | x, y). Twelve pairs exist; eight of them are constrained by
the self-test and are the ones :func:`reference_tables` emits: the pairs of
one family's settings carry that family's blocks and corner (see
:func:`selftesting.schmidt.blocks`). The remaining four pairs are
intentionally unconstrained: they may hold anything a device produces, and
the verifier ignores them.

:func:`compute_tables` and :func:`reference_tables` are two independent
routes to the same numbers for an ideal realization. The first applies the
Born rule to a concrete state and projectors; the second evaluates the
closed-form block entries from the coefficients alone. Keeping both routes
separate is what makes the equivalence test meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CoverageError, DimensionError, HermiticityError
from .ideal import Realization
from .schmidt import SETTINGS, SchmidtCoefficients, blocks, corner, pairs

__all__ = [
    "CorrelationTables",
    "VerificationReport",
    "compute_tables",
    "reference_tables",
    "verify_tables",
    "no_signaling_check",
    "constrained_pairs",
    "ALICE_SETTINGS",
    "BOB_SETTINGS",
]

ALICE_SETTINGS = 3
BOB_SETTINGS = 4

IMAG_TOL = 1e-10


def constrained_pairs() -> list[tuple[int, int]]:
    """Setting pairs the self-test pins down: unprimed family first, each in
    row-major order."""
    return [(x, y) for xs, ys in SETTINGS.values() for x in xs for y in ys]


@dataclass
class CorrelationTables:
    """Collection of per-pair outcome distributions.

    Absent pairs mean "no statement", not "all zeros"; consumers that need
    a pair must go through :meth:`table` so absence raises
    :class:`CoverageError`. Every entry must be finite (``ValueError``
    otherwise): a NaN compares false against every tolerance, so it would
    pass any check made on it.
    """

    d: int
    tables: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean: dict[tuple[int, int], np.ndarray] = {}
        for key, tab in self.tables.items():
            x, y = int(key[0]), int(key[1])
            if not (0 <= x < ALICE_SETTINGS and 0 <= y < BOB_SETTINGS):
                raise ValueError(f"setting pair {key} out of range")
            arr = np.asarray(tab, dtype=float)
            if arr.shape != (self.d, self.d):
                raise ValueError(
                    f"table {key} has shape {arr.shape}, expected {(self.d, self.d)}"
                )
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"table {key} contains non-finite entries")
            clean[(x, y)] = arr
        self.tables = clean

    def has(self, x: int, y: int) -> bool:
        return (x, y) in self.tables

    def table(self, x: int, y: int) -> np.ndarray:
        try:
            return self.tables[(x, y)]
        except KeyError:
            raise CoverageError(f"no table for setting pair ({x}, {y})") from None

    def pairs(self) -> list[tuple[int, int]]:
        return sorted(self.tables)

    def require_d(self, d: int) -> None:
        """Raise :class:`DimensionError` unless these tables have `d` outcomes."""
        if self.d != d:
            raise DimensionError(f"tables have d = {self.d}, but the coefficients give d = {d}")


def compute_tables(r: Realization) -> CorrelationTables:
    """Born-rule tables of a realization, for all 12 setting pairs.

    Entry [a][b] is ``<psi| P^x_a (x) Q^y_b |psi>``. With the state as its
    coefficient matrix ``m`` this is ``sum_{i,l} (P^x_a m)[i,l] (m* Q^y_b)[i,l]``,
    so each table is one matrix product: the stack ``P^x m`` of the first
    party's setting x, flattened to one row per outcome, against the stack
    ``m* Q^y`` of the second party's setting y. The imaginary residue of
    each entry must stay below 1e-10 (projector stacks are Hermitian, so
    anything larger signals corrupted inputs).
    """
    m = r.state_matrix()
    left = [(r.alice[x].projectors @ m).reshape(-1, m.size) for x in range(ALICE_SETTINGS)]
    right = [(m.conj() @ r.bob[y].projectors).reshape(-1, m.size) for y in range(BOB_SETTINGS)]
    out: dict[tuple[int, int], np.ndarray] = {}
    for x in range(ALICE_SETTINGS):
        for y in range(BOB_SETTINGS):
            tab = left[x] @ right[y].T
            worst = float(np.max(np.abs(tab.imag)))
            if worst > IMAG_TOL:
                raise HermiticityError(
                    f"pair ({x},{y}) has imaginary probability residue {worst:.3e}"
                )
            out[(x, y)] = tab.real.copy()
    return CorrelationTables(d=r.n_outcomes, tables=out)


def _block_2x2(
    x_eff: int, y_eff: int, c_lo: np.ndarray, c_hi: np.ndarray, mu: np.ndarray
) -> np.ndarray:
    """Closed-form 2x2 blocks of the constrained tables, shape (2, 2, n).

    ``c_lo``, ``c_hi`` and ``mu`` hold one entry per block of a family.
    ``x_eff`` and ``y_eff`` index the block's settings ``xs`` and ``ys``:
    ``x_eff`` 0 means the computational-basis setting, 1 the flip setting;
    ``y_eff`` 0 means tilt ``+mu``, 1 tilt ``-mu``.

    Squares are taken with ``np.float_power``, libm ``pow`` on every entry,
    so a block's values do not depend on how many blocks are evaluated at
    once: ``**`` squares a scalar with ``pow`` but an array by multiplying,
    and the two differ in the last bit for about one entry in a thousand.
    """
    ch, sh = np.cos(mu / 2), np.sin(mu / 2)
    if x_eff == 0:
        # Same for both tilts: the tilt sign cancels in squared overlaps.
        return np.float_power([[c_lo, c_lo], [c_hi, c_hi]], 2) * np.float_power(
            [[ch, sh], [sh, ch]], 2
        )
    s = 1.0 if y_eff == 0 else -1.0
    return 0.5 * np.float_power(
        [
            [c_lo * ch + s * c_hi * sh, c_hi * ch - s * c_lo * sh],
            [c_lo * ch - s * c_hi * sh, c_hi * ch + s * c_lo * sh],
        ],
        2,
    )


def _block_cells(d: int, primed: bool) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of one family's block entries, each (4, n).

    Rows ``[lo, lo, hi, hi]`` against columns ``[lo, hi, lo, hi]``: the
    entries (lo, lo), (lo, hi), (hi, lo), (hi, hi) of every block, in the
    row-major order of :func:`_block_2x2`.
    """
    lo, hi = np.array(pairs(d, primed)).T
    return np.array([lo, lo, hi, hi]), np.array([lo, hi, lo, hi])


def reference_tables(sc: SchmidtCoefficients) -> CorrelationTables:
    """Closed-form tables for the 8 constrained pairs.

    Each pair of a family's settings is block diagonal over that family's
    blocks, with the family's corner (k, k) carrying its full coefficient
    weight when d is odd. All blocks of a family are evaluated at once and
    written with one index assignment per table.
    """
    d = sc.d
    c = sc.c
    table = blocks(sc)
    out: dict[tuple[int, int], np.ndarray] = {}
    for primed, (xs, ys) in SETTINGS.items():
        rows, cols = _block_cells(d, primed)
        mu = np.array([b.mu for b in table if b.primed == primed])
        top = corner(d, primed)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                tab = np.zeros((d, d))
                tab[rows, cols] = _block_2x2(i, j, c[rows[0]], c[rows[2]], mu).reshape(4, -1)
                if top is not None:
                    tab[top, top] = c[top] ** 2
                out[(x, y)] = tab
    return CorrelationTables(d=d, tables=out)


def no_signaling_check(t: CorrelationTables) -> float:
    """Largest marginal mismatch across the present setting pairs.

    For each first-party setting x, row sums must agree across every y it
    appears with; mirrored for the second party over column sums. Pairs not
    present contribute nothing.
    """
    gaps = [0.0]
    for x in range(ALICE_SETTINGS):
        rows = [t.tables[(x, y)].sum(axis=1) for y in range(BOB_SETTINGS) if t.has(x, y)]
        gaps += [np.max(np.abs(row - rows[0])) for row in rows[1:]]
    for y in range(BOB_SETTINGS):
        cols = [t.tables[(x, y)].sum(axis=0) for x in range(ALICE_SETTINGS) if t.has(x, y)]
        gaps += [np.max(np.abs(col - cols[0])) for col in cols[1:]]
    # np.max, not the builtin: a NaN must propagate, not be dropped.
    return float(np.max(gaps))


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of matching a table set against its reference.

    ``block_residual`` is the worst entrywise deviation on positions the
    reference constrains to block values; ``offblock_mass`` is the worst
    per-pair total probability sitting on positions the reference pins to
    zero; the other residuals cover no-signaling and per-table sum-to-one.
    """

    tol: float
    block_residual: float
    offblock_mass: float
    nosignal_residual: float
    sum_residual: float
    passed: bool


def verify_tables(
    t: CorrelationTables, sc: SchmidtCoefficients, tol: float = 1e-8
) -> VerificationReport:
    """Check a table set against the closed-form reference.

    Every constrained pair must be present in `t` (else
    :class:`CoverageError`); pairs beyond the constrained eight are
    ignored for the entrywise match but still participate in the
    no-signaling and sum-to-one checks. Tables of another d than `sc`
    raise :class:`DimensionError`.
    """
    t.require_d(sc.d)
    ref = reference_tables(sc)
    gaps: list[float] = []
    masses: list[float] = []
    for primed, (xs, ys) in SETTINGS.items():
        mask = _constrained_mask(sc.d, primed)
        for x in xs:
            for y in ys:
                got = t.table(x, y)
                gaps.append(np.max(np.abs((got - ref.tables[(x, y)])[mask])))
                masses.append(np.sum(np.abs(got[~mask])))
    # Fold with numpy, which propagates a NaN that the builtin max would drop.
    block_res, off_mass = float(np.max(gaps)), float(np.max(masses))
    ns = no_signaling_check(t)
    sum_res = float(np.max([abs(t.tables[pair].sum() - 1.0) for pair in t.pairs()]))
    passed = block_res <= tol and off_mass <= tol and ns <= tol and sum_res <= tol
    return VerificationReport(
        tol=tol,
        block_residual=block_res,
        offblock_mass=off_mass,
        nosignal_residual=ns,
        sum_residual=sum_res,
        passed=passed,
    )


def _constrained_mask(d: int, primed: bool) -> np.ndarray:
    """Boolean mask of positions carrying block (or corner) weight."""
    mask = np.zeros((d, d), dtype=bool)
    mask[_block_cells(d, primed)] = True
    top = corner(d, primed)
    if top is not None:
        mask[top, top] = True
    return mask
