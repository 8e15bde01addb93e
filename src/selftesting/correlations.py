"""Correlation tables: computing, predicting, and verifying them.

A table set holds one d x d matrix per setting pair (x, y), entry [a][b]
being P(a, b | x, y). Twelve pairs exist; eight of them are constrained by
the self-test and are the ones :func:`reference_tables` emits: the pairs of
one family's settings carry that family's blocks (see
:func:`selftesting.schmidt.blocks`). The remaining four pairs are
intentionally unconstrained: they may hold anything a device produces, and
the verifier ignores them.

In memory a table set is one read-only, C-ordered float64 array ``values``
of shape (3, 4, d, d), indexed [x, y, a, b], and one read-only (3, 4) bool
array ``present`` naming the pairs given, of which there must be at least
one. An absent pair is zero in ``values`` but means "no statement", not
"all zeros": :meth:`CorrelationTables.table` raises :class:`CoverageError`
for it, and every check masks it out. Every reduction is a sum over axes
of ``values``, so no result depends on the layout of the caller's arrays.
This is the only layout: the constrained tables are addressed through the
block table's columns, block k's cell (a, b) of settings
``(xs[k, i], ys[k, j])`` being ``values[xs[k, i], ys[k, j], pair[k, a],
pair[k, b]]``. An outcome k that no block of a constrained pair holds (for
odd d, one outcome per family) is deterministic there: its one cell is
``(k, k)``, with the full weight ``c_k^2``. Every table set of this package
is built from the two arrays by :meth:`CorrelationTables.from_values`; the
mapping constructor, which files and tests use, assembles them from one
table per pair and then applies the same checks.

:func:`compute_tables` and :func:`reference_tables` are two independent
routes to the same numbers for an ideal realization. The first applies the
Born rule to a concrete state and measurement bases; the second evaluates the
closed-form block entries from the coefficients alone. Keeping both routes
separate is what makes the equivalence test meaningful. The closed form is
evaluated once per coefficient vector: one cached scatter writes the eight
reference tables, in the same (3, 4, d, d) layout, and the mask of their
block cells together, and both :func:`reference_tables` and
:func:`verify_tables` read it. Likewise the Born rule runs once per
realization: :func:`compute_tables` keeps its array on the realization,
where :func:`selftesting.harness.sample_tables` finds it.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import CoverageError, DimensionError
from .ideal import ALICE_SETTINGS, BOB_SETTINGS, Realization, dagger, is_int
from .schmidt import SETTINGS, SchmidtCoefficients, blocks

__all__ = [
    "CorrelationTables",
    "VerificationReport",
    "compute_tables",
    "reference_tables",
    "verify_tables",
    "no_signaling_check",
    "constrained_pairs",
]

def constrained_pairs() -> list[tuple[int, int]]:
    """Setting pairs the self-test pins down: unprimed family first, each in
    row-major order."""
    return [(x, y) for xs, ys in SETTINGS.values() for x in xs for y in ys]


#: The constrained pairs of :func:`constrained_pairs` as two index arrays,
#: in its order.
_CONSTRAINED = tuple(np.array(constrained_pairs()).T)
#: Every setting pair present, as Born-rule and sampled tables have them.
_ALL = np.ones((ALICE_SETTINGS, BOB_SETTINGS), dtype=bool)


@dataclass(eq=False)
class CorrelationTables:
    """Per-pair outcome distributions, held as the module docstring describes.

    `tables` maps setting pairs ``(x, y)`` to d x d tables, which are
    copied. `d` must be an integer >= 2, every key two integers in range,
    every table of shape (d, d), and the mapping must not be empty;
    anything else is a ``ValueError``. A complex table is taken as its
    real part if its imaginary part is zero, and refused otherwise. The
    assembled array then passes the checks of :meth:`from_values`, which
    builds a table set from the array layout directly. ``==`` is identity.
    """

    d: int
    tables: InitVar[Mapping[tuple[int, int], np.ndarray]]
    values: np.ndarray = field(init=False, repr=False)
    present: np.ndarray = field(init=False)

    def __post_init__(self, tables: Mapping[tuple[int, int], np.ndarray]) -> None:
        if not is_int(self.d) or self.d < 2:
            raise ValueError(f"d must be an integer >= 2, got {self.d!r}")
        self.d = d = int(self.d)
        # Checked before anything is allocated, so that the array is never
        # more than 12 times the entries handed in.
        if not tables:
            raise ValueError("a table set needs at least one setting pair")
        for key, tab in tables.items():
            if not (isinstance(key, tuple) and len(key) == 2 and all(map(is_int, key))):
                raise ValueError(f"setting pair {key!r} is not two integers")
            if not (0 <= key[0] < ALICE_SETTINGS and 0 <= key[1] < BOB_SETTINGS):
                raise ValueError(f"setting pair {key} out of range")
            if np.shape(tab) != (d, d):
                raise ValueError(f"table {key} has shape {np.shape(tab)}, expected {(d, d)}")
            if np.iscomplexobj(tab) and np.any(np.imag(tab)):
                raise ValueError(f"table {key} has a nonzero imaginary part")
        values = np.zeros((ALICE_SETTINGS, BOB_SETTINGS, d, d))
        present = np.zeros((ALICE_SETTINGS, BOB_SETTINGS), dtype=bool)
        for (x, y), tab in tables.items():
            values[x, y] = np.real(tab)
            present[x, y] = True
        self._adopt(values, present)

    @classmethod
    def from_values(cls, values: np.ndarray, present: np.ndarray) -> CorrelationTables:
        """A table set from its (3, 4, d, d) array `values` and (3, 4) bool
        array `present`, both copied.

        `values` must have d >= 2, finite entries (a NaN compares false
        against every tolerance, so it would pass any check made on it)
        and, if complex, a zero imaginary part; `present` must name at
        least one pair, and every pair it does not name must be zero in
        `values`. Anything else is a ``ValueError``; one about a table
        names the first such pair in row-major order. The copy of `values`
        is C-ordered float64.
        """
        values, present = np.asarray(values), np.asarray(present)
        shape = (ALICE_SETTINGS, BOB_SETTINGS)
        if values.ndim != 4 or values.shape[:2] != shape or values.shape[2] != values.shape[3]:
            raise ValueError(f"values must have shape (3, 4, d, d), got {values.shape}")
        if values.shape[2] < 2:
            raise ValueError(f"d must be an integer >= 2, got {values.shape[2]}")
        if present.shape != shape or present.dtype != bool:
            raise ValueError(
                f"present must be a (3, 4) bool array, got {present.dtype} of shape {present.shape}"
            )
        t = object.__new__(cls)
        t.d = values.shape[2]
        t._adopt(values, present)
        return t

    def _adopt(self, values: np.ndarray, present: np.ndarray) -> None:
        """Check `values` and `present` as :meth:`from_values` says, then keep
        read-only copies of both and the tuple of present pairs."""
        if not present.any():
            raise ValueError("a table set needs at least one setting pair")
        if np.iscomplexobj(values):
            imag = np.imag(values).any(axis=(2, 3))
            if imag.any():
                raise ValueError(f"table {_first(imag)} has a nonzero imaginary part")
            values = values.real
        self.values = np.array(values, dtype=float, order="C")
        if not np.isfinite(self.values).all():
            raise ValueError(
                f"table {_first(~np.isfinite(self.values).all(axis=(2, 3)))} contains non-finite entries"
            )
        stray = self.values.any(axis=(2, 3)) & ~present
        if stray.any():
            raise ValueError(f"table {_first(stray)} is not present but nonzero")
        self.present = np.array(present)
        self.values.flags.writeable = self.present.flags.writeable = False
        self._pairs = tuple(map(tuple, np.argwhere(present).tolist()))

    def has(self, x: int, y: int) -> bool:
        return (x, y) in self._pairs

    def table(self, x: int, y: int) -> np.ndarray:
        """The read-only table of pair (x, y); :class:`CoverageError` if absent."""
        if (x, y) not in self._pairs:
            raise CoverageError(f"no table for setting pair ({x}, {y})")
        return self.values[x, y]

    def pairs(self) -> list[tuple[int, int]]:
        return list(self._pairs)

    def require_constrained(self, d: int) -> None:
        """Raise :class:`DimensionError` unless these tables have `d`
        outcomes, and :class:`CoverageError` naming the first constrained
        pair, in :func:`constrained_pairs` order, that they lack."""
        if self.d != d:
            raise DimensionError(f"tables have d = {self.d}, but the coefficients give d = {d}")
        given = self.present[_CONSTRAINED]
        if not given.all():
            x, y = constrained_pairs()[int(np.argmin(given))]
            raise CoverageError(f"no table for setting pair ({x}, {y})")


def _first(bad: np.ndarray) -> tuple[int, int]:
    """The first true pair of a (3, 4) bool array, in row-major order."""
    return tuple(np.argwhere(bad)[0].tolist())


def compute_tables(r: Realization) -> CorrelationTables:
    """Born-rule tables of a realization, for all 12 setting pairs.

    Entry [a][b] is ``<psi| P^x_a (x) Q^y_b |psi>``. With each setting as
    an orthonormal basis plus outcome labels (``r.basis_a`` and
    ``r.labels_a``, likewise the second party) and the state as its
    coefficient matrix ``m``, the amplitudes of pair (x, y) on the basis
    columns are ``U_x^dagger m conj(W_y)``: one stacked product for the
    first party's 3 settings, then one for the 12 pairs. Entry [a][b] sums
    the squared moduli of the amplitudes whose columns are labelled a and
    b. For a party given as projector stacks these are the tables of its
    bases as rounded on first use, which match the Born rule on the stacks
    to within their distance from projective ones (see
    :func:`selftesting.ideal.round_ladder`); its stacks must be finite and
    Hermitian, else this raises as :meth:`Realization.validate` does.

    The read-only (3, 4, d, d) array is computed on the first call and kept
    on `r`, as the reference tables are kept on the coefficients: every
    array a realization holds is read-only, so it never goes stale. Each
    call returns a new table set copied from it.
    """
    # `vars`, as in _reference: `r` is frozen.
    born = vars(r).get("_tables")
    if born is None:
        m, n = r.state_matrix(), r.n_outcomes
        amp = (dagger(r.basis_a) @ m)[:, None] @ r.basis_b.conj()
        sq = np.square(amp.real)
        if np.iscomplexobj(amp):
            sq += np.square(amp.imag)
        # Cell of each amplitude in the (3, 4, n, n) tables, flattened.
        cell = np.arange(ALICE_SETTINGS * BOB_SETTINGS).reshape(ALICE_SETTINGS, BOB_SETTINGS, 1, 1)
        cell = (cell * n + r.labels_a[:, None, :, None]) * n + r.labels_b[:, None, :]
        born = np.bincount(cell.ravel(), sq.ravel(), ALICE_SETTINGS * BOB_SETTINGS * n * n)
        born = born.reshape(ALICE_SETTINGS, BOB_SETTINGS, n, n)
        born.flags.writeable = False
        vars(r)["_tables"] = born
    return CorrelationTables.from_values(born, _ALL)


def _block_2x2(c_lo: np.ndarray, c_hi: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Closed-form 2x2 blocks of the constrained tables, indexed
    ``[x_eff, y_eff, a, b]`` and then like the inputs.

    ``c_lo``, ``c_hi`` and ``mu`` hold one entry per block. ``x_eff`` and
    ``y_eff`` index the block's settings ``xs`` and ``ys``: ``x_eff`` 0
    means the computational-basis setting, 1 the flip setting; ``y_eff`` 0
    means tilt ``+mu``, 1 tilt ``-mu``.

    Squares are taken with ``np.float_power``, libm ``pow`` on every entry,
    so a block's values do not depend on how many blocks are evaluated at
    once: ``**`` squares a scalar with ``pow`` but an array by multiplying,
    and the two differ in the last bit for about one entry in a thousand.
    """
    ch, sh = np.cos(mu / 2), np.sin(mu / 2)
    # Same for both tilts: the tilt sign cancels in squared overlaps.
    z = np.float_power([[c_lo, c_lo], [c_hi, c_hi]], 2) * np.float_power([[ch, sh], [sh, ch]], 2)
    x = [
        0.5 * np.float_power(
            [
                [c_lo * ch + s * c_hi * sh, c_hi * ch - s * c_lo * sh],
                [c_lo * ch - s * c_hi * sh, c_hi * ch + s * c_lo * sh],
            ],
            2,
        )
        for s in (1.0, -1.0)
    ]
    return np.array([[z, z], x])


def _reference(sc: SchmidtCoefficients) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The reference tables of `sc` in one read-only (3, 4, d, d) array,
    laid out as ``CorrelationTables.values``, the read-only mask of their
    cells, and the read-only mask of the other cells of the constrained
    pairs (their off-block cells), both of the same shape. The four
    unconstrained pairs are zero and in neither mask.

    One scatter writes the first two: a single index assignment puts block
    k's cell (a, b) of settings ``(xs[k, i], ys[k, j])`` at ``(pair[k, a],
    pair[k, b])`` and marks the same cells in the mask. Then each row k of
    a constrained pair that holds no block cell gets ``c_k^2`` at (k, k),
    and is masked there.
    Computed on the first call and kept on `sc`, as its block table is
    (:func:`selftesting.schmidt.blocks`): `sc` is immutable, so they never
    go stale.
    """
    # `vars`, as functools.cached_property stores its value: `sc` is frozen.
    cached = vars(sc).get("_reference")
    if cached is None:
        d, c, table = sc.d, sc.c, blocks(sc)
        xs, ys, pair = table.xs.T, table.ys.T, table.pair.T
        ref = np.zeros((ALICE_SETTINGS, BOB_SETTINGS, d, d))
        mask = np.zeros(ref.shape, dtype=bool)
        # Indexed [i, j, a, b, block], as _block_2x2 returns the cells.
        at = (xs[:, None, None, None], ys[:, None, None], pair[:, None], pair)
        ref[at] = _block_2x2(*c[pair], table.mu)
        mask[at] = True
        x, y, k = np.nonzero(mask.any(axis=(2, 3))[..., None] & ~mask.any(axis=3))
        ref[x, y, k, k] = np.float_power(c[k], 2)
        mask[x, y, k, k] = True
        off = ~mask & mask.any(axis=(2, 3), keepdims=True)
        ref.flags.writeable = mask.flags.writeable = off.flags.writeable = False
        cached = vars(sc)["_reference"] = (ref, mask, off)
    return cached


def reference_tables(sc: SchmidtCoefficients) -> CorrelationTables:
    """Closed-form tables for the 8 constrained pairs.

    Each pair of a family's settings is block diagonal over that family's
    blocks, and an outcome k that none of them holds carries its full
    coefficient weight at (k, k). The tables are the cached scatter of
    :func:`_reference`, so one closed-form evaluation per coefficient
    vector serves this and :func:`verify_tables`.
    """
    ref, mask, _ = _reference(sc)
    return CorrelationTables.from_values(ref, mask.any(axis=(2, 3)))


def no_signaling_check(t: CorrelationTables) -> float:
    """Largest marginal mismatch across the present setting pairs.

    For each first-party setting x, row sums must agree across every y it
    appears with; mirrored for the second party over column sums. Each
    marginal is compared with that of the first present pair it must match.
    Pairs not present contribute nothing.
    """
    v, present = t.values, t.present
    # Each row marginal against that of the first present y of its x, each
    # column marginal against that of the first present x of its y.
    rows, cols = v.sum(axis=3), v.sum(axis=2)
    row_gap = np.abs(rows - rows[np.arange(ALICE_SETTINGS), present.argmax(axis=1)][:, None])
    col_gap = np.abs(cols - cols[present.argmax(axis=0), np.arange(BOB_SETTINGS)])
    # np.max, not the builtin: a NaN must propagate, not be dropped.
    return float(np.max([
        np.max(gap, where=present[..., None], initial=0.0) for gap in (row_gap, col_gap)
    ]))


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


#: Default tolerance of :func:`verify_tables`, every residual against it.
VERIFY_TOL = 1e-8


def verify_tables(
    t: CorrelationTables, sc: SchmidtCoefficients, tol: float = VERIFY_TOL
) -> VerificationReport:
    """Check a table set against the closed-form reference.

    ``t.values`` is matched cell by cell against the (3, 4, d, d)
    reference of :func:`_reference`: its block cells give the block
    residual, and the other cells of the eight constrained pairs give each
    pair's off-block mass. Every constrained pair must be present in `t`
    (else :class:`CoverageError`); pairs beyond the constrained eight are
    ignored for the entrywise match but still participate in the
    no-signaling and sum-to-one checks. Tables of another d than `sc`
    raise :class:`DimensionError`.
    """
    t.require_constrained(sc.d)
    ref, mask, off = _reference(sc)
    # Fold with numpy, which propagates a NaN that the builtin max would drop.
    block_res = float(np.max(np.abs(t.values - ref)[mask]))
    # Both families leave the same number of off-block cells, and `values`
    # is C-ordered, so each pair's mass is the pairwise sum of its own
    # off-block cells in row-major order.
    off_mass = float(np.max(np.abs(t.values[off]).reshape(8, -1).sum(axis=-1)))
    ns = no_signaling_check(t)
    sum_res = float(np.max(np.abs(t.values.sum(axis=(2, 3))[t.present] - 1.0)))
    passed = block_res <= tol and off_mass <= tol and ns <= tol and sum_res <= tol
    return VerificationReport(
        tol=tol,
        block_residual=block_res,
        offblock_mass=off_mass,
        nosignal_residual=ns,
        sum_residual=sum_res,
        passed=passed,
    )
