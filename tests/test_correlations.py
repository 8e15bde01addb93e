from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    block_rows,
    perturbed_realization,
    projector_stack,
    random_coefficients,
    random_ranges,
)
from selftesting import (
    CorrelationTables,
    EmbeddingSpec,
    Measurement,
    Realization,
    SchmidtCoefficients,
    compute_tables,
    embed_realization,
    ideal_realization,
    no_signaling_check,
    reference_tables,
    sample_tables,
    verify_tables,
)
from selftesting import correlations
from selftesting.chsh import block_scores
from selftesting.correlations import _block_2x2, _reference, constrained_pairs
from selftesting.errors import CoverageError, HermiticityError
from selftesting.io import load_realization, save_realization
from selftesting.schmidt import SETTINGS, blocks

# c=(0.8, 0.6): T_{0,0}[0,0] = 0.64 cos^2(mu/2)
T00_86 = 0.64 * 0.8606936605154758
# d=4, c=(0.8, 0.4, 0.4, 0.2): same entry with its own tilt
T00_D4 = 0.5698780190217697
# d=2 maximal, x=1: equal-weight flip basis against the tilt
T10_MAX_DIAG = 0.42677669529663687
T10_MAX_OFF = 0.0732233047033631


def test_constrained_pairs():
    pairs = constrained_pairs()
    assert len(pairs) == 8
    assert set(pairs) == {(x, y) for x in (0, 1) for y in (0, 1)} | {
        (x, y) for x in (0, 2) for y in (2, 3)
    }


def test_tables_container_coverage():
    t = CorrelationTables(d=2, tables={(0, 0): np.eye(2) / 2})
    assert (0, 0) in t.pairs()
    assert (1, 1) not in t.pairs()
    with pytest.raises(CoverageError):
        t.table(1, 1)
    assert t.pairs() == [(0, 0)]
    assert t.values.shape == (3, 4, 2, 2) and t.values.flags.c_contiguous
    assert t.present.sum() == 1 and t.present[0, 0]


@pytest.mark.parametrize(
    "d, tables",
    [
        (1, {(0, 0): np.eye(1)}),
        (-3, {(0, 0): np.eye(2) / 2}),
        (2.5, {(0, 0): np.eye(2) / 2}),
        (True, {(0, 0): np.eye(2) / 2}),
        (2, {}),
        (2, {(0.7, 1.9): np.eye(2) / 2}),
        (2, {(0, 0, 5): np.eye(2) / 2}),
        (2, {(True, 0): np.eye(2) / 2}),
        (2, {(3, 0): np.eye(2) / 2}),
        (2, {(0, -1): np.eye(2) / 2}),
        (2, {(0, 0): np.eye(3) / 3}),
    ],
)
def test_tables_reject_bad_d_keys_and_shapes(d, tables):
    with pytest.raises(ValueError):
        CorrelationTables(d=d, tables=tables)


def test_reference_frozen_entries():
    sc = SchmidtCoefficients(np.array([0.8, 0.6]))
    t = reference_tables(sc)
    assert abs(t.table(0, 0)[0, 0] - T00_86) < 1e-14

    sc4 = SchmidtCoefficients(np.array([0.8, 0.4, 0.4, 0.2]))
    t4 = reference_tables(sc4)
    assert abs(t4.table(0, 0)[0, 0] - T00_D4) < 1e-14

    scm = SchmidtCoefficients(np.array([1.0, 1.0]) / np.sqrt(2))
    tm = reference_tables(scm)
    assert abs(tm.table(1, 0)[0, 0] - T10_MAX_DIAG) < 1e-14
    assert abs(tm.table(1, 0)[0, 1] - T10_MAX_OFF) < 1e-14


def _corner(d: int, primed: bool) -> int | None:
    """The outcome no block of the family holds: d-1 unprimed and 0 primed
    for odd d, none for even d."""
    return {False: d - 1, True: 0}[primed] if d % 2 else None


def _reference_loop(sc: SchmidtCoefficients) -> dict[tuple[int, int], np.ndarray]:
    """Reference closed form: each block written on its own, one ``np.ix_`` per
    block per setting pair, and each family's corner at its full weight."""
    d, c = sc.d, sc.c
    out = {}
    for primed, (xs, ys) in SETTINGS.items():
        family = [b for b in block_rows(sc) if b.primed == primed]
        top = _corner(d, primed)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                tab = np.zeros((d, d))
                for b in family:
                    tab[np.ix_(b.pair, b.pair)] = _block_2x2(c[b.lo], c[b.hi], b.mu)[i, j]
                if top is not None:
                    tab[top, top] = c[top] ** 2
                out[(x, y)] = tab
    return out


@pytest.mark.parametrize("d", range(2, 34))
def test_reference_tables_match_block_loop(d):
    sc = random_coefficients(d, seed=d)
    got = reference_tables(sc)
    want = _reference_loop(sc)
    assert got.pairs() == sorted(want)
    for pair, tab in want.items():
        assert np.array_equal(got.table(*pair), tab), pair
    table = blocks(sc)
    for primed in (False, True):
        mask = np.zeros((d, d), dtype=bool)
        for pair in table.pair[table.primed == primed]:
            mask[np.ix_(pair, pair)] = True
        top = _corner(d, primed)
        if top is not None:
            mask[top, top] = True
        # every pair of the family shares its mask
        xs, ys = SETTINGS[primed]
        got = _reference(sc)[1][np.ix_(xs, ys)]
        assert np.array_equal(got, np.broadcast_to(mask, (2, 2, d, d)))
    # the unconstrained pairs hold no reference cell
    unconstrained = np.ones((3, 4), dtype=bool)
    unconstrained[tuple(zip(*constrained_pairs()))] = False
    ref, mask, off = _reference(sc)
    assert not mask[unconstrained].any() and not ref[unconstrained].any()
    # the off-block cells are the other cells of the constrained pairs
    assert not off[unconstrained].any()
    assert np.array_equal(off[~unconstrained], ~mask[~unconstrained])


def _einsum_tables(r: Realization) -> dict[tuple[int, int], np.ndarray]:
    """Reference Born rule: one einsum per setting pair."""
    m = r.state_matrix()
    return {
        (x, y): np.einsum("ij,aik,bjl,kl->ab", m.conj(), r.alice[x].projectors,
                          r.bob[y].projectors, m, optimize=True)
        for x in range(3)
        for y in range(4)
    }


def _random_device(d: int, dim_a: int, dim_b: int, seed: int) -> Realization:
    """Random state and projective measurements with d outcomes of mixed rank."""
    rng = np.random.default_rng(seed)

    def measurement(dim: int) -> Measurement:
        return Measurement(projector_stack(random_ranges(d, dim, rng)))

    state = rng.standard_normal(dim_a * dim_b) + 1j * rng.standard_normal(dim_a * dim_b)
    return Realization(
        dim_a=dim_a,
        dim_b=dim_b,
        state=state / np.linalg.norm(state),
        alice=tuple(measurement(dim_a) for _ in range(3)),
        bob=tuple(measurement(dim_b) for _ in range(4)),
    )


@pytest.mark.parametrize("d", [2, 3, 5, 8, 16, 32])
def test_compute_tables_matches_einsum(d):
    # the Born rule on the projector stacks is the reference for the
    # amplitude route, on bases as built (ideal, real and complex) and as
    # rounded from given stacks (embedded, random, perturbed)
    sc = random_coefficients(d, seed=800 + d)
    ideal = ideal_realization(sc)
    devices = [
        ideal,
        _complex_copy(ideal),
        embed_realization(ideal, EmbeddingSpec(extra_a=2, extra_b=3, seed=d)),
        _random_device(d, d + 1, d + 3, seed=810 + d),
        perturbed_realization(ideal, 1e-3, seed=d),
    ]
    for r in devices:
        r.validate()
        got = compute_tables(r)
        for pair, want in _einsum_tables(r).items():
            assert np.max(np.abs(got.table(*pair) - want.real)) <= 1e-14


def test_tables_reject_nonfinite_entries():
    t = reference_tables(SchmidtCoefficients(np.array([0.8, 0.6])))
    tables = {p: t.table(*p).copy() for p in t.pairs()}
    tables[(2, 3)][1, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        CorrelationTables(d=2, tables=tables)
    tables[(2, 3)][1, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        CorrelationTables(d=2, tables=tables)


def test_tables_reject_nonzero_imaginary_part():
    # the imaginary part was dropped with only a ComplexWarning
    with pytest.raises(ValueError, match=r"^table \(0, 0\) has a nonzero imaginary part$"):
        CorrelationTables(2, {(0, 0): np.eye(2) * (0.5 + 0.1j)})
    with pytest.raises(ValueError, match=r"^table \(1, 2\) has a nonzero imaginary part$"):
        CorrelationTables(2, {(0, 0): np.eye(2) / 2, (1, 2): [[0.5, 0.0], [0.0, 0.5 + 1e-300j]]})
    # a complex table whose imaginary part is zero is its real part, with no
    # ComplexWarning (an error under this suite's warning filters)
    t = CorrelationTables(2, {(0, 0): np.eye(2) * (0.5 + 0j)})
    assert t.values.dtype == np.float64
    assert np.array_equal(t.table(0, 0), np.eye(2) / 2)


def test_tables_are_read_only():
    # a table set is a copy of what it was given, and nothing can write into
    # it afterwards, so no NaN can reach the checks after construction
    given = {(0, 0): np.eye(2) / 2}
    t = CorrelationTables(d=2, tables=given)
    given[(0, 0)][0, 0] = np.nan
    assert t.table(0, 0)[0, 0] == 0.5
    for array in (t.table(0, 0), t.values, t.present):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0


def _layouts(t: CorrelationTables) -> list[CorrelationTables]:
    """`t` rebuilt from C-ordered, Fortran-ordered and reversed-stride copies
    of its tables."""
    copies = (
        np.ascontiguousarray,
        np.asfortranarray,
        lambda a: np.ascontiguousarray(a[::-1, ::-1])[::-1, ::-1],
    )
    return [CorrelationTables(t.d, {p: copy(t.table(*p)) for p in t.pairs()}) for copy in copies]


@pytest.mark.parametrize("d", range(2, 34))
def test_checks_do_not_depend_on_memory_layout(d):
    sc = random_coefficients(d, seed=720 + d)
    ideal = ideal_realization(sc)
    embedded = embed_realization(ideal, EmbeddingSpec(extra_a=1, extra_b=2, seed=d))
    sets = [reference_tables(sc), compute_tables(ideal), compute_tables(embedded)]
    sets += [sample_tables(r, 300, seed=d).estimated for r in (ideal, embedded)]
    for t in sets:
        results = [
            (verify_tables(u, sc), no_signaling_check(u), block_scores(u, sc)) for u in _layouts(t)
        ]
        assert results[1] == results[0] and results[2] == results[0]


def test_two_routes_agree():
    for d in range(2, 10):
        for seed in range(3):
            sc = random_coefficients(d, seed=200 + 10 * d + seed)
            computed = compute_tables(ideal_realization(sc))
            reference = reference_tables(sc)
            for pair in constrained_pairs():
                assert np.max(np.abs(computed.table(*pair) - reference.table(*pair))) < 1e-12


def test_tables_are_normalized_distributions():
    for d in (2, 3, 5, 8):
        sc = random_coefficients(d, seed=300 + d)
        t = compute_tables(ideal_realization(sc))
        for pair in t.pairs():
            tab = t.table(*pair)
            assert np.all(tab >= -1e-14)
            assert abs(tab.sum() - 1.0) < 1e-12


def test_off_block_entries_vanish():
    sc = random_coefficients(6, seed=7)
    t = reference_tables(sc)
    # x=1 pairs unprimed blocks only: entries linking different unprimed
    # pairs are exactly zero
    tab = t.table(1, 0)
    assert abs(tab[0, 4]) < 1e-15
    assert abs(tab[5, 1]) < 1e-15


def test_alice_marginal_is_coefficient_squares():
    for d in (2, 3, 4, 7):
        sc = random_coefficients(d, seed=400 + d)
        t = compute_tables(ideal_realization(sc))
        for y in range(4):
            marg = t.table(0, y).sum(axis=1)
            assert np.max(np.abs(marg - sc.c**2)) < 1e-12


def test_no_signaling():
    for d in (2, 3, 4):
        sc = random_coefficients(d, seed=500 + d)
        t = compute_tables(ideal_realization(sc))
        assert no_signaling_check(t) < 1e-12


def test_verify_accepts_ideal_tables():
    for d in (2, 3, 4, 5):
        sc = random_coefficients(d, seed=600 + d)
        rep = verify_tables(compute_tables(ideal_realization(sc)), sc)
        assert rep.passed
        assert rep.block_residual < 1e-12
        assert rep.offblock_mass < 1e-12


def test_verify_flags_single_entry_corruption():
    sc = random_coefficients(3, seed=8)
    t = reference_tables(sc)
    tables = {p: t.table(*p).copy() for p in t.pairs()}
    tables[(0, 0)][0, 0] += 1e-3
    rep = verify_tables(CorrelationTables(d=3, tables=tables), sc)
    assert not rep.passed
    assert abs(rep.block_residual - 1e-3) < 1e-4


def test_verify_ignores_unconstrained_pair_entries():
    # pairs outside the constrained eight carry no entrywise conditions,
    # only no-signaling and normalization
    sc = random_coefficients(2, seed=9)
    t = compute_tables(ideal_realization(sc))
    tables = {p: t.table(*p).copy() for p in t.pairs()}
    tables[(1, 2)] += 1e-3 * np.array([[1.0, -1.0], [-1.0, 1.0]])
    rep = verify_tables(CorrelationTables(d=2, tables=tables), sc)
    assert rep.passed
    # breaking a marginal on the same pair is still caught
    tables[(1, 2)] += 1e-3 * np.array([[1.0, 1.0], [-1.0, -1.0]])
    rep = verify_tables(CorrelationTables(d=2, tables=tables), sc)
    assert not rep.passed
    assert rep.nosignal_residual > 1e-4
    # whatever the four unconstrained pairs hold, the block scores and the
    # entrywise checks never read them
    for d in (2, 3, 8):
        sc = random_coefficients(d, seed=90 + d)
        t = compute_tables(ideal_realization(sc))
        rng = np.random.default_rng(d)
        tables = {p: t.table(*p) for p in t.pairs()}
        for p in set(tables) - set(constrained_pairs()):
            tables[p] = rng.uniform(-5.0, 5.0, (d, d))
        assert len(tables) - len(constrained_pairs()) == 4
        filled = CorrelationTables(d=d, tables=tables)
        assert block_scores(filled, sc) == block_scores(t, sc)
        got, want = verify_tables(filled, sc), verify_tables(t, sc)
        assert got.block_residual == want.block_residual
        assert got.offblock_mass == want.offblock_mass


def test_verify_builds_the_reference_once_per_coefficients(monkeypatch):
    # one closed-form evaluation per coefficient vector serves every later
    # verify_tables and reference_tables call, in either order, and the
    # cached arrays are read-only, so no call can change them
    calls = []
    block_2x2 = correlations._block_2x2

    def counted(*args):
        calls.append(args)
        return block_2x2(*args)

    monkeypatch.setattr(correlations, "_block_2x2", counted)
    for seed, verify_first in ((11, True), (12, False)):
        sc = random_coefficients(5, seed=seed)
        ideal = compute_tables(ideal_realization(sc))
        calls.clear()
        reports = [
            verify_tables(ideal, sc) if (step % 2 == 0) == verify_first
            else verify_tables(reference_tables(sc), sc)
            for step in range(4)
        ]
        assert len(calls) == 1
        assert all(rep.passed for rep in reports) and reports[2:] == reports[:2]
        assert not any(a.flags.writeable for a in _reference(sc))
    # other coefficients of the same d get their own reference
    assert not verify_tables(ideal, random_coefficients(5, seed=13)).passed
    assert len(calls) == 2


def test_verify_requires_all_constrained_pairs():
    sc = random_coefficients(2, seed=10)
    t = reference_tables(sc)
    tables = {p: t.table(*p).copy() for p in t.pairs()}
    del tables[(0, 0)]
    with pytest.raises(CoverageError):
        verify_tables(CorrelationTables(d=2, tables=tables), sc)


def test_odd_d_corner_entries():
    # odd d: the leftover outcome pairs deterministically with itself
    sc = random_coefficients(3, seed=11)
    c = sc.c
    t = reference_tables(sc)
    unprimed = t.table(0, 0)
    assert abs(unprimed[2, 2] - c[2] ** 2) < 1e-14
    assert abs(unprimed[2, :].sum() - c[2] ** 2) < 1e-14
    primed = t.table(0, 2)
    assert abs(primed[0, 0] - c[0] ** 2) < 1e-14
    assert abs(primed[0, :].sum() - c[0] ** 2) < 1e-14
    assert abs(unprimed.sum() - 1.0) < 1e-12


def test_block_mass_partition():
    # each table splits total probability into per-block masses
    sc = random_coefficients(5, seed=12)
    c = sc.c
    t = reference_tables(sc)
    unprimed = t.table(1, 0)
    for lo, hi in ((0, 1), (2, 3)):
        blk = unprimed[np.ix_([lo, hi], [lo, hi])]
        assert abs(blk.sum() - (c[lo] ** 2 + c[hi] ** 2)) < 1e-14
    primed = t.table(2, 2)
    for lo, hi in ((1, 2), (3, 4)):
        blk = primed[np.ix_([lo, hi], [lo, hi])]
        assert abs(blk.sum() - (c[lo] ** 2 + c[hi] ** 2)) < 1e-14
    assert abs(primed.sum() - 1.0) < 1e-14


def test_verify_flags_off_block_corruption():
    # weight leaking outside the blocks is reported as off-block mass
    sc = random_coefficients(4, seed=13)
    t = reference_tables(sc)
    tables = {p: t.table(*p).copy() for p in t.pairs()}
    assert tables[(1, 0)][0, 2] == 0.0
    tables[(1, 0)][0, 2] += 1e-3
    rep = verify_tables(CorrelationTables(d=4, tables=tables), sc)
    assert not rep.passed
    assert abs(rep.offblock_mass - 1e-3) < 1e-15
    assert rep.block_residual < 1e-12


def test_no_signaling_detects_built_signaling():
    # first party's marginal shifts by 0.1 between the two second-party
    # settings, which is exactly the reported residual
    tables = {
        (1, 0): np.diag([0.5, 0.5]),
        (1, 1): np.diag([0.4, 0.6]),
    }
    res = no_signaling_check(CorrelationTables(d=2, tables=tables))
    assert abs(res - 0.1) < 1e-12


def test_equality_is_identity():
    # the generated __eq__ compared arrays inside a tuple and raised ValueError
    sc = random_coefficients(3, seed=9)
    for make in (reference_tables, ideal_realization, lambda sc: ideal_realization(sc).bob[2]):
        a, b = make(sc), make(sc)
        assert a == a and not a == b and a != b


def _complex_copy(r: Realization) -> Realization:
    """`r`, built from bases, with its state and both parties' bases stored
    as complex128, which is what :func:`compute_tables` reads.
    :meth:`Realization.from_bases` stores such arrays as float64, so the
    complex copies are set afterwards."""
    out = Realization.from_bases(r.state, r.basis_a, r.labels_a, r.basis_b, r.labels_b, r.n_outcomes)
    for name in ("state", "basis_a", "basis_b"):
        object.__setattr__(out, name, getattr(r, name).astype(complex))
    return out


@pytest.mark.parametrize("d", [2, 3, 5, 32])
def test_real_device_tables_match_complex_arithmetic(d):
    r = ideal_realization(random_coefficients(d, seed=500 + d))
    rc = _complex_copy(r)
    assert r.state.dtype == np.float64 and rc.state.dtype == np.complex128
    assert rc.basis_a.dtype == rc.basis_b.dtype == np.complex128
    real, cplx = compute_tables(r), compute_tables(rc)
    for pair in real.pairs():
        assert np.max(np.abs(real.table(*pair) - cplx.table(*pair))) <= 1e-15


def test_compute_tables_rejects_nonhermitian_projectors():
    sc = SchmidtCoefficients(np.array([0.8, 0.6]))
    r = ideal_realization(sc)
    stack = r.alice[0].projectors.astype(complex)
    stack[0, 0, 1] += 1e-3j
    r = replace(r, alice=(Measurement(stack), *r.alice[1:]))
    # given stacks are checked before they are rounded to bases, with the
    # messages of Realization.validate
    with pytest.raises(HermiticityError, match=r"^alice setting 0: projector asymmetry 1\.000e-03 > 1e-10$"):
        compute_tables(r)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_compute_tables_rejects_nonfinite_stacks_without_warnings(bad):
    r = ideal_realization(random_coefficients(4, seed=4))
    bob = r.proj_b.copy()
    bob[2, 1, 0, 3] = bad
    r = Realization(r.dim_a, r.dim_b, r.state, r.alice, bob)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^bob setting 2: projectors contain non-finite entries$"):
            compute_tables(r)


def test_from_values_copies_into_a_read_only_array():
    # the array constructor gives the same table set as the mapping one, from
    # any layout and real dtype, and keeps nothing of the caller's arrays
    t = compute_tables(ideal_realization(random_coefficients(3, seed=3)))
    want = CorrelationTables(3, {(0, 1): t.table(0, 1), (2, 3): t.table(2, 3)})
    values = want.values.copy()
    for given in (values, np.asfortranarray(values), values.astype(complex)):
        present = want.present.copy()
        got = CorrelationTables.from_values(given, present)
        assert got.d == 3 and np.array_equal(got.values, want.values)
        assert got.values.dtype == np.float64 and got.values.flags.c_contiguous
        assert np.array_equal(got.present, want.present)
        assert got.pairs() == [(0, 1), (2, 3)]
        with pytest.raises(CoverageError, match=r"^no table for setting pair \(0, 0\)$"):
            got.table(0, 0)
        given[0, 1] = 9.0
        present[:] = True
        assert np.array_equal(got.values, want.values) and np.array_equal(got.present, want.present)
        for array in (got.values, got.present, got.table(0, 1)):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0


@pytest.mark.parametrize(
    "values, present, message",
    [
        (np.zeros((3, 4, 2, 3)), np.ones((3, 4), bool), r"^values must have shape \(3, 4, d, d\), got \(3, 4, 2, 3\)$"),
        (np.zeros((4, 3, 2, 2)), np.ones((3, 4), bool), r"^values must have shape \(3, 4, d, d\), got \(4, 3, 2, 2\)$"),
        (np.zeros((12, 2, 2)), np.ones((3, 4), bool), r"^values must have shape \(3, 4, d, d\), got \(12, 2, 2\)$"),
        (np.ones((3, 4, 1, 1)), np.ones((3, 4), bool), r"^d must be an integer >= 2, got 1$"),
        (np.zeros((3, 4, 2, 2)), np.ones((4, 3), bool), r"^present must be a \(3, 4\) bool array, got bool of shape \(4, 3\)$"),
        (np.zeros((3, 4, 2, 2)), np.ones((3, 4), int), r"^present must be a \(3, 4\) bool array, got int64 of shape \(3, 4\)$"),
        (np.zeros((3, 4, 2, 2)), np.zeros((3, 4), bool), r"^a table set needs at least one setting pair$"),
    ],
    ids=["square", "pair-grid", "ndim", "d=1", "present-shape", "present-dtype", "no-pair"],
)
def test_from_values_refuses_bad_layouts(values, present, message):
    with pytest.raises(ValueError, match=message):
        CorrelationTables.from_values(values, present)


@pytest.mark.parametrize(
    "bad, message",
    [
        (1e-300j, r"^table \(1, 2\) has a nonzero imaginary part$"),
        (complex(0.0, np.nan), r"^table \(1, 2\) has a nonzero imaginary part$"),
        (np.nan, r"^table \(1, 2\) contains non-finite entries$"),
        (-np.inf, r"^table \(1, 2\) contains non-finite entries$"),
    ],
    ids=["imaginary", "nan-imaginary", "nan", "inf"],
)
def test_from_values_refuses_bad_entries(bad, message):
    # the first bad pair in row-major order is named, by both constructors,
    # which end in the same checks
    values = np.full((3, 4, 2, 2), 0.25, dtype=np.result_type(bad))
    values[1, 2, 0, 1] = values[2, 3, 1, 1] = bad
    with pytest.raises(ValueError, match=message):
        CorrelationTables.from_values(values, np.ones((3, 4), dtype=bool))
    with pytest.raises(ValueError, match=message):
        CorrelationTables(2, {(x, y): values[x, y] for x, y in np.ndindex(3, 4)})


def test_from_values_refuses_nonzero_absent_pairs():
    # an absent pair means "no statement", so it must hold nothing
    values = np.zeros((3, 4, 2, 2))
    present = np.zeros((3, 4), dtype=bool)
    values[0, 0], present[0, 0] = np.eye(2) / 2, True
    values[1, 1, 1, 0] = values[2, 0, 0, 0] = 1e-300
    with pytest.raises(ValueError, match=r"^table \(1, 1\) is not present but nonzero$"):
        CorrelationTables.from_values(values, present)
    values[1, 1, 1, 0] = values[2, 0, 0, 0] = -0.0
    assert CorrelationTables.from_values(values, present).pairs() == [(0, 0)]


def test_require_constrained_names_the_first_missing_pair():
    t = reference_tables(random_coefficients(4, seed=4))
    for drop in ([(0, 0)], [(1, 1), (0, 2)], [(2, 3), (2, 2)], constrained_pairs()[::-1]):
        present = t.present.copy()
        present[tuple(np.array(drop).T)] = False
        if not present.any():
            present[1, 2] = True
        values = np.where(present[..., None, None], t.values, 0.0)
        first = min(drop, key=constrained_pairs().index)
        with pytest.raises(CoverageError, match=rf"^no table for setting pair \({first[0]}, {first[1]}\)$"):
            CorrelationTables.from_values(values, present).require_constrained(4)


def test_born_tables_are_computed_once_per_realization(monkeypatch):
    # compute_tables keeps its read-only array on the realization, so a
    # later compute_tables or sample_tables reads it; each call still
    # returns its own table set
    calls = []
    dagger = correlations.dagger

    def counted(a):
        calls.append(a)
        return dagger(a)

    monkeypatch.setattr(correlations, "dagger", counted)
    sc = random_coefficients(5, seed=5)
    for r in (ideal_realization(sc), embed_realization(ideal_realization(sc), EmbeddingSpec(1, 2, 3))):
        calls.clear()
        first = compute_tables(r)
        sampled = sample_tables(r, 100, seed=1)
        again = compute_tables(r)
        assert len(calls) == 1
        assert again is not first and np.array_equal(again.values, first.values)
        assert not vars(r)["_tables"].flags.writeable
        assert not np.shares_memory(first.values, vars(r)["_tables"])
        assert sampled.estimated.pairs() == first.pairs()
    r = ideal_realization(sc)
    calls.clear()
    sample_tables(r, 100, seed=1)
    compute_tables(r)
    assert len(calls) == 1


# The table layer as built before the array constructor: every table set
# went through the mapping constructor, one view per pair. Kept as the
# oracle that the array-native forms must match bit for bit.


def _compute_tables_dict(r: Realization) -> CorrelationTables:
    m, n = r.state_matrix(), r.n_outcomes
    amp = (r.basis_a.conj().swapaxes(-1, -2) @ m)[:, None] @ r.basis_b.conj()
    sq = np.square(amp.real)
    if np.iscomplexobj(amp):
        sq += np.square(amp.imag)
    cell = np.arange(12).reshape(3, 4, 1, 1)
    cell = (cell * n + r.labels_a[:, None, :, None]) * n + r.labels_b[:, None, :]
    out = np.bincount(cell.ravel(), sq.ravel(), 12 * n * n).reshape(3, 4, n, n)
    return CorrelationTables(d=n, tables={pair: out[pair] for pair in np.ndindex(3, 4)})


def _reference_tables_dict(sc: SchmidtCoefficients) -> CorrelationTables:
    ref = _reference(sc)[0]
    return CorrelationTables(d=sc.d, tables={(x, y): ref[x, y] for x, y in constrained_pairs()})


def _sample_tables_dict(r: Realization, shots: int, seed: int) -> tuple[CorrelationTables, float]:
    exact = _compute_tables_dict(r)
    v = exact.values
    stderr_max = float(np.max(np.sqrt(np.clip(v * (1 - v), 0, None) / shots)))
    p = np.clip(v, 0, None)
    estimated = {}
    for x, y in exact.pairs():
        rng = np.random.default_rng(np.random.SeedSequence((seed, x, y)))
        counts = rng.multinomial(shots, p[x, y].ravel() / p[x, y].sum())
        estimated[(x, y)] = counts.reshape(exact.d, exact.d) / shots
    return CorrelationTables(d=exact.d, tables=estimated), stderr_max


def _no_signaling_dict(t: CorrelationTables) -> float:
    gaps = []
    for axis, marginals in ((1, t.values.sum(axis=3)), (0, t.values.sum(axis=2))):
        first = np.expand_dims(np.argmax(t.present, axis=axis), (axis, 2))
        gap = np.abs(marginals - np.take_along_axis(marginals, first, axis=axis))
        gaps.append(np.max(gap, where=t.present[..., None], initial=0.0))
    return float(np.max(gaps))


def _verify_dict(t: CorrelationTables, sc: SchmidtCoefficients) -> tuple[float, ...]:
    ref, mask = _reference(sc)[:2]
    block_res = float(np.max(np.abs(t.values - ref)[mask]))
    off = ~mask & mask.any(axis=(2, 3), keepdims=True)
    off_mass = float(np.max(np.abs(t.values[off]).reshape(8, -1).sum(axis=-1)))
    sum_res = float(np.max(np.abs(t.values.sum(axis=(2, 3))[t.present] - 1.0)))
    return block_res, off_mass, _no_signaling_dict(t), sum_res


def _same(got: CorrelationTables, want: CorrelationTables) -> bool:
    """Bit-identical values (so -0.0 differs from 0.0) and equal present pairs."""
    return (
        got.d == want.d
        and got.values.dtype == want.values.dtype
        and got.values.tobytes() == want.values.tobytes()
        and np.array_equal(got.present, want.present)
        and got.pairs() == want.pairs()
    )


@pytest.mark.parametrize("d", [*range(2, 18), 32])
def test_table_layer_matches_dict_forms(d, tmp_path):
    sc = random_coefficients(d, seed=900 + d)
    ideal = ideal_realization(sc)
    save_realization(ideal, tmp_path / "r.json")
    devices = [
        ideal,
        embed_realization(ideal, EmbeddingSpec(3, 2, None)),
        embed_realization(ideal, EmbeddingSpec(2, 1, 7)),
        perturbed_realization(ideal, 1e-3, seed=d),
        load_realization(tmp_path / "r.json"),
    ]
    reference = reference_tables(sc)
    assert _same(reference, _reference_tables_dict(sc))
    sets = [(reference, reference)]
    for r in devices:
        want = _compute_tables_dict(r)
        assert _same(compute_tables(r), want) and _same(compute_tables(r), want)
        sampled = sample_tables(r, 1000, seed=d)
        want_sampled, want_stderr = _sample_tables_dict(r, 1000, seed=d)
        assert _same(sampled.estimated, want_sampled)
        assert sampled.stderr_max == want_stderr
        sets += [(want, compute_tables(r)), (want_sampled, sampled.estimated)]
    for want, got in sets:
        report = verify_tables(got, sc)
        assert (report.block_residual, report.offblock_mass, report.nosignal_residual,
                report.sum_residual) == _verify_dict(want, sc)
        assert no_signaling_check(got) == _no_signaling_dict(want)
        assert block_scores(got, sc) == block_scores(want, sc)
    assert verify_tables(reference, sc).passed
