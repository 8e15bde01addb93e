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
    assert t.has(0, 0)
    assert not t.has(1, 1)
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
    ref, mask = _reference(sc)
    assert not mask[unconstrained].any() and not ref[unconstrained].any()


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
        ref, mask = _reference(sc)
        assert not ref.flags.writeable and not mask.flags.writeable
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
