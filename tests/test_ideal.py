from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from conftest import block_rows, projector_stack, random_coefficients, random_ranges
from selftesting import (
    EmbeddingSpec,
    Measurement,
    Realization,
    SchmidtCoefficients,
    blocks,
    compute_tables,
    embed_realization,
    ideal_realization,
    sample_tables,
)
from selftesting.cli import main
from selftesting.errors import DimensionError, HermiticityError, NormalizationError
from selftesting.ideal import MEASUREMENT_TOL
from selftesting.io import load_realization, realization_to_doc, save_realization
from selftesting.schmidt import target_state

# cos^2(mu/2) for c=(0.8, 0.6): overlap of Bob's first tilted vector with e_0
BOB_OVERLAP_86 = 0.8606936605154758


def test_measurement_validation_catches_broken_projectors():
    good = Measurement(projectors=np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]))
    good.validate()
    bad = Measurement(projectors=np.stack([np.diag([1.0, 0.0]), np.diag([1.0, 0.0])]))
    with pytest.raises(ValueError):
        bad.validate()


@pytest.mark.parametrize("shape", [(2, 2), (2, 2, 3)])
def test_measurement_stack_shape_is_checked(shape):
    with pytest.raises(ValueError, match=r"projector stack must be \(n, dim, dim\)"):
        Measurement(np.zeros(shape))


def _validate_loop(meas: Measurement, tol: float = MEASUREMENT_TOL) -> None:
    """Pairwise reference for Measurement.validate: one product per (j, k >= j)."""
    p = meas.projectors
    herm = np.max(np.abs(p - np.conj(np.transpose(p, (0, 2, 1)))))
    if herm > tol:
        raise HermiticityError(f"projector asymmetry {herm:.3e} > {tol:.0e}")
    for j in range(meas.n_outcomes):
        idem = np.max(np.abs(p[j] @ p[j] - p[j]))
        if idem > tol:
            raise ValueError(f"outcome {j} projector not idempotent ({idem:.3e})")
        for k in range(j + 1, meas.n_outcomes):
            cross = np.max(np.abs(p[j] @ p[k]))
            if cross > tol:
                raise ValueError(f"outcomes {j},{k} projectors overlap ({cross:.3e})")
    comp = np.max(np.abs(p.sum(axis=0) - np.eye(meas.dim)))
    if comp > tol:
        raise ValueError(f"projectors sum off identity by {comp:.3e}")


def _verdict(check) -> tuple[type, str] | None:
    try:
        check()
    except (ValueError, HermiticityError) as e:
        return type(e), str(e)
    return None


def _perturbed_stack(seed: int, real: bool = False) -> tuple[str, np.ndarray]:
    """Random projective measurement with one seeded defect of size eps.

    The defect is one of: nothing, a non-Hermitian entry, a scaled
    projector (idempotency), a vector leaning into another outcome's range
    (overlap), or a dropped outcome (completeness). With `real` the bases
    are real orthogonal and the non-Hermitian entry is a real asymmetry,
    so the stack stays real.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    dim = n + int(rng.integers(0, 4))
    ranges = random_ranges(n, dim, rng, real)
    p = projector_stack(ranges)
    kind = ("none", "hermiticity", "idempotency", "overlap", "completeness")[seed % 5]
    eps = 10.0 ** rng.uniform(-12, -3)
    j, k = (int(v) for v in rng.choice(n, size=2, replace=False))
    if kind == "hermiticity":
        p[j, 0, dim - 1] += eps if real else eps * 1j
    elif kind == "idempotency":
        p[j] *= 1 + eps
    elif kind == "overlap":
        a, b = ranges[k][:, 0], ranges[j][:, 0]
        v = (a + eps * b) / np.sqrt(1 + eps * eps)
        p[k] += np.outer(v, v.conj()) - np.outer(a, a.conj())
    elif kind == "completeness":
        p[j] = 0.0
    return kind, p


def _assert_validate_matches_loop(real: bool) -> None:
    first_words = set()
    for seed in range(400):
        kind, stack = _perturbed_stack(seed, real)
        meas = Measurement(stack)
        assert meas.projectors.dtype == (float if real else complex), (seed, kind)
        want = _verdict(lambda: _validate_loop(meas))
        assert _verdict(meas.validate) == want, (seed, kind)
        if want is not None:
            first_words.add(want[1].split()[0])
    # every failure kind was reached: asymmetry, idempotency, overlap, completeness
    assert first_words == {"projector", "outcome", "outcomes", "projectors"}


def test_validate_matches_pairwise_loop():
    _assert_validate_matches_loop(real=False)


def test_validate_matches_pairwise_loop_real():
    # the float64 path is exactly as strict as the complex one
    _assert_validate_matches_loop(real=True)


def _unit_vector(q: np.ndarray) -> np.ndarray:
    """A unit vector spanning the real or complex rank-one projector `q`."""
    i = np.argmax(np.diagonal(q).real)
    return q[:, i] / np.sqrt(q[i, i].real)


def _planted_overlap(p: np.ndarray, j: int, k: int, eps: float) -> np.ndarray:
    """Stack `p` with outcome k's vector leaned by `eps` into outcome j's;
    both outcomes' projectors must be rank one, real or complex."""
    a, b = _unit_vector(p[k]), _unit_vector(p[j])
    v = (a + eps * b) / np.sqrt(1 + eps * eps)
    out = p.copy()
    out[k] = np.outer(v, v.conj())
    return out


def test_validate_reports_overlap_deep_in_stack():
    # a pair far from the diagonal of a long outcome row, in sparse real
    # stacks and in dense complex ones
    r = ideal_realization(random_coefficients(32, seed=32))
    hidden = embed_realization(r, EmbeddingSpec(2, 1, 7))
    for meas in r.alice + r.bob + hidden.alice + hidden.bob:
        bad = Measurement(_planted_overlap(meas.projectors, 3, 30, 1e-9))
        want = _verdict(lambda: _validate_loop(bad))
        assert want is not None and want[1].startswith("outcomes 3,30 projectors overlap")
        assert _verdict(bad.validate) == want


@pytest.mark.parametrize("d", [8, 16, 32])
def test_validate_passes_ideal_and_embedded_many_outcomes(d):
    r = ideal_realization(random_coefficients(d, seed=d))
    hidden = embed_realization(r, EmbeddingSpec(2, 1, 7))
    for meas in r.alice + r.bob + hidden.alice + hidden.bob:
        assert _verdict(meas.validate) is None
        assert _verdict(lambda: _validate_loop(meas)) is None


def test_validate_rejects_nonfinite_projectors():
    stack = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
    stack[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        Measurement(stack).validate()
    stack[0, 0, 0] = 1.0
    stack[1, 0, 1] = complex(0.0, np.inf)
    with pytest.raises(ValueError, match="non-finite"):
        Measurement(stack).validate()


def test_validate_huge_finite_entries_fail_without_warnings():
    # products of finite entries overflow to inf, which fails idempotency
    r = ideal_realization(random_coefficients(4, seed=4))
    huge = r.proj_a * 1e200
    checks = [
        ("", Measurement(huge[0]).validate),
        ("alice setting 0: ", Realization(r.dim_a, r.dim_b, r.state, huge, r.proj_b).validate),
    ]
    for at, check in checks:
        want = rf"^{at}outcome 0 projector not idempotent \(inf\)$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=want):
                check()


def test_nan_maxima_fail_their_own_check_without_warnings():
    # complex entries scaled by 1e200 give inf - inf in the products, so a
    # maximum reads NaN, which compares false against the tolerance: the
    # basis passed validation, and the stack failed only at completeness
    r = embed_realization(ideal_realization(random_coefficients(2, seed=4)), EmbeddingSpec(2, 1, 7))
    basis_a, proj_a = np.array(r.basis_a), np.array(r.proj_a)
    basis_a[1] *= 1e200
    proj_a[1] *= 1e200
    checks = [
        (
            Realization.from_bases(r.state, basis_a, r.labels_a, r.basis_b, r.labels_b, r.n_outcomes),
            r"^alice setting 1: basis off orthonormal by nan$",
        ),
        (
            Realization(r.dim_a, r.dim_b, r.state, proj_a, r.proj_b),
            r"^alice setting 1: outcome 0 projector not idempotent \(nan\)$",
        ),
    ]
    for got, want in checks:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=want):
                got.validate()


def _party_loop(r: Realization) -> tuple[type, str] | None:
    """Pairwise reference for Realization.validate's projector checks: the
    first failing setting's `_validate_loop` verdict, named by its setting."""
    for party, stacks in (("alice", r.proj_a), ("bob", r.proj_b)):
        for x, stack in enumerate(stacks):
            got = _verdict(lambda: _validate_loop(Measurement(stack)))
            if got is not None:
                return got[0], f"{party} setting {x}: {got[1]}"
    return None


def _defective_realization(d: int, seed: int) -> tuple[str, Realization]:
    """Ideal realization with one seeded defect in one setting.

    Ideal stacks are sparse: each projector lives on one block's pair. The
    "overlap" defect leans outcome k's vector into outcome j's range, which
    links two disjoint supports. The "column" defect picks j < k with
    disjoint supports, puts a sub-tolerance entry into P_j at a row in its
    support and a column c in P_k's support, then scales P_k by 100. P_j
    stays Hermitian and idempotent within the tolerance, but P_j P_k
    exceeds it, and pair (j, k) comes before P_k's own idempotency check.
    """
    rng = np.random.default_rng(seed)
    r = ideal_realization(random_coefficients(d, seed=seed))
    proj = [r.proj_a.copy(), r.proj_b.copy()]
    p = proj[rng.integers(2)]
    x = int(rng.integers(len(p)))
    kind = ("none", "hermiticity", "idempotency", "overlap", "completeness", "column")[seed % 6]
    eps = 10.0 ** rng.uniform(-12, -3)
    support = [set(np.flatnonzero(np.diagonal(q))) for q in p[x]]
    j, k = sorted(rng.choice(d, size=2, replace=False))
    while kind == "column" and support[j] & support[k]:
        j, k = sorted(rng.choice(d, size=2, replace=False))
    if kind == "hermiticity":
        p[x, j, k, j] += eps
    elif kind == "idempotency":
        p[x, j] *= 1 + eps
    elif kind == "overlap":
        p[x] = _planted_overlap(p[x], j, k, eps)
    elif kind == "completeness":
        p[x, j] = 0.0
    elif kind == "column":
        a = min(support[j])
        c = max(support[k], key=lambda i: p[x, k, i, i])
        p[x, j, a, c] += 5e-11
        p[x, k] *= 100.0
    return kind, Realization(r.dim_a, r.dim_b, r.state, *proj)


@pytest.mark.parametrize("d", [4, 9, 32])
def test_realization_validate_matches_pairwise_loop_on_sparse_stacks(d):
    first_words = set()
    for seed in range(60):
        kind, r = _defective_realization(d, seed)
        want = _party_loop(r)
        assert _verdict(r.validate) == want, (seed, kind)
        if kind == "column":
            assert "projectors overlap" in want[1], seed
        if want is not None:
            first_words.add(want[1].split(": ")[1].split()[0])
    assert first_words == {"projector", "outcome", "outcomes", "projectors"}


def test_realization_validate_reports_settings_in_order():
    r = ideal_realization(random_coefficients(5, seed=5))
    alice, bob = r.proj_a.copy(), r.proj_b.copy()
    alice[1] = _planted_overlap(alice[1], 0, 3, 1e-6)
    bob[3, 2, 1, 1] = np.nan
    with pytest.raises(ValueError, match=r"^alice setting 1: outcomes 0,3 projectors overlap"):
        Realization(r.dim_a, r.dim_b, r.state, alice, bob).validate()


@pytest.mark.parametrize("x", range(4))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_realization_validate_nonfinite_setting_without_warnings(x, bad):
    r = ideal_realization(random_coefficients(8, seed=8))
    bob = r.proj_b.copy()
    bob[x, 5, 2, 6] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^bob setting {x}: projectors contain non-finite"):
            Realization(r.dim_a, r.dim_b, r.state, r.alice, bob).validate()


@pytest.mark.parametrize("spec", [EmbeddingSpec(3, 2, None), EmbeddingSpec(2, 1, 7)])
def test_realization_validate_passes_padded_and_rotated(spec):
    for d in (2, 3, 8, 16, 32):
        embed_realization(ideal_realization(random_coefficients(d, seed=d)), spec).validate()


def test_ideal_realization_is_real():
    for d in (2, 3, 5, 32):
        r = ideal_realization(random_coefficients(d, seed=400 + d))
        assert r.state.dtype == np.float64
        for meas in (*r.alice, *r.bob):
            assert meas.projectors.dtype == np.float64


def test_seeded_embedding_is_complex():
    r = embed_realization(
        ideal_realization(random_coefficients(3, seed=404)), EmbeddingSpec(1, 2, seed=7)
    )
    assert r.state.dtype == np.complex128
    for meas in (*r.alice, *r.bob):
        assert meas.projectors.dtype == np.complex128


def test_zero_imaginary_parts_are_stored_real():
    # the party decides the dtype: complex stacks whose imaginary parts are
    # all zero are stored as float64, and a lone Measurement keeps its dtype
    r = ideal_realization(SchmidtCoefficients(np.array([0.8, 0.6])))
    alice = [stack.astype(complex) for stack in r.proj_a]
    assert Measurement(alice[0]).projectors.dtype == np.complex128
    got = Realization(r.dim_a, r.dim_b, r.state.astype(complex), alice, r.bob)
    assert got.state.dtype == got.proj_a.dtype == got.proj_b.dtype == np.float64
    assert np.array_equal(got.proj_a, r.proj_a)
    assert {m.projectors.dtype for m in got.alice} == {np.dtype(float)}
    got.validate()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_imaginary_parts_stay_complex(bad):
    r = ideal_realization(SchmidtCoefficients(np.array([0.8, 0.6])))
    stack = r.proj_b[3].astype(complex)
    stack[1, 0, 1] = complex(0.0, bad)
    got = Realization(r.dim_a, r.dim_b, r.state, r.alice, (*r.bob[:3], stack))
    assert got.proj_a.dtype == np.float64 and got.proj_b.dtype == np.complex128
    with pytest.raises(ValueError, match="non-finite"):
        got.validate()
    state = r.state.astype(complex)
    state[1] = complex(0.0, bad)
    got = Realization(r.dim_a, r.dim_b, state, r.alice, r.bob)
    assert got.state.dtype == np.complex128
    with pytest.raises(ValueError, match="non-finite"):
        got.validate()


def _surface_devices(tmp_path) -> list[Realization]:
    """Ideal, embedded and save/load round-tripped realizations, d=3."""
    ideal = ideal_realization(random_coefficients(3, seed=17))
    embedded = embed_realization(ideal, EmbeddingSpec(2, 1, 7))
    path = tmp_path / "r.json"
    save_realization(embedded, path)
    return [ideal, embedded, load_realization(path)]


def test_settings_are_views_of_read_only_party_arrays(tmp_path):
    # what a caller reads per setting is the party array itself
    for r in _surface_devices(tmp_path):
        settings = r.alice + r.bob
        assert len(settings) == 7 and all(isinstance(m, Measurement) for m in settings)
        stacks = (*r.proj_a, *r.proj_b)
        for meas, proj, stack in zip(settings, [r.proj_a] * 3 + [r.proj_b] * 4, stacks):
            assert np.shares_memory(meas.projectors, proj)
            assert np.array_equal(meas.projectors, stack)
        for proj in (r.proj_a, r.proj_b):
            assert proj.flags.c_contiguous and not proj.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                proj[0, 0, 0, 0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            r.bob[3].projectors[0, 0, 0] = 0.5


def test_settings_are_copied_and_party_arrays_adopted():
    r = ideal_realization(random_coefficients(2, seed=18))
    stack = r.proj_b[1].copy()
    got = Realization(r.dim_a, r.dim_b, r.state, r.alice, (*r.bob[:3], stack))
    assert not np.shares_memory(got.proj_b, stack) and stack.flags.writeable
    party = r.proj_b.copy()
    got = Realization(r.dim_a, r.dim_b, r.state, r.alice, party)
    assert got.proj_b is party and not party.flags.writeable


@pytest.mark.parametrize(
    "alice_bob, error, message",
    [
        (lambda a, b: (a[:2], b), ValueError, "need 3 first-party and 4 second-party settings, got 2, 4"),
        (lambda a, b: (a, (*b[:3], b[3][:1])), ValueError, "bob setting 3 has 1 outcomes, expected 2"),
        (lambda a, b: ((a[0], np.zeros((2, 3, 3)), a[2]), b), DimensionError, "alice setting 1 acts on dim 3 != 2"),
        (lambda a, b: (a, (*b[:3], np.zeros((2, 2)))), ValueError, r"projector stack must be \(n, dim, dim\)"),
        # a party handed in as one array is checked at once, with the
        # message its setting 0 would give
        (lambda a, b: (a, np.zeros((4, 3, 2, 2))), ValueError, "bob setting 0 has 3 outcomes, expected 2"),
        (lambda a, b: (np.zeros((3, 2, 3, 3)), b), DimensionError, "alice setting 0 acts on dim 3 != 2"),
        (lambda a, b: (a, np.zeros((4, 2, 2))), ValueError, r"must be \(n, dim, dim\), got \(2, 2\)"),
    ],
    ids=["settings", "outcomes", "dim", "shape", "array-outcomes", "array-dim", "array-shape"],
)
def test_party_structure_is_checked_at_construction(alice_bob, error, message):
    r = ideal_realization(SchmidtCoefficients(np.array([0.8, 0.6])))
    alice, bob = alice_bob(r.proj_a, r.proj_b)
    with pytest.raises(error, match=message):
        Realization(r.dim_a, r.dim_b, r.state, alice, bob)


def _ideal_loop(sc: SchmidtCoefficients) -> Realization:
    """Per-block reference for ideal_realization: two outer products per block."""
    d = sc.d

    def rank_one(vec):
        return np.outer(vec, vec) + 0.0

    def basis(i):
        e = np.zeros(d)
        e[i] = 1.0
        return e

    def alice_vectors(b, i):
        lo, hi = basis(b.lo), basis(b.hi)
        if i == 0:
            return lo, hi
        return (lo + hi) / np.sqrt(2), (lo - hi) / np.sqrt(2)

    def bob_vectors(b, i):
        sign = 1.0 if i == 0 else -1.0
        ch, sh = np.cos(b.mu / 2), np.sin(b.mu / 2)
        lo, hi = basis(b.lo), basis(b.hi)
        return ch * lo + sign * sh * hi, -sign * sh * lo + ch * hi

    def measurements(side, vectors):
        out = {}
        for primed in (False, True):
            family = [b for b in block_rows(sc) if b.primed == primed]
            top = {False: d - 1, True: 0}[primed] if d % 2 else None
            for i, setting in enumerate(getattr(family[0], side)):
                if setting in out:
                    continue
                p = np.zeros((d, d, d))
                for b in family:
                    plus, minus = vectors(b, i)
                    p[b.lo] = rank_one(plus)
                    p[b.hi] = rank_one(minus)
                if top is not None:
                    p[top] = rank_one(basis(top))
                out[setting] = Measurement(p)
        return tuple(out[x] for x in sorted(out))

    return Realization(
        d, d, target_state(sc), measurements("xs", alice_vectors), measurements("ys", bob_vectors)
    )


def test_ideal_realization_matches_per_block_loop():
    # one index assignment per setting writes the same bits, signs included
    for d in range(2, 34):
        sc = random_coefficients(d, seed=300 + d)
        got, want = ideal_realization(sc), _ideal_loop(sc)
        assert np.array_equal(got.state, want.state)
        for g, w in zip(got.alice + got.bob, want.alice + want.bob, strict=True):
            assert g.projectors.dtype == w.projectors.dtype == np.float64
            assert np.array_equal(g.projectors, w.projectors), d
            assert np.array_equal(np.signbit(g.projectors), np.signbit(w.projectors)), d


def test_cli_ideal_matches_per_block_loop(capsys):
    sc = random_coefficients(5, seed=7)
    coeffs = ",".join(repr(v) for v in sc.c.tolist())
    assert main(["ideal", "--coeffs", coeffs]) == 0
    want = json.dumps(realization_to_doc(_ideal_loop(sc)), indent=2) + "\n"
    assert capsys.readouterr().out == want


def _party_reference(d: int, settings: np.ndarray, table, u: np.ndarray) -> np.ndarray:
    """Dense reference for one ideal party's (settings, d, d, d) projectors.

    Every outcome of every setting starts as ``|k><k|``; then one index
    assignment writes outcome ``pair[o]`` of block i's setting
    ``settings[i, j]`` as ``u[j, o, k] u[j, o, l]`` at ``(pair[k],
    pair[l])``, the entries of ``u`` as in ``ideal._bases``. Adding 0.0
    turns each -0.0 into 0.0.
    """
    p = np.zeros((settings.max() + 1, d, d, d))
    k = np.arange(d)
    p[:, k, k, k] = 1.0
    pair = table.pair.T
    at = (settings.T[:, None, None, None], pair[:, None, None], pair[:, None], pair)
    p[at] = u[:, :, :, None] * u[:, :, None, :] + 0.0
    return p


@pytest.mark.parametrize("d", [*range(2, 18), 32])
def test_ideal_projectors_match_dense_reference(d):
    # the projectors made from the ideal bases are the stacks written entry
    # by entry, bit for bit, and hold no -0.0
    sc = random_coefficients(d, seed=900 + d)
    table = blocks(sc)
    s = 1.0 / np.sqrt(2)
    u_a = np.array([[[1.0, 0.0], [0.0, 1.0]], [[s, s], [s, -s]]])[..., None]
    ch, sh = np.cos(table.mu / 2), np.sin(table.mu / 2)
    u_b = np.array([[[ch, sh], [-sh, ch]], [[ch, -sh], [sh, ch]]])
    r = ideal_realization(sc)
    for got, want in ((r.proj_a, _party_reference(d, table.xs, table, u_a)),
                      (r.proj_b, _party_reference(d, table.ys, table, u_b))):
        assert got.dtype == np.float64 and np.array_equal(got, want)
        assert not np.signbit(got[got == 0]).any()


def test_basis_party_forms_are_made_on_first_read_and_kept():
    # the tables, validation and sampling read the bases alone; the
    # projectors are made on the first read and then kept, as the rounded
    # bases of a party given as stacks are
    r = ideal_realization(random_coefficients(6, seed=6))
    r.validate()
    compute_tables(r)
    sample_tables(r, 10, seed=1)
    assert not {"proj_a", "proj_b", "alice", "bob"} & vars(r).keys()
    assert r.proj_b is r.proj_b and r.alice is r.alice
    given = Realization(r.dim_a, r.dim_b, r.state, r.proj_a, r.proj_b)
    given.validate()
    assert not {"basis_a", "basis_b", "labels_a", "labels_b"} & vars(given).keys()
    assert given.basis_a is given.basis_a and not given.labels_b.flags.writeable


def test_state_is_a_read_only_copy():
    # the tables are kept on a realization, so nothing may write its state:
    # neither through the attribute nor through the caller's array
    r = ideal_realization(random_coefficients(3, seed=3))
    want = r.state.copy()
    makes = [
        lambda s: Realization(r.dim_a, r.dim_b, s, r.proj_a, r.proj_b),
        lambda s: Realization.from_bases(s, r.basis_a, r.labels_a, r.basis_b, r.labels_b, 3),
    ]
    for make in makes:
        for given in (want.copy(), want.reshape(r.dim_a, r.dim_b).copy(), want.astype(complex)):
            got = make(given)
            tables = compute_tables(got).values
            with pytest.raises(ValueError, match="read-only"):
                got.state[0] = 0.0
            given[...] = 7.0
            assert np.array_equal(got.state, want) and got.state.flags.owndata
            assert np.array_equal(compute_tables(got).values, tables)
    assert not r.state.flags.writeable


@pytest.mark.parametrize("party, x", [("alice", 1), ("bob", 3)])
def test_basis_validation_names_party_and_setting(party, x):
    # one column's squared norm off 1 by twice the tolerance fails; by half
    # of it, it passes
    r = ideal_realization(random_coefficients(5, seed=5))
    for times, message in ((2.0, "2.000e-10"), (0.5, None)):
        bases = {"a": r.basis_a.copy(), "b": r.basis_b.copy()}
        bases[party[0]][x, :, 2] *= np.sqrt(1 + times * MEASUREMENT_TOL)
        got = Realization.from_bases(
            r.state, bases["a"], r.labels_a, bases["b"], r.labels_b, r.n_outcomes
        )
        if message is None:
            got.validate()
            continue
        with pytest.raises(ValueError, match=rf"^{party} setting {x}: basis off orthonormal by {message}$"):
            got.validate()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_basis_validation_rejects_nonfinite_without_warnings(bad):
    r = ideal_realization(random_coefficients(4, seed=4))
    basis_b = r.basis_b.copy()
    basis_b[2, 1, 1] = bad
    got = Realization.from_bases(r.state, r.basis_a, r.labels_a, basis_b, r.labels_b, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^bob setting 2: basis contains non-finite entries$"):
            got.validate()


@pytest.mark.parametrize("party", ["alice", "bob"])
@pytest.mark.parametrize(
    "make, message",
    [
        (lambda labels: labels.astype(float), r"labels must be integers, got dtype float64"),
        (lambda labels: labels.astype(bool), r"labels must be integers, got dtype bool"),
        (lambda labels: labels[:, :-1], r"labels must have shape \(\d, 3\), got \(\d, 2\)"),
        (lambda labels: labels[0], r"labels must have shape \(\d, 3\), got \(3,\)"),
        (lambda labels: labels - 1, r"label -1 outside \[0, 3\)"),
        (lambda labels: labels + 1, r"label 3 outside \[0, 3\)"),
    ],
    ids=["float", "bool", "columns", "flat", "negative", "too-large"],
)
def test_from_bases_refuses_bad_labels(party, make, message):
    r = ideal_realization(random_coefficients(3, seed=3))
    labels = {"a": r.labels_a, "b": r.labels_b}
    labels[party[0]] = make(labels[party[0]])
    with pytest.raises(ValueError, match=rf"^{party} {message}$"):
        Realization.from_bases(r.state, r.basis_a, labels["a"], r.basis_b, labels["b"], 3)


@pytest.mark.parametrize("n", [0, 3.0, True, "3"])
def test_from_bases_refuses_bad_outcome_count(n):
    r = ideal_realization(random_coefficients(3, seed=3))
    with pytest.raises(ValueError, match=rf"^n_outcomes must be a positive integer, got {n!r}$"):
        Realization.from_bases(r.state, r.basis_a, r.labels_a, r.basis_b, r.labels_b, n)


def test_outcome_labelling_no_column_has_zero_projector():
    r = ideal_realization(random_coefficients(3, seed=3))
    got = Realization.from_bases(r.state, r.basis_a, r.labels_a, r.basis_b, r.labels_b, 4)
    got.validate()
    assert got.proj_a.shape == (3, 4, 3, 3) and got.proj_b.shape == (4, 4, 3, 3)
    assert not got.proj_a[:, 3].any() and not got.proj_b[:, 3].any()
    tables = compute_tables(got).values
    assert not tables[:, :, 3].any() and not tables[:, :, :, 3].any()
    assert np.array_equal(tables[:, :, :3, :3], compute_tables(r).values)


def test_ideal_measurements_are_valid_projective():
    for d in range(2, 10):
        sc = random_coefficients(d, seed=100 + d)
        r = ideal_realization(sc)
        r.validate()
        assert len(r.alice) == 3
        assert len(r.bob) == 4
        for meas in (*r.alice, *r.bob):
            assert meas.projectors.shape == (d, d, d)


def test_alice_x0_is_computational():
    sc = random_coefficients(4, seed=1)
    a0 = ideal_realization(sc).alice[0]
    for k in range(4):
        e = np.zeros(4)
        e[k] = 1.0
        assert np.allclose(a0.projectors[k], np.outer(e, e))


def test_alice_flip_observables():
    # x=1 acts as a flip on every unprimed pair, x=2 on every primed pair
    sc = SchmidtCoefficients(np.array([0.8, 0.4, 0.4, 0.2]))
    a1, a2 = ideal_realization(sc).alice[1:]
    flip01 = np.zeros((4, 4))
    flip01[0, 1] = flip01[1, 0] = 1.0
    obs = a1.projectors[0] - a1.projectors[1]
    assert np.allclose(obs[:2, :2], flip01[:2, :2])
    # primed wrap block (3, 0)
    obs2 = a2.projectors[3] - a2.projectors[0]
    assert abs(obs2[3, 0] - 1.0) < 1e-14
    assert abs(obs2[0, 3] - 1.0) < 1e-14


def test_alice_corner_outcomes_odd_d():
    # for odd d the leftover outcome keeps its computational projector
    sc = random_coefficients(5, seed=2)
    a1, a2 = ideal_realization(sc).alice[1:]
    e4 = np.zeros(5)
    e4[4] = 1.0
    assert np.allclose(a1.projectors[4], np.outer(e4, e4))
    e0 = np.zeros(5)
    e0[0] = 1.0
    assert np.allclose(a2.projectors[0], np.outer(e0, e0))


def test_bob_tilt_overlap():
    sc = SchmidtCoefficients(np.array([0.8, 0.6]))
    b0 = ideal_realization(sc).bob[0]
    e0 = np.zeros(2)
    e0[0] = 1.0
    overlap = float(np.real(e0 @ b0.projectors[0] @ e0))
    assert abs(overlap - BOB_OVERLAP_86) < 1e-14


def test_bob_tilt_signs_mirror():
    # y=0 and y=1 tilt by +mu and -mu: same diagonal, opposite off-diagonal
    sc = random_coefficients(4, seed=3)
    bob = ideal_realization(sc).bob
    p0, p1 = bob[0].projectors[0], bob[1].projectors[0]
    assert np.allclose(np.diag(p0), np.diag(p1), atol=1e-14)
    off0 = p0 - np.diag(np.diag(p0))
    off1 = p1 - np.diag(np.diag(p1))
    assert np.allclose(off0, -off1, atol=1e-14)


def test_realization_state_is_target():
    sc = random_coefficients(3, seed=5)
    r = ideal_realization(sc)
    assert r.dim_a == 3 and r.dim_b == 3
    assert np.allclose(np.diag(r.state_matrix()), sc.c)


def _one_dim_alice(r: Realization) -> Realization:
    """`r` with a first party of local dimension 1, as construction allows."""
    alice = np.zeros((3, 2, 1, 1))
    alice[:, 0] = 1.0
    return Realization(1, r.dim_b, r.state[: r.dim_b], alice, r.proj_b)


@pytest.mark.parametrize(
    "make, error, message",
    [
        (_one_dim_alice, DimensionError, "local dimensions must be at least 2, got 1, 2"),
        (lambda r: Realization(r.dim_a, r.dim_b, r.state[:3], r.alice, r.bob), ValueError,
         r"state length 3 != dim_a\*dim_b = 4"),
    ],
    ids=["dim-1", "state-length"],
)
def test_realization_validate_rejects_bad_dimensions(make, error, message):
    broken = make(ideal_realization(SchmidtCoefficients(np.array([0.8, 0.6]))))
    with pytest.raises(error, match=message):
        broken.validate()


def test_realization_validate_rejects_unnormalized_state():
    sc = random_coefficients(2, seed=6)
    r = ideal_realization(sc)
    broken = type(r)(
        dim_a=r.dim_a,
        dim_b=r.dim_b,
        state=r.state * 1.001,
        alice=r.alice,
        bob=r.bob,
    )
    with pytest.raises(NormalizationError):
        broken.validate()
