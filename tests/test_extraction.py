from __future__ import annotations

import tracemalloc
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import block_rows, perturbed_realization, random_coefficients
from selftesting import (
    EmbeddingSpec,
    SchmidtCoefficients,
    angles,
    apply_isometry,
    block_scores,
    blocks,
    build_block_operators,
    build_criterion_ops,
    check_criterion,
    compute_tables,
    embed_realization,
    extraction,
    extraction_report,
    ideal_realization,
    measurement_equivalence,
    target_state,
    verify_tables,
)
from selftesting.errors import IsometryConsistencyError
from selftesting.extraction import (
    ZERO_TOL,
    CriterionReport,
    ExtractionReport,
    MeasurementResidual,
    _alice,
    _apply_isometry_matrix,
    _bob,
    _chain,
    _frame,
    _isometry_figures,
    _junk_state,
    _reflect,
    dagger,
    sign_unitarize,
)
from selftesting.ideal import Measurement

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Z = np.diag([1.0, -1.0])


def test_dagger():
    a = np.array([[1.0, 2.0j], [3.0, 4.0]])
    assert np.array_equal(dagger(a), a.conj().T)
    # a stack is transposed matrix by matrix, not along all three axes
    stack = np.arange(12).reshape(3, 2, 2) * (1 + 1j)
    assert np.array_equal(dagger(stack), np.array([m.conj().T for m in stack]))


def test_sign_unitarize():
    h = np.diag([2.0, 0.0, -3.0])
    u = sign_unitarize(h)
    assert np.allclose(u, np.diag([1.0, 1.0, -1.0]))
    # result is always a Hermitian involution
    rng = np.random.default_rng(2)
    g = rng.standard_normal((4, 4))
    u = sign_unitarize(g + g.T)
    assert np.allclose(u @ u, np.eye(4), atol=1e-12)
    assert np.allclose(u, dagger(u), atol=1e-12)
    # a stack is unitarized matrix by matrix, exactly as one at a time; the
    # middle matrix has an eigenvalue inside the ZERO_TOL band, sent to +1
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    near_zero = (q * np.array([2.0, 0.5 * ZERO_TOL, -0.5 * ZERO_TOL, -1.0])) @ dagger(q)
    g = rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4))
    stack = np.stack([g[0], near_zero, g[1]])
    got = sign_unitarize(stack)
    assert got.shape == (3, 4, 4)
    for h, u in zip(stack, got):
        assert np.array_equal(u, sign_unitarize(h))
    w = np.linalg.eigvalsh(got[1])
    assert np.allclose(w, [-1.0, 1.0, 1.0, 1.0], atol=1e-12)


def test_block_operators_d2_are_paulis():
    sc = SchmidtCoefficients(np.array([0.8, 0.6]))
    r = ideal_realization(sc)
    ops = build_block_operators(r, sc)
    assert ops.table is blocks(sc)
    for a in (ops.a, ops.ia, ops.b, ops.ib):
        assert a.shape == (2, 2, 2, 2)
    # the unprimed block, pairing (0, 1)
    assert np.allclose(ops.a[0, 0], SIGMA_Z, atol=1e-14)
    assert np.allclose(ops.a[0, 1], SIGMA_X, atol=1e-14)
    assert np.allclose(ops.ia[0, 0], np.eye(2), atol=1e-14)
    assert np.allclose(ops.ia[0, 1], np.eye(2), atol=1e-14)
    # second party's observables are the two tilted combinations
    mu = angles(sc).mu[0]
    assert np.allclose(ops.b[0, 0], np.cos(mu) * SIGMA_Z + np.sin(mu) * SIGMA_X, atol=1e-14)
    assert np.allclose(ops.b[0, 1], np.cos(mu) * SIGMA_Z - np.sin(mu) * SIGMA_X, atol=1e-14)


def _whole_frame(ops):
    """Both parties' unitarized Z and X of every block, in blocks order."""
    every = list(range(len(ops.table)))
    zb, xb = _frame(ops, every, every)
    a = _reflect(ops.ia, ops.a)
    return SimpleNamespace(za=a[:, 0], xa=a[:, 1], zb=zb, xb=xb)


def _pauli_on_pair(dim, pair, pauli):
    """`pauli` on the basis vectors of `pair`, in its order, and +1 off them."""
    op = np.eye(dim)
    op[np.ix_(pair, pair)] = pauli
    return op


def test_block_frame_ideal():
    # on an ideal device both parties' unitarized Z and X of every block are
    # the block's Z and X on its pair and +1 off it, the wrapping pair
    # (d-1, 0) of even d included
    for d in (2, 3, 4, 5, 6, 9):
        sc = random_coefficients(d, seed=950 + d)
        frame = _whole_frame(build_block_operators(ideal_realization(sc), sc))
        for i, pair in enumerate(blocks(sc).pair):
            z, x = _pauli_on_pair(d, pair, SIGMA_Z), _pauli_on_pair(d, pair, SIGMA_X)
            for got, want in ((frame.za, z), (frame.zb, z), (frame.xa, x), (frame.xb, x)):
                assert np.max(np.abs(got[i] - want)) <= 1e-14, (d, i)


def _skewed_coefficients(d, eps=1e-7):
    """Every coefficient eps except c_0: some block masses are 2 eps^2."""
    c = np.full(d, eps)
    c[0] = np.sqrt(1 - (d - 1) * eps**2)
    return SchmidtCoefficients(c)


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize(
    "spec",
    [None, EmbeddingSpec(3, 2, None), EmbeddingSpec(0, 0, 7), EmbeddingSpec(2, 1, 7)],
    ids=["ideal", "3-2-none", "0-0-7", "2-1-7"],
)
def test_skewed_state_passes_every_stage(d, spec):
    # block masses of 2e-14 pass the tables, the block scores and the
    # extraction, whether or not the device is rotated or embedded
    sc = _skewed_coefficients(d)
    assert np.min(blocks(sc).mass) < 1e-13
    r = ideal_realization(sc)
    if spec is not None:
        r = embed_realization(r, spec)
    t = compute_tables(r)
    assert verify_tables(t, sc).passed
    assert max(abs(s.beta - s.target) for s in block_scores(t, sc)) <= 1e-9
    assert extraction_report(r, sc).passes()


def test_criterion_ops_ideal_structure():
    sc = random_coefficients(4, seed=14)
    r = ideal_realization(sc)
    ops = build_criterion_ops(r, sc)
    d = 4
    for k in range(d):
        e = np.zeros(d)
        e[k] = 1.0
        assert np.allclose(ops.p_a[k], np.outer(e, e), atol=1e-12)
        assert np.allclose(ops.p_b[k], np.outer(e, e), atol=1e-10)
        # an exact cut ladder is already projective
        assert np.allclose(ops.p_cut[k], np.outer(e, e), atol=1e-10)


def test_criterion_ops_odd_d_top_outcome():
    # odd d: the top outcome's second-party projector comes from the last
    # primed block rather than an unprimed one
    sc = random_coefficients(5, seed=18)
    ops = build_criterion_ops(ideal_realization(sc), sc)
    e = np.zeros(5)
    e[4] = 1.0
    assert np.allclose(ops.p_b[4], np.outer(e, e), atol=1e-10)


def test_projector_ladder_reuses_computational_setting():
    for d, seed in ((3, 19), (4, 20)):
        sc = random_coefficients(d, seed=seed)
        r = embed_realization(
            ideal_realization(sc), EmbeddingSpec(extra_a=1, extra_b=2, seed=seed)
        )
        ops = build_criterion_ops(r, sc)
        for k in range(d):
            assert np.array_equal(ops.p_a[k], r.alice[0].projectors[k])


def test_criterion_operator_invariants_embedded():
    sc = random_coefficients(3, seed=21)
    r = embed_realization(
        ideal_realization(sc), EmbeddingSpec(extra_a=2, extra_b=2, seed=6)
    )
    cases = [(sc, r)]
    for d in (3, 8):
        sc_noisy = random_coefficients(d, seed=100 + d)
        cases.append((sc_noisy, perturbed_realization(ideal_realization(sc_noisy), 1e-2, seed=1)))
    for sc, r in cases:
        ops = build_criterion_ops(r, sc)
        total = np.zeros((r.dim_a, r.dim_a), dtype=complex)
        for p in ops.p_a:
            assert np.max(np.abs(p - dagger(p))) < 1e-10
            assert np.max(np.abs(p @ p - p)) < 1e-10
            total = total + p
        assert np.max(np.abs(total - np.eye(r.dim_a))) < 1e-10
        for p in ops.p_b:
            assert np.max(np.abs(p - dagger(p))) < 1e-10
            assert np.max(np.abs(p @ p - p)) < 1e-9
        assert np.max(np.abs(sum(ops.p_b) - np.eye(r.dim_b))) < 1e-12
        for i, p in enumerate(ops.p_b):
            for q in ops.p_b[i + 1 :]:
                assert np.max(np.abs(p @ q)) < 1e-12
        for u in (*ops.x_a, *ops.x_b):
            assert np.max(np.abs(dagger(u) @ u - np.eye(u.shape[0]))) < 1e-9


def test_block_frames_hermitian_unitary_embedded():
    sc = random_coefficients(4, seed=22)
    r = embed_realization(
        ideal_realization(sc), EmbeddingSpec(extra_a=2, extra_b=1, seed=7)
    )
    frame = _whole_frame(build_block_operators(r, sc))
    for stack in (frame.za, frame.xa, frame.zb, frame.xb):
        assert len(stack) == len(blocks(sc))
        for u in stack:
            assert np.max(np.abs(u - dagger(u))) < 1e-9
            assert np.max(np.abs(u @ u - np.eye(u.shape[0]))) < 1e-9


def test_flip_chain_products():
    # chain k multiplies alternating unprimed/primed single-block flips
    sc = random_coefficients(4, seed=15)
    r = ideal_realization(sc)
    ops = build_criterion_ops(r, sc)
    frame = _whole_frame(build_block_operators(r, sc))
    assert len(frame.xa) == len(blocks(sc))
    # frames follow blocks(sc): unprimed 0, unprimed 1, primed 0, primed 1
    xa_u0 = frame.xa[0]
    xa_p0 = frame.xa[2]
    xa_u1 = frame.xa[1]
    assert np.allclose(ops.x_a[0], np.eye(4), atol=1e-14)
    assert np.allclose(ops.x_a[1], xa_u0, atol=1e-13)
    assert np.allclose(ops.x_a[2], xa_u0 @ xa_p0, atol=1e-13)
    assert np.allclose(ops.x_a[3], xa_u0 @ xa_p0 @ xa_u1, atol=1e-13)
    # each chain sends outcome k back to outcome 0 on the first party
    for k in range(4):
        e = np.zeros(4)
        e[k] = 1.0
        assert abs(np.abs(ops.x_a[k] @ e)[0] - 1.0) < 1e-12


def test_criterion_residuals_ideal():
    for d in range(2, 10):
        sc = random_coefficients(d, seed=1000 + d)
        r = ideal_realization(sc)
        ops = build_criterion_ops(r, sc)
        rep = check_criterion(ops, r, sc)
        assert np.max(rep.projector_match) < 1e-12
        assert np.max(rep.chain_map) < 1e-12
        assert np.max(rep.chain_map_adjoint) < 1e-12
        assert rep.ladder_rounding < 1e-20
        # k=0 uses identity chains on both sides: exactly zero
        assert rep.chain_map[0] == 0.0
        assert rep.chain_map_adjoint[0] == 0.0


def test_chain_norms_telescope():
    # || X_A^(k) P_A^(k) |psi> || = c_k for the ideal realization
    sc = random_coefficients(5, seed=16)
    r = ideal_realization(sc)
    ops = build_criterion_ops(r, sc)
    mat = r.state_matrix()
    for k in range(5):
        vec = ops.x_a[k] @ ops.p_a[k] @ mat
        assert abs(np.linalg.norm(vec) - sc.c[k]) < 1e-12


def _controlled(psi, ops_a, ops_b):
    """Apply ``ops_a[k]`` next to first-ancilla value k, ``ops_b[l]`` next to second-ancilla l."""
    psi = psi.copy()
    for k in range(1, psi.shape[2]):
        psi[:, :, k, :] = np.einsum("ia,abl->ibl", ops_a[k], psi[:, :, k, :])
        psi[:, :, :, k] = np.einsum("jb,abk->ajk", ops_b[k], psi[:, :, :, k])
    return psi


def _pre_flip_circuit(ops, mat):
    """Reference: the paper's circuit up to its flip stage, stage by stage.

    Ancilla Fourier, controlled powers of ``Z = sum_k omega^k P^(k)``,
    inverse Fourier, each applied to both ancillas.
    """
    d = ops.d
    grid = np.arange(d)
    omega = np.exp(2j * np.pi / d)
    f = omega ** np.outer(grid, grid) / np.sqrt(d)

    def fourier(psi, f):
        return np.einsum("kj,lm,abjm->abkl", f, f, psi)

    def powers(p):
        z = sum(omega**k * pk for k, pk in enumerate(p))
        out = [np.eye(z.shape[0], dtype=complex)]
        for _ in range(1, d):
            out.append(out[-1] @ z)
        return out

    psi = np.zeros((*mat.shape, d, d), dtype=complex)
    psi[:, :, 0, 0] = mat
    psi = fourier(psi, f)
    psi = _controlled(psi, powers(ops.p_a), powers(ops.p_b))
    return fourier(psi, dagger(f))


def _circuit(ops, mat):
    """Reference: the paper's four-stage circuit, ending in the controlled flip chains."""
    return _controlled(_pre_flip_circuit(ops, mat), ops.x_a, ops.x_b)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_closed_form_matches_circuit(d):
    rng = np.random.default_rng(40 + d)
    sc = random_coefficients(d, seed=40 + d)
    ideal = ideal_realization(sc)
    embedded = embed_realization(ideal, EmbeddingSpec(extra_a=2, extra_b=1, seed=d))
    noisy = perturbed_realization(ideal, 1e-2, seed=d)
    for r in (ideal, embedded, noisy):
        ops = build_criterion_ops(r, sc)
        stack_a, stack_b = ops.x_a @ ops.p_a, ops.x_b @ ops.p_b
        noise = rng.standard_normal((2, r.dim_a, r.dim_b))
        for mat in (r.state_matrix(), noise[0] + 1j * noise[1]):
            got = _apply_isometry_matrix(stack_a, stack_b, mat)
            assert np.max(np.abs(got - _circuit(ops, mat))) <= 1e-12


def test_pre_flip_state_ideal():
    # the circuit stopped before its flip stage:
    # P_A^(k) (x) P_B^(l) |psi> = delta_kl c_k |kk>
    sc = random_coefficients(3, seed=17)
    r = ideal_realization(sc)
    ops = build_criterion_ops(r, sc)
    psi = _pre_flip_circuit(ops, r.state_matrix())
    assert psi.shape == (3, 3, 3, 3)
    want = np.zeros((3, 3, 3, 3), dtype=complex)
    for i in range(3):
        want[i, i, i, i] = sc.c[i]
    assert np.max(np.abs(psi - want)) < 1e-12


def test_isometry_preserves_arbitrary_vectors():
    # a projective ladder and unitary flips make an isometry on any input,
    # not just the realization's state, and on noisy devices too
    rng = np.random.default_rng(23)
    cases = []
    for d, extra in ((2, 0), (3, 2)):
        sc = random_coefficients(d, seed=30 + d)
        r = ideal_realization(sc)
        if extra:
            r = embed_realization(r, EmbeddingSpec(extra_a=extra, extra_b=extra, seed=8))
        cases.append((sc, r))
    for d in (3, 8):
        sc = random_coefficients(d, seed=30 + d)
        cases.append((sc, perturbed_realization(ideal_realization(sc), 1e-2, seed=1)))
    for sc, r in cases:
        ops = build_criterion_ops(r, sc)
        stack_a, stack_b = ops.x_a @ ops.p_a, ops.x_b @ ops.p_b
        for _ in range(3):
            mat = rng.standard_normal((r.dim_a, r.dim_b)) + 1j * rng.standard_normal(
                (r.dim_a, r.dim_b)
            )
            mat /= np.linalg.norm(mat)
            out = _apply_isometry_matrix(stack_a, stack_b, mat)
            assert abs(np.linalg.norm(out) - 1.0) < 1e-10


def test_isometry_ideal_output():
    for d in (2, 3, 5, 8):
        sc = random_coefficients(d, seed=1100 + d)
        r = ideal_realization(sc)
        ops = build_criterion_ops(r, sc)
        out, rep = apply_isometry(ops, r, sc)
        assert abs(rep.output_norm - 1.0) < 1e-12
        assert rep.fidelity > 1 - 1e-12
        assert rep.product_overlap > 1 - 1e-12
        assert out.shape == (d * d * d * d,)


def test_isometry_singlet_ancilla_state():
    sc = SchmidtCoefficients(np.array([1.0, 1.0]) / np.sqrt(2))
    r = ideal_realization(sc)
    ops = build_criterion_ops(r, sc)
    _, rep = apply_isometry(ops, r, sc)
    plus = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    assert np.max(np.abs(rep.rho_ancilla - np.outer(plus, plus))) < 1e-12


def test_isometry_rejects_norm_drift():
    # measurement equivalence takes both parties' arms to be an isometry,
    # so it checks the same norm
    sc = SchmidtCoefficients(np.array([0.8, 0.6]))
    r = ideal_realization(sc)
    ops = build_criterion_ops(r, sc)
    ops.arm_a[1] *= 1.5
    with pytest.raises(IsometryConsistencyError):
        apply_isometry(ops, r, sc)
    with pytest.raises(IsometryConsistencyError):
        measurement_equivalence(ops, r, sc)


def test_isometry_rejects_second_party_norm_drift():
    # the norm reads the second party's arms as they are: summing only
    # ||A_k M||^2 would take them to be an exact isometry and pass this
    sc = SchmidtCoefficients(np.array([0.8, 0.6]))
    r = ideal_realization(sc)
    ops = build_criterion_ops(r, sc)
    ops.arm_b[1] *= 1.5
    mat = r.state_matrix()
    with pytest.raises(IsometryConsistencyError):
        apply_isometry(ops, r, sc)
    with pytest.raises(IsometryConsistencyError):
        _isometry_figures(ops, mat, _junk_state(ops, mat), sc)
    with pytest.raises(IsometryConsistencyError):
        measurement_equivalence(ops, r, sc)


def test_isometry_rejects_nan_norm():
    # abs(nan - 1) > NORM_BUDGET is False, so a NaN amplitude got through
    # the norm gate and came out as output_norm = fidelity = nan
    sc = SchmidtCoefficients(np.array([0.8, 0.6]))
    r = ideal_realization(sc)
    state = r.state.copy()
    state[3] = np.nan
    r = replace(r, state=state)
    with pytest.raises(IsometryConsistencyError, match="nan"):
        apply_isometry(build_criterion_ops(r, sc), r, sc)
    with pytest.raises(IsometryConsistencyError, match="nan"):
        extraction_report(r, sc)


def _oblique_device(c0):
    """d=2 device whose tilted second-party projectors are exactly idempotent
    but oblique by 0.9e-10, which validation accepts."""
    sc = SchmidtCoefficients(np.array([c0, np.sqrt(1 - c0**2)]))
    r = ideal_realization(sc)
    bob = list(r.bob)
    for y in blocks(sc).ys[0].tolist():
        p0, p1 = r.bob[y].projectors
        _, u = np.linalg.eigh(p1)
        shift = 0.9e-10 * np.outer(u[:, 0], u[:, 1].conj())
        bob[y] = Measurement(np.stack([p0 - shift, p1 + shift]))
    return sc, replace(r, bob=tuple(bob))


@pytest.mark.parametrize("c0", [0.8, 0.95, 0.99])
def test_report_on_oblique_projectors_that_pass_validation(c0):
    # a Hermiticity check of (B0 - B1) / (2 sin mu) at the validation
    # tolerance rejected these devices, since it divides their asymmetry
    # by sin mu
    sc, r = _oblique_device(c0)
    r.validate()
    assert extraction_report(r, sc).passes()


def test_product_overlap_bounded_by_fidelity():
    # a junk state normalized by the claimed c_0 instead of its own norm
    # let the noisy device report product_overlap = 1.125 against fidelity
    # 0.977; on the embedded one the overlap exceeds the fidelity clipped
    # to 1 by float dust
    sc = SchmidtCoefficients(np.array([0.8, 0.6]))
    ideal = ideal_realization(sc)
    noisy = perturbed_realization(ideal, 0.05, seed=2)
    embedded = embed_realization(ideal, EmbeddingSpec(extra_a=2, extra_b=3, seed=2))
    for r in (noisy, embedded):
        _, rep = apply_isometry(build_criterion_ops(r, sc), r, sc)
        assert 0.0 <= rep.product_overlap <= rep.fidelity <= 1.0


def test_product_overlap_zero_without_outcome_zero_weight():
    # no weight on outcome 0 leaves no junk state to normalize
    sc = SchmidtCoefficients(np.array([0.8, 0.6]))
    r = replace(ideal_realization(sc), state=np.array([0.0, 0.0, 0.0, 1.0]))
    _, rep = apply_isometry(build_criterion_ops(r, sc), r, sc)
    assert rep.product_overlap == 0.0
    assert abs(rep.fidelity - 0.36) < 1e-12


def test_measurement_equivalence_ideal():
    for d in (2, 3, 4, 5):
        sc = random_coefficients(d, seed=1200 + d)
        r = ideal_realization(sc)
        ops = build_criterion_ops(r, sc)
        rows = measurement_equivalence(ops, r, sc)
        assert len(rows) == 8 * (d // 2)
        assert max(v.residual for v in rows) < 1e-12
        sides = {(v.side, v.setting) for v in rows}
        assert sides == {("A", 0), ("A", 1), ("A", 2), ("B", 0), ("B", 1), ("B", 2), ("B", 3)}


def _block_operators_loop(r, sc):
    """Reference: each block's observables ``a0, a1, b0, b1`` and block
    identities ``ia0 .. ib1`` built on their own, from the projectors of the
    block's own settings."""
    out = []
    for blk in block_rows(sc):
        pa = [r.alice[x].projectors for x in blk.xs]
        pb = [r.bob[y].projectors for y in blk.ys]
        lo, hi = blk.lo, blk.hi
        out.append(
            SimpleNamespace(
                block=blk,
                a0=pa[0][lo] - pa[0][hi],
                a1=pa[1][lo] - pa[1][hi],
                b0=pb[0][lo] - pb[0][hi],
                b1=pb[1][lo] - pb[1][hi],
                ia0=pa[0][lo] + pa[0][hi],
                ia1=pa[1][lo] + pa[1][hi],
                ib0=pb[0][lo] + pb[0][hi],
                ib1=pb[1][lo] + pb[1][hi],
            )
        )
    return out


def _block_frame_loop(b):
    """Reference: one block's unitarized frame from its own observables."""
    eye_a, eye_b = np.eye(len(b.a0)), np.eye(len(b.b0))
    b0u, b1u = eye_b - b.ib0 + b.b0, eye_b - b.ib1 + b.b1
    mu = b.block.mu
    zb, xb = sign_unitarize(
        np.stack([(b0u + b1u) / (2.0 * np.cos(mu)), (b0u - b1u) / (2.0 * np.sin(mu))])
    )
    return SimpleNamespace(za=eye_a - b.ia0 + b.a0, xa=eye_a - b.ia1 + b.a1, zb=zb, xb=xb)


def _full_image_residuals(ops, r, sc):
    """Reference: each observable's whole ``(dim_a, dim_b, d, d)`` isometry
    image, built one at a time, minus its ideal image next to the junk state."""
    d = ops.d
    mat = r.state_matrix()
    stack_a, stack_b = ops.x_a @ ops.p_a, ops.x_b @ ops.p_b
    junk = _junk_state(ops, mat)
    tgt = target_state(sc).reshape(d, d)

    def two_level(lo, hi, zz, xx):
        op = np.zeros((d, d))
        op[lo, lo], op[hi, hi], op[lo, hi], op[hi, lo] = zz, -zz, xx, xx
        return op

    out = []
    for b in _block_operators_loop(r, sc):
        lo, hi = b.block.pair
        cos, sin = np.cos(b.block.mu), np.sin(b.block.mu)
        rows = (
            (_alice(b.a0, mat), two_level(lo, hi, 1.0, 0.0) @ tgt),
            (_alice(b.a1, mat), two_level(lo, hi, 0.0, 1.0) @ tgt),
            (_bob(b.b0, mat), tgt @ two_level(lo, hi, cos, sin).T),
            (_bob(b.b1, mat), tgt @ two_level(lo, hi, cos, -sin).T),
        )
        for moved, ideal_target in rows:
            image = _apply_isometry_matrix(stack_a, stack_b, moved)
            for k, l in zip(*np.nonzero(ideal_target)):
                image[:, :, k, l] -= ideal_target[k, l] * junk
            out.append(np.linalg.norm(image))
    return np.array(out)


def _devices(d):
    """Ideal, embedded and noisy devices of seeded coefficients."""
    sc = random_coefficients(d, seed=1300 + d)
    ideal = ideal_realization(sc)
    embedded = embed_realization(ideal, EmbeddingSpec(extra_a=2, extra_b=1, seed=7))
    return sc, (ideal, embedded, perturbed_realization(ideal, 1e-2, seed=1))


def _mixed_dtype_device(sc):
    """Ideal device with the first party's setting 1 and the second party's
    setting 2 conjugated by a diagonal phase: one complex setting per party,
    the others real, which makes each whole party complex128."""
    r = ideal_realization(sc)
    phase = np.exp(1j * np.linspace(0.3, 1.1, sc.d))

    def conj(meas):
        return Measurement(phase[:, None] * meas.projectors * phase.conj())

    r = replace(
        r,
        alice=(r.alice[0], conj(r.alice[1]), r.alice[2]),
        bob=(r.bob[0], r.bob[1], conj(r.bob[2]), r.bob[3]),
    )
    for proj, group in ((r.proj_a, r.alice), (r.proj_b, r.bob)):
        assert proj.dtype == np.complex128
        assert {m.projectors.dtype for m in group} == {np.dtype(complex)}
    return r


def _reference_cases(d):
    """The devices of `_devices(d)` and the mixed-dtype one, plus at d=2 the
    oblique devices."""
    sc, devices = _devices(d)
    cases = [(sc, r) for r in (*devices, _mixed_dtype_device(sc))]
    if d == 2:
        cases += [_oblique_device(c0) for c0 in (0.8, 0.95, 0.99)]
    return cases


def _perturbed_cases(d):
    """The ideal device of `_devices(d)` perturbed at three strengths."""
    sc = random_coefficients(d, seed=1300 + d)
    ideal = ideal_realization(sc)
    return [(sc, perturbed_realization(ideal, eps, seed=1)) for eps in (1e-6, 1e-3, 1e-1)]


def _density_matrix_figures(ops, r, sc):
    """Reference: output norm, fidelity and product overlap from the whole
    isometry image and its ancilla density matrix."""
    mat = r.state_matrix()
    psi = _apply_isometry_matrix(ops.x_a @ ops.p_a, ops.x_b @ ops.p_b, mat)
    flat = psi.reshape(-1, ops.d**2)
    rho = flat.T @ flat.conj()
    target = target_state(sc) / np.linalg.norm(target_state(sc))
    fid = min(float(np.real(target @ rho @ target)), 1.0)
    amp = _junk_state(ops, mat).conj().ravel() @ flat @ target
    return float(np.linalg.norm(psi)), fid, min(float(abs(amp) ** 2), fid)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
def test_isometry_figures_match_density_matrix(d):
    for sc, r in _reference_cases(d):
        ops = build_criterion_ops(r, sc)
        _, iso = apply_isometry(ops, r, sc)
        got = (iso.output_norm, iso.fidelity, iso.product_overlap)
        norm, fid, overlap = _density_matrix_figures(ops, r, sc)
        assert abs(got[0] - norm) <= 1e-14
        assert abs(got[1] - fid) <= 1e-15
        assert abs(got[2] - overlap) <= 1e-15
        rep = extraction_report(r, sc)
        assert (rep.output_norm, rep.fidelity, rep.product_overlap) == got


@pytest.mark.parametrize("d", [2, 3, 8])
def test_report_never_builds_the_image(d, monkeypatch):
    # the report reads its three figures off the diagonal slices, so it
    # runs without the whole isometry image
    sc, (_, embedded, _) = _devices(d)

    def refuse(*args, **kwargs):
        raise AssertionError("extraction_report built the isometry image")

    monkeypatch.setattr(extraction, "_apply_isometry_matrix", refuse)
    assert extraction_report(embedded, sc).passes()


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
def test_block_operators_match_block_loop(d):
    # the stacked observables, and the frames unitarized from them in one
    # call, against one block at a time
    for sc, r in _reference_cases(d) + _perturbed_cases(d):
        ops = build_block_operators(r, sc)
        want = _block_operators_loop(r, sc)
        assert ops.table is blocks(sc)
        for name in ("a", "ia", "b", "ib"):
            ref = np.array([[getattr(b, name + "0"), getattr(b, name + "1")] for b in want])
            assert np.array_equal(getattr(ops, name), ref)
        frame = _whole_frame(ops)
        ref_frames = [_block_frame_loop(b) for b in want]
        for name in ("za", "xa", "zb", "xb"):
            ref = np.array([getattr(f, name) for f in ref_frames])
            assert np.max(np.abs(getattr(frame, name) - ref)) <= 1e-15


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
def test_measurement_residuals_match_full_image(d):
    # even d covers the primed pair (d-1, 0) that wraps around; the image
    # applies the first party's arms as they are, where the residuals read
    # its off-pair outcomes through the rounded ladder
    for sc, r in _reference_cases(d) + _perturbed_cases(d):
        ops = build_criterion_ops(r, sc)
        got = [v.residual for v in measurement_equivalence(ops, r, sc)]
        assert np.max(np.abs(got - _full_image_residuals(ops, r, sc))) <= 1e-14


def _sq_norms(x):
    """Squared norm of each entry of a stack, over all its other axes, by
    an einsum against the conjugate."""
    x = x.reshape(len(x), -1)
    return np.einsum("ij,ij->i", x, x.conj()).real


def _measurement_loop(ops, r, sc):
    """Reference: measurement equivalence one block at a time, each block's
    four residuals summed from its own slice norms. The first party's
    outcomes off the pair are read through its rounded ladder, the
    eigenvectors of its label operator."""
    d, dim_a, dim_b = ops.d, ops.dim_a, ops.dim_b
    mat = r.state_matrix()
    stack_a, stack_b = ops.x_a @ ops.p_a, ops.x_b @ ops.p_b
    junk = _junk_state(ops, mat)
    basis = ops.v_b.conj()
    label = sum(k * p for k, p in enumerate(ops.p_a))
    w, v_a = np.linalg.eigh((label + dagger(label)) / 2)
    label_a = np.clip(np.rint(w), 0, d - 1).astype(int)
    bo = ops.block_ops
    moved = np.concatenate((_alice(bo.a, mat), _bob(bo.b, mat)), axis=1)
    z, x = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
    out = []
    for blk, mv in zip(block_rows(sc), moved):
        pair = list(blk.pair)
        cos, sin = np.cos(blk.mu), np.sin(blk.mu)
        c = sc.c[pair]
        ideal = np.array(
            (z * c, x * c, c[:, None] * (cos * z + sin * x), c[:, None] * (cos * z - sin * x))
        )
        rest = np.ones(d, dtype=bool)
        rest[pair] = False
        inside = stack_a[pair].reshape(2 * dim_a, dim_a) @ mv
        outside = dagger(v_a[:, rest[label_a]]) @ mv
        slices = inside.reshape(8 * dim_a, dim_b) @ stack_b[pair].reshape(2 * dim_b, dim_b).T
        slices = slices.reshape(4, 2, dim_a, 2, dim_b)
        slices -= ideal[:, :, None, :, None] * junk[:, None]
        off_pair = inside @ basis[:, rest[ops.label_b]]
        sq = _sq_norms(outside) + _sq_norms(off_pair) + _sq_norms(slices)
        observables = (("A", blk.xs[0]), ("A", blk.xs[1]), ("B", blk.ys[0]), ("B", blk.ys[1]))
        out.extend(
            MeasurementResidual(side, setting, blk.m, blk.primed, float(np.sqrt(s)))
            for (side, setting), s in zip(observables, sq)
        )
    return out


def _hidden_cases(d):
    """An ideal device of seeded coefficients hidden in 30 and 31 extra dimensions."""
    sc = random_coefficients(d, seed=1500 + d)
    return [(sc, embed_realization(ideal_realization(sc), EmbeddingSpec(30, 31, 7)))]


@pytest.mark.parametrize(
    "d, hidden", [(d, False) for d in (2, 3, 4, 5, 8, 16)] + [(d, True) for d in (2, 3, 5, 8, 16)]
)
def test_measurement_matches_block_loop(d, hidden):
    cases = _hidden_cases(d) if hidden else _reference_cases(d) + _perturbed_cases(d)
    for sc, r in cases:
        ops = build_criterion_ops(r, sc)
        got = measurement_equivalence(ops, r, sc)
        want = _measurement_loop(ops, r, sc)
        assert [replace(v, residual=0.0) for v in got] == [replace(v, residual=0.0) for v in want]
        assert np.max(np.abs([v.residual - w.residual for v, w in zip(got, want)])) <= 1e-15


def _off_projective(r, eps, seed):
    """`r` with a random Hermitian of norm `eps` moved from outcome 1 to
    outcome 0 of its first-party setting 0: the ladder stays complete but is
    idempotent only to about `eps`."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((2, r.dim_a, r.dim_a))
    h = g[0] + 1j * g[1] + dagger(g[0] + 1j * g[1])
    h *= eps / np.linalg.norm(h, 2)
    p = r.alice[0].projectors + np.stack([h, -h, *np.zeros((r.n_outcomes - 2, r.dim_a, r.dim_a))])
    return replace(r, alice=(Measurement(p), *r.alice[1:]))


@pytest.mark.parametrize("d", [5, 8])
def test_measurement_residuals_within_tolerance_band(d):
    # the off-pair term reads the first party through its rounded ladder,
    # not through the device's projectors and chains; on a ladder that
    # validation accepts but that is off projective by eps, the residuals
    # move by O(eps ||O psi||), not by the sqrt(eps) ~ 3e-6 that a
    # difference of squares would leave
    eps = 1e-11
    sc = random_coefficients(d, seed=1700 + d)
    ideal = ideal_realization(sc)
    for r in (ideal, embed_realization(ideal, EmbeddingSpec(extra_a=2, extra_b=1, seed=7))):
        off = _off_projective(r, eps, seed=3)
        off.validate()
        p = off.proj_a[0]
        assert np.max(np.abs(p @ p - p)) > eps / 10
        ops = build_criterion_ops(off, sc)
        got = np.array([v.residual for v in measurement_equivalence(ops, off, sc)])
        bo, mat = ops.block_ops, off.state_matrix()
        moved = np.concatenate((_alice(bo.a, mat), _bob(bo.b, mat)), axis=1)
        scale = eps * np.linalg.norm(moved, axis=(-2, -1)).ravel()
        before = measurement_equivalence(build_criterion_ops(r, sc), r, sc)
        assert np.all(np.abs(got - [v.residual for v in before]) <= 10 * scale)
        # the full image applies the device's own projectors and chains
        assert np.all(np.abs(got - _full_image_residuals(ops, off, sc)) <= scale)


def test_measurement_working_set_stays_small():
    # one call at d=16 in 20x20 peaks at a few times the moved observables
    # (n_blocks, 4, dim_a, dim_b); building the k-off-pair slices of every
    # block at once would take about 20 times
    d = 16
    sc = random_coefficients(d, seed=1600)
    r = embed_realization(ideal_realization(sc), EmbeddingSpec(4, 4, 7))
    ops = build_criterion_ops(r, sc)
    measurement_equivalence(ops, r, sc)
    moved_bytes = len(ops.block_ops.table) * 4 * r.dim_a * r.dim_b * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        measurement_equivalence(ops, r, sc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (r.dim_a, r.dim_b) == (20, 20)
    assert peak <= 10 * moved_bytes


def _criterion_loop(ops, r, sc):
    """Reference: the chain criterion evaluated one outcome at a time."""
    mat = r.state_matrix()
    c = sc.c
    projector_match, chain_map, chain_adj = np.zeros((3, ops.d))
    extra = _alice(ops.p_a[0], mat)
    for k in range(ops.d):
        ratio = c[k] / c[0]
        projector_match[k] = np.linalg.norm(_alice(ops.p_a[k], mat) - _bob(ops.p_b[k], mat))
        lhs = _alice(ops.x_a[k], _bob(ops.x_b[k] @ ops.p_b[k], mat))
        chain_map[k] = np.linalg.norm(lhs - ratio * extra)
        lhs_adj = _alice(ops.x_a[k] @ ops.p_a[k], mat)
        chain_adj[k] = np.linalg.norm(lhs_adj - ratio * _bob(dagger(ops.x_b[k]), extra))
    rounding = sum(
        np.linalg.norm(_bob(p - p_cut, mat)) ** 2 for p, p_cut in zip(ops.p_b, ops.p_cut)
    )
    return CriterionReport(
        projector_match=projector_match,
        chain_map=chain_map,
        chain_map_adjoint=chain_adj,
        ladder_rounding=float(rounding),
    )


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
def test_criterion_matches_outcome_loop(d):
    for sc, r in _reference_cases(d):
        ops = build_criterion_ops(r, sc)
        got = check_criterion(ops, r, sc)
        want = _criterion_loop(ops, r, sc)
        for f in fields(CriterionReport):
            assert np.max(np.abs(getattr(got, f.name) - getattr(want, f.name))) <= 1e-15
        # each rounded projector is onto the eigenvectors of its label
        for k in range(ops.d):
            u = ops.v_b[:, ops.label_b == k]
            assert np.max(np.abs(ops.p_b[k] - u @ dagger(u))) <= 1e-15


def _criterion_ops_loop(r, sc):
    """Reference: the ladders and chains built from a whole frame per block,
    one eigendecomposition at a time."""
    d = sc.d
    block_ops = _block_operators_loop(r, sc)
    frame_ops = [_block_frame_loop(b) for b in block_ops]
    n_blocks = d // 2
    cuts = list(zip(block_ops[:n_blocks], frame_ops[:n_blocks]))
    # For odd d no unprimed block holds d-1: the last primed block cuts it.
    if d % 2:
        cuts.append((block_ops[-1], frame_ops[-1]))
    p_cut = [np.zeros((r.dim_b, r.dim_b)) for _ in range(d)]
    for b, frame in cuts:
        w, v = np.linalg.eigh(b.ib0 + b.ib1)
        keep = v[:, w > 1.0]
        support = keep @ dagger(keep)
        z_cut = support @ frame.zb @ support
        if not b.block.primed:
            p_cut[b.block.lo] = (support + z_cut) / 2.0
        p_cut[b.block.hi] = (support - z_cut) / 2.0
    label = sum(k * p for k, p in enumerate(p_cut))
    w, v = np.linalg.eigh((label + dagger(label)) / 2)
    labels = np.clip(np.rint(w), 0, d - 1).astype(int)
    steps = [f for pair in zip(frame_ops[:n_blocks], frame_ops[n_blocks:]) for f in pair]
    p_b = np.stack([u @ dagger(u) for u in (v[:, labels == k] for k in range(d))])
    x_a = _chain(np.stack([f.xa for f in steps[: d - 1]]))
    x_b = _chain(np.stack([f.xb for f in steps[: d - 1]]))
    return {
        "p_b": p_b,
        "p_cut": np.stack(p_cut),
        "x_a": x_a,
        "x_b": x_b,
        "arm_a": np.stack([x @ p for x, p in zip(x_a, r.alice[0].projectors)]),
        "arm_b": np.stack([x @ p for x, p in zip(x_b, p_b)]),
        "label_b": labels,
    }


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 8, 9, 15])
def test_criterion_ops_match_block_loop(d):
    for sc, r in _reference_cases(d):
        ops = build_criterion_ops(r, sc)
        for name, want in _criterion_ops_loop(r, sc).items():
            got = getattr(ops, name)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-15


@pytest.mark.parametrize("d", [2, 3, 8, 16])
def test_criterion_ops_three_eigendecompositions(d, monkeypatch):
    # the cut frames and the chain steps share one stacked call, the cut
    # supports another, the label operator the third, whatever d is
    sc = random_coefficients(d, seed=1400 + d)
    r = embed_realization(ideal_realization(sc), EmbeddingSpec(extra_a=1, extra_b=2, seed=3))
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    build_criterion_ops(r, sc)
    assert len(calls) == 3


@pytest.mark.parametrize("d", [2, 3, 8])
def test_real_devices_stay_real_through_extraction(d):
    sc, (ideal, embedded, _) = _devices(d)
    for r, dtype in ((ideal, np.float64), (embedded, np.complex128)):
        ops = build_criterion_ops(r, sc)
        _, rep = apply_isometry(ops, r, sc)
        for a in (*ops.x_a, *ops.x_b, *ops.p_b, *ops.arm_a, *ops.arm_b, rep.rho_ancilla):
            assert a.dtype == dtype


def test_extraction_report_roundup():
    sc = random_coefficients(3, seed=18)
    r = ideal_realization(sc)
    rep = extraction_report(r, sc)
    assert rep.passes()
    assert rep.max_criterion_residual() < 1e-12
    assert rep.max_measurement_residual() < 1e-12
    assert rep.passes(fidelity_min=1 - 1e-12, residual_tol=1e-11)


def test_extraction_fails_on_wrong_claim():
    # realization produces one state, the claim says another
    sc_true = SchmidtCoefficients(np.array([0.8, 0.6]))
    sc_claim = SchmidtCoefficients(np.array([0.6, 0.8]))
    r = ideal_realization(sc_true)
    rep = extraction_report(r, sc_claim)
    assert not rep.passes()


def test_report_verdict_propagates_nan_residuals():
    # a NaN after the first value must fail the verdict, not be skipped
    nan = float("nan")
    rep = ExtractionReport(
        projector_residuals=np.zeros(2),
        chain_residuals=np.array([0.0, nan]),
        chain_adjoint_residuals=np.zeros(2),
        ladder_rounding=0.0,
        output_norm=1.0,
        fidelity=1.0,
        product_overlap=1.0,
        measurement_residuals=[
            MeasurementResidual(side="A", setting=0, m=0, primed=False, residual=r)
            for r in (0.0, nan)
        ],
    )
    assert np.isnan(rep.max_criterion_residual())
    assert np.isnan(rep.max_measurement_residual())
    assert not rep.passes()
