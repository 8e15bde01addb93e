from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from conftest import random_coefficients
from selftesting import (
    EmbeddingSpec,
    SchmidtCoefficients,
    angles,
    apply_isometry,
    block_identity_checks,
    blocks,
    build_block_operators,
    build_criterion_ops,
    build_block_frame,
    check_criterion,
    embed_realization,
    extraction_report,
    ideal_realization,
    frame_identity_checks,
    measurement_equivalence,
)
from selftesting.errors import DegenerateBlockError, IsometryConsistencyError
from selftesting.extraction import (
    ExtractionReport,
    MeasurementResidual,
    _apply_isometry_matrix,
    _ladder_stack,
)
from selftesting.ideal import Measurement, Realization
from selftesting.qlinalg import SIGMA_X, SIGMA_Z, dagger


def test_block_operators_d2_are_paulis():
    sc = SchmidtCoefficients(np.array([0.8, 0.6]))
    r = ideal_realization(sc)
    b = build_block_operators(r, blocks(sc)[0])
    assert np.allclose(b.a0, SIGMA_Z, atol=1e-14)
    assert np.allclose(b.a1, SIGMA_X, atol=1e-14)
    assert np.allclose(b.ia0, np.eye(2), atol=1e-14)
    assert np.allclose(b.ia1, np.eye(2), atol=1e-14)
    # second party's observables are the two tilted combinations
    mu = angles(sc).mu[0]
    assert np.allclose(b.b0, np.cos(mu) * SIGMA_Z + np.sin(mu) * SIGMA_X, atol=1e-14)
    assert np.allclose(b.b1, np.cos(mu) * SIGMA_Z - np.sin(mu) * SIGMA_X, atol=1e-14)


def test_block_identity_checks_ideal():
    for d in (2, 3, 4, 5):
        sc = random_coefficients(d, seed=900 + d)
        r = ideal_realization(sc)
        for blk in blocks(sc):
            b = build_block_operators(r, blk)
            rep = block_identity_checks(b, r)
            assert np.max(rep.cross) < 1e-12
            assert rep.mass_residual < 1e-12


def test_block_frame_d2():
    sc = SchmidtCoefficients(np.array([0.8, 0.6]))
    r = ideal_realization(sc)
    b = build_block_operators(r, blocks(sc)[0])
    frame = build_block_frame(b)
    assert np.allclose(frame.za, SIGMA_Z, atol=1e-12)
    assert np.allclose(frame.xa, SIGMA_X, atol=1e-12)
    assert np.allclose(frame.zb, SIGMA_Z, atol=1e-12)
    assert np.allclose(frame.xb, SIGMA_X, atol=1e-12)


def test_frame_identity_checks_ideal():
    for d in (2, 3, 4, 6):
        sc = random_coefficients(d, seed=950 + d)
        r = ideal_realization(sc)
        for blk in blocks(sc):
            b = build_block_operators(r, blk)
            frame = build_block_frame(b)
            rep = frame_identity_checks(frame, b, r)
            assert rep.z_residual < 1e-12
            assert rep.flip_residual < 1e-12


def test_frame_rejects_vanishing_claimed_mass():
    eps = 1e-7
    c = np.array([np.sqrt(1 - 2 * eps**2), eps, eps])
    sc = SchmidtCoefficients(c)
    r = ideal_realization(sc)
    # the only primed block, pairing (1, 2)
    b = build_block_operators(r, blocks(sc)[-1])
    frame = build_block_frame(b)
    with pytest.raises(DegenerateBlockError):
        frame_identity_checks(frame, b, r)


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
    # phase operators are the diagonal root-of-unity ladder
    want = np.diag(ops.omega ** np.arange(d))
    assert np.allclose(ops.z_a, want, atol=1e-12)
    assert np.allclose(ops.z_b, want, atol=1e-10)


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
    for u in (ops.z_a, ops.z_b, *ops.x_a, *ops.x_b):
        assert np.max(np.abs(dagger(u) @ u - np.eye(u.shape[0]))) < 1e-9


def test_block_frames_hermitian_unitary_embedded():
    sc = random_coefficients(4, seed=22)
    r = embed_realization(
        ideal_realization(sc), EmbeddingSpec(extra_a=2, extra_b=1, seed=7)
    )
    ops = build_criterion_ops(r, sc)
    for frame in ops.frame_ops:
        for u in (frame.za, frame.xa, frame.zb, frame.xb):
            assert np.max(np.abs(u - dagger(u))) < 1e-9
            assert np.max(np.abs(u @ u - np.eye(u.shape[0]))) < 1e-9


def test_flip_chain_products():
    # chain k multiplies alternating unprimed/primed single-block flips
    sc = random_coefficients(4, seed=15)
    r = ideal_realization(sc)
    ops = build_criterion_ops(r, sc)
    # frame_ops follow blocks(sc): unprimed 0, unprimed 1, primed 0, primed 1
    xa_u0 = ops.frame_ops[0].xa
    xa_p0 = ops.frame_ops[2].xa
    xa_u1 = ops.frame_ops[1].xa
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
        assert rep.pb_orthogonality_sum < 1e-20
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


def _stacks(ops):
    return (
        _ladder_stack(ops.z_a, ops.x_a, ops.omega),
        _ladder_stack(ops.z_b, ops.x_b, ops.omega),
    )


def _circuit(ops, mat):
    """Reference: the paper's four-stage circuit, stage by stage.

    Ancilla Fourier, controlled phase powers, inverse Fourier, controlled
    flip chains, each applied to both ancillas.
    """
    d = ops.d
    grid = np.arange(d)
    f = ops.omega ** np.outer(grid, grid) / np.sqrt(d)

    def fourier(psi, f):
        return np.einsum("kj,lm,abjm->abkl", f, f, psi)

    def controlled(psi, ops_a, ops_b):
        psi = psi.copy()
        for k in range(1, d):
            psi[:, :, k, :] = np.einsum("ia,abl->ibl", ops_a[k], psi[:, :, k, :])
            psi[:, :, :, k] = np.einsum("jb,abk->ajk", ops_b[k], psi[:, :, :, k])
        return psi

    def powers(z):
        out = [np.eye(z.shape[0], dtype=complex)]
        for _ in range(1, d):
            out.append(out[-1] @ z)
        return out

    psi = np.zeros((*mat.shape, d, d), dtype=complex)
    psi[:, :, 0, 0] = mat
    psi = fourier(psi, f)
    psi = controlled(psi, powers(ops.z_a), powers(ops.z_b))
    psi = fourier(psi, dagger(f))
    return controlled(psi, ops.x_a, ops.x_b)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_closed_form_matches_circuit(d):
    rng = np.random.default_rng(40 + d)
    sc = random_coefficients(d, seed=40 + d)
    ideal = ideal_realization(sc)
    embedded = embed_realization(ideal, EmbeddingSpec(extra_a=2, extra_b=1, seed=d))
    for r in (ideal, embedded):
        ops = build_criterion_ops(r, sc)
        stack_a, stack_b = _stacks(ops)
        noise = rng.standard_normal((2, r.dim_a, r.dim_b))
        for mat in (r.state_matrix(), noise[0] + 1j * noise[1]):
            got = _apply_isometry_matrix(stack_a, stack_b, mat)
            assert np.max(np.abs(got - _circuit(ops, mat))) <= 1e-12


def test_pre_flip_state_ideal():
    # identity flips stop the isometry before its flip stage:
    # Pi_A^(k) (x) Pi_B^(l) |psi> = delta_kl c_k |kk>
    sc = random_coefficients(3, seed=17)
    r = ideal_realization(sc)
    ops = build_criterion_ops(r, sc)
    no_flip = [np.eye(3)] * 3
    psi = _apply_isometry_matrix(
        _ladder_stack(ops.z_a, no_flip, ops.omega),
        _ladder_stack(ops.z_b, no_flip, ops.omega),
        r.state_matrix(),
    )
    assert psi.shape == (3, 3, 3, 3)
    want = np.zeros((3, 3, 3, 3), dtype=complex)
    for i in range(3):
        want[i, i, i, i] = sc.c[i]
    assert np.max(np.abs(psi - want)) < 1e-12


def test_isometry_preserves_arbitrary_vectors():
    # the circuit is built from unitaries, so it preserves norm on any
    # input, not just the realization's state
    rng = np.random.default_rng(23)
    for d, extra in ((2, 0), (3, 2)):
        sc = random_coefficients(d, seed=30 + d)
        r = ideal_realization(sc)
        if extra:
            r = embed_realization(r, EmbeddingSpec(extra_a=extra, extra_b=extra, seed=8))
        stack_a, stack_b = _stacks(build_criterion_ops(r, sc))
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
    sc = SchmidtCoefficients(np.array([0.8, 0.6]))
    r = ideal_realization(sc)
    ops = build_criterion_ops(r, sc)
    ops.x_a[1] = 1.5 * ops.x_a[1]
    with pytest.raises(IsometryConsistencyError):
        apply_isometry(ops, r, sc)


def _perturbed(r, eps, seed):
    """`r` with Gaussian noise on its state and each measurement rotated by exp(i eps H)."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((2, r.state.size))
    state = r.state + eps * (noise[0] + 1j * noise[1])

    def rotate(meas):
        h = rng.standard_normal((2, meas.dim, meas.dim))
        h = h[0] + 1j * h[1]
        w, v = np.linalg.eigh(h + dagger(h))
        u = (v * np.exp(0.5j * eps * w)) @ dagger(v)
        return Measurement(u @ meas.projectors @ dagger(u))

    return Realization(
        r.dim_a,
        r.dim_b,
        state / np.linalg.norm(state),
        tuple(map(rotate, r.alice)),
        tuple(map(rotate, r.bob)),
    )


def test_product_overlap_bounded_by_fidelity():
    # a junk state normalized by the claimed c_0 instead of its own norm
    # let the noisy device report product_overlap = 1.125 against fidelity
    # 0.977; on the embedded one the overlap exceeds the fidelity clipped
    # to 1 by float dust
    sc = SchmidtCoefficients(np.array([0.8, 0.6]))
    ideal = ideal_realization(sc)
    noisy = _perturbed(ideal, 0.05, seed=2)
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
        pb_orthogonality_sum=0.0,
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
