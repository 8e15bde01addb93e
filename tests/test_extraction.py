from __future__ import annotations

from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import perturbed_realization, random_coefficients
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
    target_state,
)
from selftesting.errors import (
    DegenerateBlockError,
    HermiticityError,
    IsometryConsistencyError,
    NormalizationError,
)
from selftesting.extraction import (
    CriterionReport,
    ExtractionReport,
    MeasurementResidual,
    _alice,
    _apply_isometry_matrix,
    _bob,
    _junk_state,
    dagger,
    pure_fidelity,
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


def test_pure_fidelity_half():
    target = np.array([1.0, 0.0])
    rho = np.eye(2) / 2
    assert abs(pure_fidelity(rho, target) - 0.5) < 1e-14
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    assert abs(pure_fidelity(np.diag([0.64, 0.36]), plus) - 0.5) < 1e-14


def test_pure_fidelity_gates():
    target = np.array([1.0, 0.0])
    with pytest.raises(NormalizationError):
        pure_fidelity(np.eye(2), target)
    with pytest.raises(HermiticityError):
        pure_fidelity(np.array([[0.5, 0.5], [0.0, 0.5]]), target)


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
    sc = SchmidtCoefficients(np.array([0.8, 0.6]))
    r = ideal_realization(sc)
    ops = build_criterion_ops(r, sc)
    ops.x_a[1] = 1.5 * ops.x_a[1]
    with pytest.raises(IsometryConsistencyError):
        apply_isometry(ops, r, sc)


def _oblique_device(c0):
    """d=2 device whose tilted second-party projectors are exactly idempotent
    but oblique by 0.9e-10, which validation accepts."""
    sc = SchmidtCoefficients(np.array([c0, np.sqrt(1 - c0**2)]))
    r = ideal_realization(sc)
    bob = list(r.bob)
    for y in blocks(sc)[0].ys:
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
    for b in ops.block_ops:
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


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
def test_measurement_residuals_match_full_image(d):
    # even d covers the primed pair (d-1, 0) that wraps around
    sc, devices = _devices(d)
    cases = [(sc, r) for r in devices]
    if d == 2:
        cases += [_oblique_device(c0) for c0 in (0.8, 0.95, 0.99)]
    for sc, r in cases:
        ops = build_criterion_ops(r, sc)
        got = [v.residual for v in measurement_equivalence(ops, r, sc)]
        assert np.max(np.abs(got - _full_image_residuals(ops, r, sc))) <= 1e-14


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
    sc, devices = _devices(d)
    cases = [(sc, r) for r in devices]
    if d == 2:
        cases += [_oblique_device(c0) for c0 in (0.8, 0.95, 0.99)]
    for sc, r in cases:
        ops = build_criterion_ops(r, sc)
        got = check_criterion(ops, r, sc)
        want = _criterion_loop(ops, r, sc)
        for f in fields(CriterionReport):
            assert np.max(np.abs(getattr(got, f.name) - getattr(want, f.name))) <= 1e-15
        # each rounded projector is onto the eigenvectors of its label
        for k in range(ops.d):
            u = ops.v_b[:, ops.label_b == k]
            assert np.max(np.abs(ops.p_b[k] - u @ dagger(u))) <= 1e-15


@pytest.mark.parametrize("d", [2, 3, 8])
def test_real_devices_stay_real_through_extraction(d):
    sc, (ideal, embedded, _) = _devices(d)
    for r, dtype in ((ideal, np.float64), (embedded, np.complex128)):
        ops = build_criterion_ops(r, sc)
        _, rep = apply_isometry(ops, r, sc)
        stacks = (ops.x_a @ ops.p_a, ops.x_b @ ops.p_b)
        for a in (*ops.x_a, *ops.x_b, *ops.p_b, *stacks, rep.rho_ancilla):
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
