"""Certification pipeline: from block operators to the extraction isometry.

Given any realization whose tables match the reference, this module builds
the local operators that pull the target state out of the unknown one. The
stages mirror the proof structure:

1. Block observables. For each block of :func:`selftesting.schmidt.blocks`
   and each of its settings, the difference of the two outcome projectors
   is a two-outcome observable supported on the block; the sum is the
   block identity.
2. Unitarized block frame. The first party's observables extend to
   reflections by acting as +1 off the block. The second party's tilted
   observables combine into ``(B0 + B1) / (2 cos mu)`` and
   ``(B0 - B1) / (2 sin mu)``, whose sign-unitarizations play the roles of
   Z and X on that side. On the normalized block state these satisfy the
   two anchor identities: Z agreement across parties, and the flip
   identity with slope tan(theta).
3. Outcome projector ladder. The first party uses its computational
   projectors directly. The second party's ladder is first cut from the
   block frame: with P the orthogonal projector onto the eigenvectors of
   the combined block identity ``1_m^{B_0} + 1_m^{B_1}`` with eigenvalue
   above 1, and Zt the compressed Z, the cut pair is ``(P + Zt)/2`` and
   ``(P - Zt)/2``. When d is odd the top outcome is the unprimed corner
   and is cut from the last primed block instead. The cut ladder is
   orthogonal only for exact inputs, so it is rounded: each eigenvector of
   the Hermitian part of the label operator ``L = sum_k k P_cut^(k)`` gets
   the nearest label in 0..d-1, and ``P^(k)`` projects onto the
   eigenvectors labelled k. These are orthogonal and complete by
   construction; the range no block covers has label 0. The on-state
   rounding displacement ``sum_k ||(P^(k) - P_cut^(k))|psi>||^2`` is
   reported and vanishes for exact inputs.
4. Flip chains. Walking the outcome ladder alternates unprimed and primed
   flips: ``X^(2m+1) = X^(2m) X_m`` and ``X^(2m+2) = X^(2m+1) Y_m``, with
   ``X^(0) = identity``. The chain criterion states that the chains steer
   every outcome's weight onto outcome 0 with ratio c_k / c_0.
5. The extraction isometry deposits the target state on an ancilla pair,
   with the leftover state factored out. The paper writes it as a circuit
   on each side: ancilla Fourier F, controlled phase powers Z^j with
   ``Z = sum_k omega^k P^(k)``, inverse Fourier, controlled flip chains
   X^(k). For exact projectors its first three stages send ``|psi>|0>`` to
   ``sum_k P^(k)|psi>|k>``, and the flip stage then applies ``X^(k)`` next
   to ancilla k. So on each side ``V = sum_k X^(k) P^(k) (x) |k>``, and
   on both sides
   ``V|psi> = sum_{k,l} (X_A^(k) P_A^(k) (x) X_B^(l) P_B^(l))|psi>|k,l>``,
   computed as one contraction against two stacks of d operators. The
   ladders are projective and the flips unitary, so V is an isometry on
   every valid realization, not only on exact ones.
6. Measurement equivalence. A block observable O moves the state to M,
   ``O|psi>`` in matrix form, whose image has slice ``(k, l)`` equal to
   ``A_k M B_l^T`` with ``A_k = X_A^(k) P_A^(k)`` and
   ``B_l = X_B^(l) P_B^(l)``. The ideal image is ``t_kl J``: t is the ideal
   observable on the target state, nonzero only for k and l in the block's
   pair K, and J is the junk state. The residual is summed from slice
   norms, without the d^2 slices:
   ``residual^2 = sum_{k not in K} ||A_k M||^2
   + sum_{k in K} ||A_k M conj(U_notK)||^2
   + sum_{k,l in K} ||A_k M B_l^T - t_kl J||^2``,
   where the columns of ``U_notK`` are the eigenvectors of L labelled
   outside K. The second party's side may be collapsed because it is an
   isometry by construction: ``P_B^(l) = U_l U_l^dagger`` and every
   ``X_B^(l)`` is a product of sign-unitarized operators, so the slice
   norms over l outside K sum to ``||A_k M conj(U_notK)||^2``, and over
   every l to ``||A_k M||^2``. The first party's side may not: its
   projectors are the device's own, valid only to a tolerance, so
   ``X_A^(k) P_A^(k)`` is applied as it is. Each term is a sum of
   squares, never a difference, so the float error stays at
   ``eps ||M||``.

Each ladder and chain is stored once, as a ``(d, dim, dim)`` stack indexed
by the outcome k (:class:`CriterionOperators`). The criterion residuals are
batched expressions over k, and the stacks ``X^(k) P^(k)`` of steps 5 and 6
are one stacked product per side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateBlockError,
    HermiticityError,
    IsometryConsistencyError,
    NormalizationError,
)
from .ideal import Realization
from .schmidt import Block, SchmidtCoefficients, blocks, corner, target_state

__all__ = [
    "BlockOperators",
    "BlockIdentityReport",
    "BlockFrame",
    "FrameReport",
    "CriterionOperators",
    "CriterionReport",
    "IsometryReport",
    "MeasurementResidual",
    "ExtractionReport",
    "build_block_operators",
    "block_identity_checks",
    "build_block_frame",
    "frame_identity_checks",
    "build_criterion_ops",
    "check_criterion",
    "apply_isometry",
    "measurement_equivalence",
    "extraction_report",
]

#: Claimed block mass below which block states cannot be normalized.
MASS_FLOOR = 1e-12

#: Allowed deviation of the isometry output norm from the input norm.
NORM_BUDGET = 1e-6

#: Eigenvalues within this of zero are sent to +1 by `sign_unitarize`.
ZERO_TOL = 1e-10


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.swapaxes(a.conj(), -1, -2)


def sign_unitarize(h: np.ndarray, zero_tol: float = ZERO_TOL) -> np.ndarray:
    """Sign function of the Hermitian part of `h`, zero eigenspace sent to +1.

    Eigenvalues below ``-zero_tol`` map to -1; everything else, including
    the band around zero, maps to +1. The result is Hermitian and unitary,
    and commutes with ``(h + h^dagger) / 2``.
    """
    w, v = np.linalg.eigh((h + dagger(h)) / 2)
    signs = np.where(w < -zero_tol, -1.0, 1.0)
    return (v * signs) @ dagger(v)


def pure_fidelity(
    rho: np.ndarray, target: np.ndarray, *, trace_tol: float = 1e-8
) -> float:
    """Fidelity of a density matrix against a pure target state.

    Equals ``<target| rho |target>``. `rho` must be Hermitian with unit
    trace within `trace_tol`; `target` must be a unit vector.
    """
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"rho must be a square matrix, got shape {rho.shape}")
    target = np.asarray(target).reshape(-1)
    if target.size != rho.shape[0]:
        raise ValueError(
            f"target length {target.size} does not match rho dimension {rho.shape[0]}"
        )
    tr = np.trace(rho)
    if abs(tr - 1.0) > trace_tol:
        raise NormalizationError(f"rho trace {tr} deviates from 1 beyond {trace_tol:.1e}")
    dev = np.max(np.abs(rho - dagger(rho)))
    if dev > trace_tol:
        raise HermiticityError(f"rho deviates from Hermitian by {dev:.3e}")
    nrm = np.linalg.norm(target)
    if abs(nrm - 1.0) > 1e-12:
        raise NormalizationError(f"target norm {nrm} deviates from 1 beyond 1e-12")
    val = float(np.real(target.conj() @ rho @ target))
    # PSD rho keeps this in [0, 1]; trim float dust only.
    return min(max(val, 0.0), 1.0)


def _alice(op: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Apply a first-party operator, or each of a stack, to a state in matrix form."""
    return op @ mat


def _bob(op: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Apply a second-party operator, or each of a stack, to a state in matrix form."""
    return mat @ np.swapaxes(op, -1, -2)


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """Squared norm of each entry of a stack, taken over all its other axes."""
    x = x.reshape(len(x), -1)
    return np.einsum("ij,ij->i", x, x.conj()).real


@dataclass(frozen=True)
class BlockOperators:
    """Per-block two-outcome observables and block identities.

    ``a0/a1`` are the first party's observables for the block's settings
    ``block.xs``, ``b0/b1`` the second party's for ``block.ys``. ``ia0``
    and friends are the matching block identities (sums instead of
    differences).
    """

    block: Block
    a0: np.ndarray
    a1: np.ndarray
    b0: np.ndarray
    b1: np.ndarray
    ia0: np.ndarray
    ia1: np.ndarray
    ib0: np.ndarray
    ib1: np.ndarray


def build_block_operators(r: Realization, b: Block) -> BlockOperators:
    """Block observables of realization `r` for block `b`."""
    pa = [r.alice[x].projectors for x in b.xs]
    pb = [r.bob[y].projectors for y in b.ys]
    lo, hi = b.lo, b.hi
    return BlockOperators(
        block=b,
        a0=pa[0][lo] - pa[0][hi],
        a1=pa[1][lo] - pa[1][hi],
        b0=pb[0][lo] - pb[0][hi],
        b1=pb[1][lo] - pb[1][hi],
        ia0=pa[0][lo] + pa[0][hi],
        ia1=pa[1][lo] + pa[1][hi],
        ib0=pb[0][lo] + pb[0][hi],
        ib1=pb[1][lo] + pb[1][hi],
    )


@dataclass(frozen=True)
class BlockIdentityReport:
    """On-state residuals tying the four block identities together.

    ``cross[i][j]`` is the norm of ``(1_m^{A_i} - 1_m^{B_j}) |psi>``;
    ``mass_residual`` is how far the measured block weight sits from the
    claimed one.
    """

    m: int
    primed: bool
    cross: np.ndarray
    mass_residual: float


def block_identity_checks(b: BlockOperators, r: Realization) -> BlockIdentityReport:
    """Residuals of the block-identity equalities on the state."""
    mat = r.state_matrix()
    ia = (b.ia0, b.ia1)
    ib = (b.ib0, b.ib1)
    cross = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            cross[i, j] = np.linalg.norm(_alice(ia[i], mat) - _bob(ib[j], mat))
    measured = float(np.linalg.norm(_alice(b.ia0, mat)))
    return BlockIdentityReport(
        m=b.block.m,
        primed=b.block.primed,
        cross=cross,
        mass_residual=abs(measured - np.sqrt(b.block.mass)),
    )


@dataclass(frozen=True)
class BlockFrame:
    """Unitarized Z/X frame of one block, both parties."""

    block: Block
    za: np.ndarray
    xa: np.ndarray
    zb: np.ndarray
    xb: np.ndarray


def _reflect(identity_block: np.ndarray, observable: np.ndarray) -> np.ndarray:
    """Extend a block observable to a reflection: +1 off the block."""
    dim = identity_block.shape[0]
    return np.eye(dim) - identity_block + observable


def build_block_frame(b: BlockOperators) -> BlockFrame:
    """Unitarized block frame from the block observables.

    The first party's observables are extended to reflections directly.
    The second party's combinations pick up a zero eigenspace only in
    degenerate realizations; sign-unitarization sends it to +1.
    """
    mu = b.block.mu
    b0u = _reflect(b.ib0, b.b0)
    b1u = _reflect(b.ib1, b.b1)
    z_star = (b0u + b1u) / (2.0 * np.cos(mu))
    x_star = (b0u - b1u) / (2.0 * np.sin(mu))
    return BlockFrame(
        block=b.block,
        za=_reflect(b.ia0, b.a0),
        xa=_reflect(b.ia1, b.a1),
        zb=sign_unitarize(z_star, ZERO_TOL),
        xb=sign_unitarize(x_star, ZERO_TOL),
    )


@dataclass(frozen=True)
class FrameReport:
    """Residuals of the two anchor identities on the normalized block state."""

    m: int
    primed: bool
    z_residual: float
    flip_residual: float


def frame_identity_checks(frame: BlockFrame, b: BlockOperators, r: Realization) -> FrameReport:
    """Check Z agreement and the tan(theta) flip identity for one block.

    Both are evaluated on the block state ``1_m^{A_0}|psi>`` normalized by
    the claimed mass, so a realization lying about its coefficients shows
    up here rather than being silently renormalized away.
    """
    blk = b.block
    if blk.mass <= MASS_FLOOR:
        raise DegenerateBlockError(
            f"block ({blk.m}, primed={blk.primed}) claimed mass {blk.mass:.3e} below floor"
        )
    mat = _alice(b.ia0, r.state_matrix()) / np.sqrt(blk.mass)
    dim_a = r.dim_a
    z_res = np.linalg.norm(_alice(frame.za, mat) - _bob(frame.zb, mat))
    lhs = _alice(frame.xa @ (np.eye(dim_a) - frame.za), mat)
    rhs = np.tan(blk.theta) * _bob(frame.xb, _alice(np.eye(dim_a) + frame.za, mat))
    return FrameReport(
        m=blk.m,
        primed=blk.primed,
        z_residual=float(z_res),
        flip_residual=float(np.linalg.norm(lhs - rhs)),
    )


@dataclass
class CriterionOperators:
    """Everything the chain criterion and the isometry consume.

    Each ladder and chain is one ``(d, dim, dim)`` stack indexed by
    outcome k. ``p_a[k]`` and ``p_b[k]`` are the outcome-k projectors on
    the two sides, each ladder orthogonal and complete; ``p_cut[k]`` is the
    second party's ladder as cut from the block frames, before rounding;
    ``x_a[k]`` / ``x_b[k]`` the flip chains. The columns of ``v_b`` are the
    eigenvectors of the label operator and ``label_b`` holds each column's
    label, so ``p_b[k]`` projects onto ``v_b[:, label_b == k]``. `block_ops`
    and `frame_ops` keep the per-block structures for reuse, in
    :func:`blocks` order.
    """

    d: int
    dim_a: int
    dim_b: int
    p_a: np.ndarray
    p_b: np.ndarray
    v_b: np.ndarray
    label_b: np.ndarray
    p_cut: np.ndarray
    x_a: np.ndarray
    x_b: np.ndarray
    block_ops: tuple[BlockOperators, ...] = field(repr=False)
    frame_ops: tuple[BlockFrame, ...] = field(repr=False)


def _chain(flips: list[np.ndarray]) -> np.ndarray:
    """Stack of the running products ``1, F_0, F_0 F_1, ...`` in the flips' common dtype."""
    out = [np.eye(flips[0].shape[0], dtype=np.result_type(*flips))]
    for f in flips:
        out.append(out[-1] @ f)
    return np.stack(out)


def build_criterion_ops(r: Realization, sc: SchmidtCoefficients) -> CriterionOperators:
    """Assemble the projector ladders and the flip chains.

    The block angles come from the claimed coefficients `sc`, never from
    the realization's own statistics: an adversarial device gets measured
    against the state it claims to produce.
    """
    d = sc.d
    block_ops = tuple(build_block_operators(r, blk) for blk in blocks(sc))
    frame_ops = tuple(build_block_frame(b) for b in block_ops)
    n_blocks = d // 2

    # Second party's ladder: cut each unprimed block's frame in two. For odd
    # d the unprimed corner is the second outcome of the last primed block.
    cuts = list(zip(block_ops[:n_blocks], frame_ops[:n_blocks]))
    if corner(d, primed=False) is not None:
        cuts.append((block_ops[-1], frame_ops[-1]))
    p_cut: list[np.ndarray] = [np.zeros((r.dim_b, r.dim_b)) for _ in range(d)]
    for b, frame in cuts:
        # Exact block identities have eigenvalues 0 and 2 only.
        w, v = np.linalg.eigh(b.ib0 + b.ib1)
        keep = v[:, w > 1.0]
        support = keep @ dagger(keep)
        z_cut = support @ frame.zb @ support
        if not b.block.primed:
            p_cut[b.block.lo] = (support + z_cut) / 2.0
        p_cut[b.block.hi] = (support - z_cut) / 2.0

    # Round the cut ladder to a projective one: the eigenvectors of the
    # label operator, grouped by their nearest label.
    label = sum(k * p for k, p in enumerate(p_cut))
    w, v = np.linalg.eigh((label + dagger(label)) / 2)
    labels = np.clip(np.rint(w), 0, d - 1).astype(int)

    # Flip chains climb the ladder through unprimed block 0, primed block
    # 0, unprimed block 1, ...: step i is the block pairing (i, i+1).
    steps = [f for pair in zip(frame_ops[:n_blocks], frame_ops[n_blocks:]) for f in pair]

    return CriterionOperators(
        d=d,
        dim_a=r.dim_a,
        dim_b=r.dim_b,
        p_a=r.alice[0].projectors.copy(),
        p_b=np.stack([u @ dagger(u) for u in (v[:, labels == k] for k in range(d))]),
        v_b=v,
        label_b=labels,
        p_cut=np.stack(p_cut),
        x_a=_chain([f.xa for f in steps[: d - 1]]),
        x_b=_chain([f.xb for f in steps[: d - 1]]),
        block_ops=block_ops,
        frame_ops=frame_ops,
    )


@dataclass(frozen=True)
class CriterionReport:
    """Residuals of the two criterion conditions, per outcome.

    ``projector_match[k]`` is the projector agreement ``||(P_A^(k) - P_B^(k))|psi>||``.
    ``chain_map[k]`` is the chain condition in its two-sided form
    ``||X_A^(k) X_B^(k) P_B^(k)|psi> - (c_k/c_0) P_A^(0)|psi>||`` and
    ``chain_map_adjoint[k]`` the equivalent single-sided form with the second
    party's chain moved to the other side as an adjoint; both are reported
    because they differ in how they consume the projector agreement.
    ``ladder_rounding`` is ``sum_k ||(P_B^(k) - P_cut^(k))|psi>||^2``, how far
    rounding the cut ladder to a projective one moved the state.
    """

    projector_match: np.ndarray
    chain_map: np.ndarray
    chain_map_adjoint: np.ndarray
    ladder_rounding: float


def check_criterion(
    ops: CriterionOperators, r: Realization, sc: SchmidtCoefficients
) -> CriterionReport:
    """Evaluate the chain criterion residuals on the realization."""
    mat = r.state_matrix()
    ratio = (sc.c / sc.c[0])[:, None, None]
    extra = _alice(ops.p_a[0], mat)
    lhs = _alice(ops.x_a, _bob(ops.x_b @ ops.p_b, mat))
    lhs_adj = _alice(ops.x_a @ ops.p_a, mat)
    return CriterionReport(
        projector_match=np.sqrt(_sq_norms(_alice(ops.p_a, mat) - _bob(ops.p_b, mat))),
        chain_map=np.sqrt(_sq_norms(lhs - ratio * extra)),
        chain_map_adjoint=np.sqrt(_sq_norms(lhs_adj - ratio * _bob(dagger(ops.x_b), extra))),
        ladder_rounding=float(np.sum(_sq_norms(_bob(ops.p_b - ops.p_cut, mat)))),
    )


def _apply_isometry_matrix(
    stack_a: np.ndarray, stack_b: np.ndarray, mat: np.ndarray
) -> np.ndarray:
    """Apply the extraction isometry to an arbitrary two-party vector.

    `stack_a` and `stack_b` are the two parties' ``X^(k) P^(k)`` stacks.
    Returns the amplitude tensor over (first party, second party, first
    ancilla, second ancilla):
    ``V|psi> = sum_{k,l} (X_A^(k) P_A^(k) (x) X_B^(l) P_B^(l))|psi>|k,l>``.

    This is the contraction ``"kia,ab,ljb->ijkl"``, done as two matrix
    products because einsum's path search costs more than the products
    themselves at small d.
    """
    d, dim_a, _ = stack_a.shape
    dim_b = stack_b.shape[1]
    half = (stack_a @ mat).reshape(d * dim_a, dim_b)
    out = half @ stack_b.reshape(d * dim_b, dim_b).T
    return out.reshape(d, dim_a, d, dim_b).transpose(1, 3, 0, 2)


def _junk_state(ops: CriterionOperators, mat: np.ndarray) -> np.ndarray:
    """Predicted leftover state: ``P_A^(0)|psi>`` normalized by its own norm."""
    junk = _alice(ops.p_a[0], mat)
    norm = np.linalg.norm(junk)
    return junk / norm if norm > 0 else junk


@dataclass(frozen=True)
class IsometryReport:
    """Quality of the extraction output.

    ``fidelity`` is the ancilla-pair fidelity with the target state after
    tracing out the original systems; ``product_overlap`` additionally
    requires the original systems to factor into the predicted junk state,
    so it lower-bounds ``fidelity``.
    """

    output_norm: float
    fidelity: float
    product_overlap: float
    rho_ancilla: np.ndarray


def apply_isometry(
    ops: CriterionOperators, r: Realization, sc: SchmidtCoefficients
) -> tuple[np.ndarray, IsometryReport]:
    """Extract the target state onto the ancilla pair.

    Returns the output amplitudes as a flat vector over (first party,
    second party, first ancilla, second ancilla), row-major, together with
    the quality report. A norm drift beyond ``NORM_BUDGET`` means the
    operators fed in were far from unitary and the run is rejected.
    """
    mat = r.state_matrix()
    psi = _apply_isometry_matrix(ops.x_a @ ops.p_a, ops.x_b @ ops.p_b, mat)
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > NORM_BUDGET:
        raise IsometryConsistencyError(
            f"isometry output norm {norm!r} drifted beyond {NORM_BUDGET:.0e}"
        )
    d = ops.d
    flat = psi.reshape(ops.dim_a * ops.dim_b, d * d)
    rho = flat.T @ flat.conj()
    target = target_state(sc)
    target /= np.linalg.norm(target)
    fid = pure_fidelity(rho, target, trace_tol=2 * NORM_BUDGET)
    amp = _junk_state(ops, mat).conj().ravel() @ flat @ target.conj()
    return psi.reshape(-1), IsometryReport(
        output_norm=norm,
        fidelity=float(fid),
        # Bounded by the unclipped fidelity; trim the float dust that
        # pure_fidelity's clip to 1 would otherwise expose.
        product_overlap=min(float(np.abs(amp) ** 2), fid),
        rho_ancilla=rho,
    )


@dataclass(frozen=True)
class MeasurementResidual:
    """Mismatch of one transported block observable against its ideal."""

    side: str
    setting: int
    m: int
    primed: bool
    residual: float


def _two_level(zz: float, xx: float) -> np.ndarray:
    """The operator zz * Z + xx * X on a block's (lo, hi) two-level subspace."""
    return np.array([[zz, xx], [xx, -zz]])


def measurement_equivalence(
    ops: CriterionOperators, r: Realization, sc: SchmidtCoefficients
) -> list[MeasurementResidual]:
    """Transport each block observable through the isometry.

    For every block and each of its settings, compares the isometry image
    of ``O |psi>`` with the ideal block observable acting on the target
    state next to the factored junk state. Small residuals certify the
    measurements themselves, not just the state.

    The image is never built whole: each residual is summed from slice
    norms as in step 6 of the module docstring, with exact slices only on
    the block's own pair of ancilla values.
    """
    d, dim_a, dim_b = ops.d, ops.dim_a, ops.dim_b
    mat = r.state_matrix()
    stack_a, stack_b = ops.x_a @ ops.p_a, ops.x_b @ ops.p_b
    junk = _junk_state(ops, mat)
    basis = ops.v_b.conj()
    out: list[MeasurementResidual] = []
    for b in ops.block_ops:
        blk = b.block
        pair = list(blk.pair)
        cos, sin = np.cos(blk.mu), np.sin(blk.mu)
        # Each observable with its ideal image, on the pair x pair slices
        # where that image lives: the target there is diag(c), so the first
        # party's Z or X gives Z diag(c) or X diag(c), and the second
        # party's symmetric B gives diag(c) B.
        c = sc.c[pair]
        rows = (
            ("A", blk.xs[0], _alice(b.a0, mat), _two_level(1.0, 0.0) * c),
            ("A", blk.xs[1], _alice(b.a1, mat), _two_level(0.0, 1.0) * c),
            ("B", blk.ys[0], _bob(b.b0, mat), c[:, None] * _two_level(cos, sin)),
            ("B", blk.ys[1], _bob(b.b1, mat), c[:, None] * _two_level(cos, -sin)),
        )
        sides, settings, moved, ideal = zip(*rows)
        moved = np.array(moved)
        rest = np.ones(d, dtype=bool)
        rest[pair] = False
        # X_A^(k) P_A^(k) O |psi> for each observable O, k on the pair and
        # off it, each as one product against the stacked rows.
        inside = stack_a[pair].reshape(2 * dim_a, dim_a) @ moved
        outside = stack_a[rest].reshape(-1, dim_a) @ moved
        # Image slices (k, l) with both on the pair, less the ideal image,
        # indexed (observable, k, first party, l, second party).
        slices = inside.reshape(8 * dim_a, dim_b) @ stack_b[pair].reshape(2 * dim_b, dim_b).T
        slices = slices.reshape(4, 2, dim_a, 2, dim_b)
        slices -= np.array(ideal)[:, :, None, :, None] * junk[:, None]
        # The three terms of step 6: k off the pair; k on it and l off it;
        # both on it.
        off_pair = inside @ basis[:, rest[ops.label_b]]
        sq = _sq_norms(outside) + _sq_norms(off_pair) + _sq_norms(slices)
        out.extend(
            MeasurementResidual(
                side=side, setting=setting, m=blk.m, primed=blk.primed, residual=float(np.sqrt(s))
            )
            for side, setting, s in zip(sides, settings, sq)
        )
    return out


@dataclass(frozen=True)
class ExtractionReport:
    """Full certification record for one realization."""

    projector_residuals: np.ndarray
    chain_residuals: np.ndarray
    chain_adjoint_residuals: np.ndarray
    ladder_rounding: float
    output_norm: float
    fidelity: float
    product_overlap: float
    measurement_residuals: list[MeasurementResidual]

    # Fold with numpy, which propagates a NaN that the builtin max would drop.
    def max_criterion_residual(self) -> float:
        return float(
            np.max(
                np.concatenate(
                    (self.projector_residuals, self.chain_residuals, self.chain_adjoint_residuals)
                )
            )
        )

    def max_measurement_residual(self) -> float:
        return float(np.max([v.residual for v in self.measurement_residuals]))

    def passes(self, *, fidelity_min: float = 1 - 1e-6, residual_tol: float = 1e-6) -> bool:
        return (
            self.fidelity >= fidelity_min
            and self.max_criterion_residual() <= residual_tol
            and self.max_measurement_residual() <= residual_tol
        )


def extraction_report(r: Realization, sc: SchmidtCoefficients) -> ExtractionReport:
    """Run the whole pipeline on a realization and collect every residual."""
    ops = build_criterion_ops(r, sc)
    crit = check_criterion(ops, r, sc)
    _, iso = apply_isometry(ops, r, sc)
    meas = measurement_equivalence(ops, r, sc)
    return ExtractionReport(
        projector_residuals=crit.projector_match,
        chain_residuals=crit.chain_map,
        chain_adjoint_residuals=crit.chain_map_adjoint,
        ladder_rounding=crit.ladder_rounding,
        output_norm=iso.output_norm,
        fidelity=iso.fidelity,
        product_overlap=iso.product_overlap,
        measurement_residuals=meas,
    )
