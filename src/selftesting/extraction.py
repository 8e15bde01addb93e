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
   projectors directly. The second party's projector for outcome k is cut
   from the block frame: with P the orthogonal projector onto the combined
   range of the block identities and Zt the compressed Z, the pair is
   ``(P + Zt)/2`` and ``(P - Zt)/2``. When d is odd the top outcome is the
   unprimed corner and is built from the last primed block instead.
4. Flip chains. Walking the outcome ladder alternates unprimed and primed
   flips: ``X^(2m+1) = X^(2m) X_m`` and ``X^(2m+2) = X^(2m+1) Y_m``, with
   ``X^(0) = identity``. The chain criterion states that the chains steer
   every outcome's weight onto outcome 0 with ratio c_k / c_0.
5. The extraction isometry deposits the target state on an ancilla pair,
   with the leftover state factored out. The paper writes it as a circuit
   on each side: ancilla Fourier F, controlled phase powers Z^j, inverse
   Fourier, controlled flip chains X^(k). Its first three stages,
   ``F^dagger diag(Z^j) F``, send ``|psi>|0>`` to
   ``(1/d) sum_{j,k} omega^(-jk) Z^j|psi>|k> = sum_k Pi^(k)|psi>|k>`` with
   ``Pi^(k) = (1/d) sum_j omega^(-jk) Z^j``; the flip stage then applies
   ``X^(k)`` next to ancilla k. On both sides this is the closed form
   ``V|psi> = sum_{k,l} (X_A^(k) Pi_A^(k) (x) X_B^(l) Pi_B^(l))|psi>|k,l>``,
   computed as one contraction against two stacks of d operators.

Orthogonalizing the second party's outcome projectors globally (rather
than on the state) is out of scope; the on-state orthogonality sum is
reported instead and vanishes for exact inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateBlockError, IsometryConsistencyError
from .ideal import Realization
from .qlinalg import dagger, projector_onto_range, pure_fidelity, sign_unitarize
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

#: Eigenvalue band of `projector_onto_range` when cutting the second
#: party's outcome projectors from the block identities.
RANK_TOL = 1e-8

#: Eigenvalues within this of zero are sent to +1 by `sign_unitarize`.
ZERO_TOL = 1e-10


def _alice(op: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Apply a first-party operator to a state in matrix form."""
    return op @ mat

def _bob(op: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Apply a second-party operator to a state in matrix form."""
    return mat @ op.T


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

    ``p_a[k]`` and ``p_b[k]`` are the outcome-k projectors on the two
    sides; ``x_a[k]`` / ``x_b[k]`` the flip chains; ``z_a`` / ``z_b`` the
    phase operators ``sum_k omega^k P^(k)`` (the second party padded with
    identity off the covered range); `block_ops` and `frame_ops` keep the
    per-block structures for reuse, in :func:`blocks` order.
    """

    d: int
    dim_a: int
    dim_b: int
    omega: complex
    p_a: list[np.ndarray]
    p_b: list[np.ndarray]
    x_a: list[np.ndarray]
    x_b: list[np.ndarray]
    z_a: np.ndarray
    z_b: np.ndarray
    block_ops: tuple[BlockOperators, ...] = field(repr=False)
    frame_ops: tuple[BlockFrame, ...] = field(repr=False)


def build_criterion_ops(r: Realization, sc: SchmidtCoefficients) -> CriterionOperators:
    """Assemble projector ladders, flip chains, and phase operators.

    The block angles come from the claimed coefficients `sc`, never from
    the realization's own statistics: an adversarial device gets measured
    against the state it claims to produce.
    """
    d = sc.d
    block_ops = tuple(build_block_operators(r, blk) for blk in blocks(sc))
    frame_ops = tuple(build_block_frame(b) for b in block_ops)
    n_blocks = d // 2

    p_a = [r.alice[0].projectors[k].copy() for k in range(d)]

    # Second party's ladder: cut each unprimed block's frame in two. For odd
    # d the unprimed corner is the second outcome of the last primed block.
    cuts = list(zip(block_ops[:n_blocks], frame_ops[:n_blocks]))
    if corner(d, primed=False) is not None:
        cuts.append((block_ops[-1], frame_ops[-1]))
    p_b: list[np.ndarray] = [np.zeros((r.dim_b, r.dim_b), dtype=complex) for _ in range(d)]
    for b, frame in cuts:
        support = projector_onto_range(b.ib0 + b.ib1, RANK_TOL)
        z_cut = support @ frame.zb @ support
        if not b.block.primed:
            p_b[b.block.lo] = (support + z_cut) / 2.0
        p_b[b.block.hi] = (support - z_cut) / 2.0

    # Flip chains climb the ladder through unprimed block 0, primed block
    # 0, unprimed block 1, ...: step i is the block pairing (i, i+1).
    steps = [f for pair in zip(frame_ops[:n_blocks], frame_ops[n_blocks:]) for f in pair]
    x_a: list[np.ndarray] = [np.eye(r.dim_a, dtype=complex)]
    x_b: list[np.ndarray] = [np.eye(r.dim_b, dtype=complex)]
    for frame in steps[: d - 1]:
        x_a.append(x_a[-1] @ frame.xa)
        x_b.append(x_b[-1] @ frame.xb)

    omega = complex(np.exp(2j * np.pi / d))
    phases = omega ** np.arange(d)
    z_a = sum(phases[k] * p_a[k] for k in range(d))
    covered = sum(p_b)
    z_b = sum(phases[k] * p_b[k] for k in range(d)) + np.eye(r.dim_b) - covered

    return CriterionOperators(
        d=d,
        dim_a=r.dim_a,
        dim_b=r.dim_b,
        omega=omega,
        p_a=p_a,
        p_b=p_b,
        x_a=x_a,
        x_b=x_b,
        z_a=z_a,
        z_b=z_b,
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
    ``pb_orthogonality_sum`` is ``sum_{i != j} ||P_B^(i) P_B^(j)|psi>||^2``,
    the on-state surrogate for globally orthogonalized projectors.
    """

    projector_match: np.ndarray
    chain_map: np.ndarray
    chain_map_adjoint: np.ndarray
    pb_orthogonality_sum: float


def check_criterion(
    ops: CriterionOperators, r: Realization, sc: SchmidtCoefficients
) -> CriterionReport:
    """Evaluate the chain criterion residuals on the realization."""
    mat = r.state_matrix()
    c = sc.c
    d = ops.d
    projector_match = np.zeros(d)
    chain_map = np.zeros(d)
    chain_adj = np.zeros(d)
    extra = _alice(ops.p_a[0], mat)
    for k in range(d):
        ratio = c[k] / c[0]
        projector_match[k] = np.linalg.norm(_alice(ops.p_a[k], mat) - _bob(ops.p_b[k], mat))
        lhs = _alice(ops.x_a[k], _bob(ops.x_b[k] @ ops.p_b[k], mat))
        chain_map[k] = np.linalg.norm(lhs - ratio * extra)
        lhs_adj = _alice(ops.x_a[k] @ ops.p_a[k], mat)
        chain_adj[k] = np.linalg.norm(lhs_adj - ratio * _bob(dagger(ops.x_b[k]), extra))
    ortho = 0.0
    for i in range(d):
        for j in range(d):
            if i != j:
                ortho += np.linalg.norm(_bob(ops.p_b[i] @ ops.p_b[j], mat)) ** 2
    return CriterionReport(
        projector_match=projector_match,
        chain_map=chain_map,
        chain_map_adjoint=chain_adj,
        pb_orthogonality_sum=float(ortho),
    )


def _ladder_stack(z: np.ndarray, x: list[np.ndarray], omega: complex) -> np.ndarray:
    """The stack ``X^(k) Pi^(k)`` of one party, shape ``(d, dim, dim)``.

    ``Pi^(k) = (1/d) sum_j omega^(-jk) Z^j``, with the powers of Z taken by
    repeated products, as the controlled phase stage of the circuit takes
    them. For an exactly unitary Z with spectrum in the d-th roots of unity,
    ``Pi^(k)`` is the projector onto its omega^k eigenspace.
    """
    d = len(x)
    powers = np.empty((d, *z.shape), dtype=complex)
    powers[0] = np.eye(z.shape[0])
    for j in range(1, d):
        powers[j] = powers[j - 1] @ z
    grid = np.arange(d)
    pi = np.tensordot(omega ** -np.outer(grid, grid) / d, powers, axes=1)
    return np.stack(x) @ pi


def _apply_isometry_matrix(
    stack_a: np.ndarray, stack_b: np.ndarray, mat: np.ndarray
) -> np.ndarray:
    """Apply the extraction isometry to an arbitrary two-party vector.

    `stack_a` and `stack_b` are the two parties' ``X^(k) Pi^(k)`` stacks
    from `_ladder_stack`. Returns the amplitude tensor over (first party,
    second party, first ancilla, second ancilla):
    ``V|psi> = sum_{k,l} (X_A^(k) Pi_A^(k) (x) X_B^(l) Pi_B^(l))|psi>|k,l>``.

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
    psi = _apply_isometry_matrix(
        _ladder_stack(ops.z_a, ops.x_a, ops.omega),
        _ladder_stack(ops.z_b, ops.x_b, ops.omega),
        mat,
    )
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > NORM_BUDGET:
        raise IsometryConsistencyError(
            f"isometry output norm {norm!r} drifted beyond {NORM_BUDGET:.0e}"
        )
    d = ops.d
    flat = psi.reshape(ops.dim_a * ops.dim_b, d * d)
    rho = np.einsum("ax,ay->xy", flat, flat.conj(), optimize=True)
    target = target_state(sc)
    target /= np.linalg.norm(target)
    fid = pure_fidelity(rho, target, trace_tol=2 * NORM_BUDGET)
    amp = np.einsum(
        "ab,kl,abkl->",
        _junk_state(ops, mat).conj(),
        target.reshape(d, d).conj(),
        psi,
        optimize=True,
    )
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


def _two_level(d: int, lo: int, hi: int, zz: float, xx: float) -> np.ndarray:
    """The operator zz * Z + xx * X on the (lo, hi) two-level subspace."""
    op = np.zeros((d, d), dtype=complex)
    op[lo, lo] = zz
    op[hi, hi] = -zz
    op[lo, hi] = xx
    op[hi, lo] = xx
    return op


def measurement_equivalence(
    ops: CriterionOperators, r: Realization, sc: SchmidtCoefficients
) -> list[MeasurementResidual]:
    """Transport each block observable through the isometry.

    For every block and each of its settings, compares the isometry image
    of ``O |psi>`` with the ideal block observable acting on the target
    state next to the factored junk state. Small residuals certify the
    measurements themselves, not just the state.
    """
    d = ops.d
    mat = r.state_matrix()
    stack_a = _ladder_stack(ops.z_a, ops.x_a, ops.omega)
    stack_b = _ladder_stack(ops.z_b, ops.x_b, ops.omega)
    junk = _junk_state(ops, mat)
    tgt = target_state(sc).reshape(d, d)
    out: list[MeasurementResidual] = []
    for b in ops.block_ops:
        blk = b.block
        lo, hi = blk.pair
        cos, sin = np.cos(blk.mu), np.sin(blk.mu)
        rows = (
            ("A", blk.xs[0], _alice(b.a0, mat), _two_level(d, lo, hi, 1.0, 0.0) @ tgt),
            ("A", blk.xs[1], _alice(b.a1, mat), _two_level(d, lo, hi, 0.0, 1.0) @ tgt),
            ("B", blk.ys[0], _bob(b.b0, mat), tgt @ _two_level(d, lo, hi, cos, sin).T),
            ("B", blk.ys[1], _bob(b.b1, mat), tgt @ _two_level(d, lo, hi, cos, -sin).T),
        )
        # One image at a time: a batch of images raises peak memory. The
        # ideal image lives on the (lo, hi) x (lo, hi) ancilla slices only.
        for side, setting, moved, ideal_target in rows:
            image = _apply_isometry_matrix(stack_a, stack_b, moved)
            for k, l in zip(*np.nonzero(ideal_target)):
                image[:, :, k, l] -= ideal_target[k, l] * junk
            out.append(
                MeasurementResidual(
                    side=side,
                    setting=setting,
                    m=blk.m,
                    primed=blk.primed,
                    residual=float(np.linalg.norm(image)),
                )
            )
    return out


@dataclass(frozen=True)
class ExtractionReport:
    """Full certification record for one realization."""

    projector_residuals: np.ndarray
    chain_residuals: np.ndarray
    chain_adjoint_residuals: np.ndarray
    pb_orthogonality_sum: float
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
        pb_orthogonality_sum=crit.pb_orthogonality_sum,
        output_norm=iso.output_norm,
        fidelity=iso.fidelity,
        product_overlap=iso.product_overlap,
        measurement_residuals=meas,
    )
