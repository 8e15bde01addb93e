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
   identity with slope tan(theta). The extraction reads the second
   party's Z only on the blocks that cut the ladder (step 3) and its X
   only on the d - 1 steps of the flip chains (step 4), so it unitarizes
   just those, all in one stacked call; :func:`build_block_frame` gives
   every block's whole frame for the identity checks.
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
   ``V|psi> = sum_{k,l} (X_A^(k) P_A^(k) (x) X_B^(l) P_B^(l))|psi>|k,l>``.
   The ladders are projective and the flips unitary, so V is an isometry on
   every valid realization, not only on exact ones. With the state M in
   matrix form and the arms ``A_k = X_A^(k) P_A^(k)`` and
   ``B_l = X_B^(l) P_B^(l)``, the image has slice ``(k, l)`` equal to
   ``A_k M B_l^T``. The target ``sum_k c_k |kk>`` (c normalized) reads
   only the diagonal ones:
   ``fidelity = ||T||^2`` and ``product_overlap = |<J, T>|^2`` with
   ``T = sum_k c_k A_k M B_k^T`` and J the junk state ``P_A^(0)|psi>``
   normalized; ``output_norm^2 = sum_k Re tr((A_k M)^dagger A_k M H)``
   with the second party's whole Gram ``H = (sum_l B_l^dagger B_l)^T``,
   so the norm still sees that party's operators as they are (near 1, the
   quadratic form loses nothing to cancellation). :func:`extraction_report`
   never builds the image or its ``d^2 x d^2`` ancilla density matrix;
   :func:`apply_isometry` builds both, as one contraction against the two
   stacks of arms.
6. Measurement equivalence. A block observable O moves the state to M,
   ``O|psi>`` in matrix form, whose image has slice ``(k, l)`` equal to
   ``A_k M B_l^T`` with the arms of step 5. The ideal image is
   ``t_kl J``: t is the ideal observable on the target state, nonzero only
   for k and l in the block's pair K, and J is the junk state. The
   residual is summed from slice norms, without the d^2 slices:
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

The block observables of step 1 are ``(n_blocks, 2, dim, dim)`` stacks,
one per party and kind (:class:`BlockOperators`): every block of a family
reads the same settings, so each is one fancy-index difference or sum of
the device's projectors, and frames and identity checks are batched over
blocks. Each ladder and chain is stored once, as a ``(d, dim, dim)`` stack
indexed by the outcome k (:class:`CriterionOperators`). Building them takes
three stacked eigendecompositions whatever d is: the unitarized frames of
step 2, the cut supports of step 3 and the label operator. The criterion
residuals are batched expressions over k, and the stacks ``X^(k) P^(k)``
of steps 5 and 6, like the moved block observables of step 6, are one
stacked product per side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateBlockError, DimensionError, IsometryConsistencyError
from .ideal import Realization
from .schmidt import Block, SchmidtCoefficients, blocks, corner

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
    """Sign function of the Hermitian part of `h`, or of each matrix of a stack.

    Eigenvalues below ``-zero_tol`` map to -1; everything else, including
    the band around zero, maps to +1. The result is Hermitian and unitary,
    and commutes with ``(h + h^dagger) / 2``.
    """
    w, v = np.linalg.eigh((h + dagger(h)) / 2)
    signs = np.where(w < -zero_tol, -1.0, 1.0)
    return (v * signs[..., None, :]) @ dagger(v)


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
    """Two-outcome observables and block identities of every block, stacked.

    ``table`` is the block table in :func:`blocks` order. Each array has
    shape ``(n_blocks, 2, dim, dim)``: ``a[i, j]`` is the first party's
    observable of block ``table[i]`` for setting ``table[i].xs[j]``, ``b[i, j]``
    the second party's for ``table[i].ys[j]``, and ``ia``/``ib`` are the
    matching block identities (sums instead of differences).
    """

    table: tuple[Block, ...]
    a: np.ndarray
    ia: np.ndarray
    b: np.ndarray
    ib: np.ndarray


def _column(table: tuple[Block, ...], name: str) -> np.ndarray:
    """One field of every block, as an array in table order."""
    return np.array([getattr(blk, name) for blk in table])


def build_block_operators(r: Realization, sc: SchmidtCoefficients) -> BlockOperators:
    """Block observables of realization `r` for every block of `sc`.

    A realization whose outcome count is not the coefficients' d raises
    :class:`DimensionError`.
    """
    if r.n_outcomes != sc.d:
        raise DimensionError(
            f"realization has {r.n_outcomes} outcomes, but the coefficients give d = {sc.d}"
        )
    table = blocks(sc)
    # Axis 0 runs over (lo, hi), broadcast against the (block, setting) axes.
    pair = _column(table, "pair").T[:, :, None]

    def split(group: tuple, settings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        p_lo, p_hi = np.stack([meas.projectors for meas in group])[settings, pair]
        return p_lo - p_hi, p_lo + p_hi

    a, ia = split(r.alice, _column(table, "xs"))
    b, ib = split(r.bob, _column(table, "ys"))
    return BlockOperators(table=table, a=a, ia=ia, b=b, ib=ib)


@dataclass(frozen=True)
class BlockIdentityReport:
    """On-state residuals tying the four block identities together.

    Indexed by block in :func:`blocks` order. ``cross[i, s, t]`` is the
    norm of ``(1^{A_s} - 1^{B_t}) |psi>`` for block i's first-party setting
    s and second-party setting t; ``mass_residual[i]`` is how far block i's
    measured weight sits from the claimed one.
    """

    cross: np.ndarray
    mass_residual: np.ndarray


def _norms(x: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack."""
    return np.linalg.norm(x, axis=(-2, -1))


def block_identity_checks(ops: BlockOperators, r: Realization) -> BlockIdentityReport:
    """Residuals of the block-identity equalities on the state."""
    mat = r.state_matrix()
    ia, ib = _alice(ops.ia, mat), _bob(ops.ib, mat)
    return BlockIdentityReport(
        cross=_norms(ia[:, :, None] - ib[:, None]),
        mass_residual=np.abs(_norms(ia[:, 0]) - np.sqrt(_column(ops.table, "mass"))),
    )


@dataclass(frozen=True)
class BlockFrame:
    """Unitarized Z/X frames of both parties, one per block in :func:`blocks` order."""

    za: np.ndarray
    xa: np.ndarray
    zb: np.ndarray
    xb: np.ndarray


def _reflect(identity_block: np.ndarray, observable: np.ndarray) -> np.ndarray:
    """Extend block observables to reflections: +1 off the block."""
    return np.eye(observable.shape[-1]) - identity_block + observable


def _tilted(ops: BlockOperators) -> tuple[np.ndarray, np.ndarray]:
    """The second party's tilted combinations ``z_star`` and ``x_star`` of every block."""
    mu = _column(ops.table, "mu")[:, None, None]
    bu = _reflect(ops.ib, ops.b)
    b0u, b1u = bu[:, 0], bu[:, 1]
    return (b0u + b1u) / (2.0 * np.cos(mu)), (b0u - b1u) / (2.0 * np.sin(mu))


def build_block_frame(ops: BlockOperators) -> BlockFrame:
    """Unitarized block frames from the block observables.

    The first party's observables are extended to reflections directly.
    The second party's combinations pick up a zero eigenspace only in
    degenerate realizations; sign-unitarization sends it to +1.
    """
    zb, xb = sign_unitarize(np.stack(_tilted(ops)), ZERO_TOL)
    a = _reflect(ops.ia, ops.a)
    return BlockFrame(za=a[:, 0], xa=a[:, 1], zb=zb, xb=xb)


@dataclass(frozen=True)
class FrameReport:
    """Residuals of the two anchor identities on each normalized block state,
    in :func:`blocks` order."""

    z_residual: np.ndarray
    flip_residual: np.ndarray


def frame_identity_checks(frame: BlockFrame, ops: BlockOperators, r: Realization) -> FrameReport:
    """Check Z agreement and the tan(theta) flip identity on every block.

    Both are evaluated on the block state ``1_m^{A_0}|psi>`` normalized by
    the claimed mass, so a realization lying about its coefficients shows
    up here rather than being silently renormalized away.
    """
    table = ops.table
    mass = _column(table, "mass")
    low = np.flatnonzero(mass <= MASS_FLOOR)
    if low.size:
        blk = table[low[0]]
        raise DegenerateBlockError(
            f"block ({blk.m}, primed={blk.primed}) claimed mass {blk.mass:.3e} below floor"
        )
    mat = _alice(ops.ia[:, 0], r.state_matrix()) / np.sqrt(mass)[:, None, None]
    eye = np.eye(r.dim_a)
    lhs = _alice(frame.xa @ (eye - frame.za), mat)
    tan = np.tan(_column(table, "theta"))[:, None, None]
    rhs = tan * _bob(frame.xb, _alice(eye + frame.za, mat))
    return FrameReport(
        z_residual=_norms(_alice(frame.za, mat) - _bob(frame.zb, mat)),
        flip_residual=_norms(lhs - rhs),
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
    label, so ``p_b[k]`` projects onto ``v_b[:, label_b == k]``.
    `block_ops` keeps the stacked block observables, in :func:`blocks`
    order, for :func:`measurement_equivalence`.
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
    block_ops: BlockOperators = field(repr=False)


def _chain(flips: np.ndarray) -> np.ndarray:
    """Stack of the running products ``1, F_0, F_0 F_1, ...`` of a stack of flips."""
    out = [np.eye(flips.shape[-1], dtype=flips.dtype)]
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
    ops = build_block_operators(r, sc)
    table = ops.table
    n_blocks = d // 2

    # Second party's ladder: cut each unprimed block's frame in two. For odd
    # d the unprimed corner is the second outcome of the last primed block.
    cut_at = list(range(n_blocks))
    if corner(d, primed=False) is not None:
        cut_at.append(len(table) - 1)
    # Flip chains climb the ladder through unprimed block 0, primed block
    # 0, unprimed block 1, ...: step i is the block pairing (i, i+1).
    step_at = [i for pair in zip(range(n_blocks), range(n_blocks, len(table))) for i in pair]
    step_at = step_at[: d - 1]

    # Only the cuts' Z and the steps' X are read: unitarize just those, in
    # one stacked call.
    z_star, x_star = _tilted(ops)
    frames = sign_unitarize(np.concatenate((z_star[cut_at], x_star[step_at])), ZERO_TOL)
    zb, xb = frames[: len(cut_at)], frames[len(cut_at) :]
    # Exact block identities have eigenvalues 0 and 2 only.
    ib = ops.ib[cut_at]
    w, v = np.linalg.eigh(ib[:, 0] + ib[:, 1])
    support = (v * (w > 1.0)[..., None, :]) @ dagger(v)
    z_cut = support @ zb @ support
    # The unprimed cuts, the first n_blocks, give both outcomes of their
    # pair; the odd-d corner cut gives only its hi.
    p_cut = np.zeros((d, r.dim_b, r.dim_b), dtype=z_cut.dtype)
    p_cut[_column(table[:n_blocks], "lo")] = (support + z_cut)[:n_blocks] / 2.0
    p_cut[_column(table, "hi")[cut_at]] = (support - z_cut) / 2.0

    # Round the cut ladder to a projective one: the eigenvectors of the
    # label operator, grouped by their nearest label.
    label = sum(k * p for k, p in enumerate(p_cut))
    w, v = np.linalg.eigh((label + dagger(label)) / 2)
    labels = np.clip(np.rint(w), 0, d - 1).astype(int)

    return CriterionOperators(
        d=d,
        dim_a=r.dim_a,
        dim_b=r.dim_b,
        p_a=r.alice[0].projectors.copy(),
        p_b=np.stack([u @ dagger(u) for u in (v[:, labels == k] for k in range(d))]),
        v_b=v,
        label_b=labels,
        p_cut=p_cut,
        x_a=_chain(_reflect(ops.ia[step_at, 1], ops.a[step_at, 1])),
        x_b=_chain(xb),
        block_ops=ops,
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


def _isometry_figures(
    ops: CriterionOperators, mat: np.ndarray, sc: SchmidtCoefficients
) -> tuple[float, float, float]:
    """Output norm, fidelity and product overlap of the isometry image of `mat`.

    Evaluated as in step 5 of the module docstring, without the image. A
    norm off 1 by more than ``NORM_BUDGET``, or NaN, raises
    :class:`IsometryConsistencyError`.
    """
    stack_b = ops.x_b @ ops.p_b
    half = _alice(ops.x_a @ ops.p_a, mat)
    # The whole Gram sum_l B_l^T conj(B_l), so that the norm sees the second
    # party's arms as they are, not as the isometry they should be.
    flat_b = stack_b.reshape(-1, ops.dim_b)
    gram = flat_b.T @ flat_b.conj()
    norm = float(np.sqrt(np.vdot(half, half.reshape(-1, ops.dim_b) @ gram).real))
    if not abs(norm - 1.0) <= NORM_BUDGET:
        raise IsometryConsistencyError(
            f"isometry output norm {norm!r} drifted beyond {NORM_BUDGET:.0e}"
        )
    c = sc.c / np.linalg.norm(sc.c)
    # Row k is the diagonal slice A_k M B_k^T.
    diagonal = _bob(stack_b, half).reshape(ops.d, -1)
    on_target = c @ diagonal
    fid = min(float(np.vdot(on_target, on_target).real), 1.0)
    amp = c @ (diagonal @ _junk_state(ops, mat).conj().ravel())
    # The overlap is at most the unclipped fidelity; trim the float dust
    # that the clip to 1 would otherwise expose.
    return norm, fid, min(float(abs(amp) ** 2), fid)


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
    norm, fid, overlap = _isometry_figures(ops, mat, sc)
    psi = _apply_isometry_matrix(ops.x_a @ ops.p_a, ops.x_b @ ops.p_b, mat)
    flat = psi.reshape(ops.dim_a * ops.dim_b, ops.d * ops.d)
    return psi.reshape(-1), IsometryReport(
        output_norm=norm,
        fidelity=fid,
        product_overlap=overlap,
        rho_ancilla=flat.T @ flat.conj(),
    )


@dataclass(frozen=True)
class MeasurementResidual:
    """Mismatch of one transported block observable against its ideal."""

    side: str
    setting: int
    m: int
    primed: bool
    residual: float


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
    bo = ops.block_ops
    # Every block's four observables applied to the state, in the order
    # A xs[0], A xs[1], B ys[0], B ys[1].
    moved = np.concatenate((_alice(bo.a, mat), _bob(bo.b, mat)), axis=1)
    # Z and X on a block's (lo, hi) two-level subspace.
    z, x = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
    out: list[MeasurementResidual] = []
    for blk, mv in zip(bo.table, moved):
        pair = list(blk.pair)
        cos, sin = np.cos(blk.mu), np.sin(blk.mu)
        # Each observable's ideal image on the pair x pair slices where it
        # lives: the target there is diag(c), so the first party's Z or X
        # gives Z diag(c) or X diag(c), and the second party's symmetric B
        # gives diag(c) B.
        c = sc.c[pair]
        ideal = np.array(
            (z * c, x * c, c[:, None] * (cos * z + sin * x), c[:, None] * (cos * z - sin * x))
        )
        rest = np.ones(d, dtype=bool)
        rest[pair] = False
        # X_A^(k) P_A^(k) O |psi> for each observable O, k on the pair and
        # off it, each as one product against the stacked rows.
        inside = stack_a[pair].reshape(2 * dim_a, dim_a) @ mv
        outside = stack_a[rest].reshape(-1, dim_a) @ mv
        # Image slices (k, l) with both on the pair, less the ideal image,
        # indexed (observable, k, first party, l, second party).
        slices = inside.reshape(8 * dim_a, dim_b) @ stack_b[pair].reshape(2 * dim_b, dim_b).T
        slices = slices.reshape(4, 2, dim_a, 2, dim_b)
        slices -= ideal[:, :, None, :, None] * junk[:, None]
        # The three terms of step 6: k off the pair; k on it and l off it;
        # both on it.
        off_pair = inside @ basis[:, rest[ops.label_b]]
        sq = _sq_norms(outside) + _sq_norms(off_pair) + _sq_norms(slices)
        observables = (("A", blk.xs[0]), ("A", blk.xs[1]), ("B", blk.ys[0]), ("B", blk.ys[1]))
        out.extend(
            MeasurementResidual(
                side=side, setting=setting, m=blk.m, primed=blk.primed, residual=float(np.sqrt(s))
            )
            for (side, setting), s in zip(observables, sq)
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
    norm, fid, overlap = _isometry_figures(ops, r.state_matrix(), sc)
    meas = measurement_equivalence(ops, r, sc)
    return ExtractionReport(
        projector_residuals=crit.projector_match,
        chain_residuals=crit.chain_map,
        chain_adjoint_residuals=crit.chain_map_adjoint,
        ladder_rounding=crit.ladder_rounding,
        output_norm=norm,
        fidelity=fid,
        product_overlap=overlap,
        measurement_residuals=meas,
    )
