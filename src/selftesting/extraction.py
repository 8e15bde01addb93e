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
   Z and X on that side (:func:`_frame`). The extraction reads the second
   party's Z only on the blocks that cut the ladder (step 3) and its X only
   on the d - 1 steps of the flip chains (step 4), so it asks
   :func:`_frame` for just those, in one stacked call.
3. Outcome projector ladder. The first party uses its computational
   projectors directly. The second party's ladder is first cut from the
   block frame: with P the orthogonal projector onto the eigenvectors of
   the combined block identity ``1_m^{B_0} + 1_m^{B_1}`` with eigenvalue
   above 1, and Zt the compressed Z, the cut pair is ``(P + Zt)/2`` and
   ``(P - Zt)/2``. Each outcome is cut from the first block, in table
   order, whose pair holds it: as ``(P + Zt)/2`` if it is that block's lo,
   as ``(P - Zt)/2`` if it is its hi. So the unprimed blocks cut every
   outcome they hold, and for odd d the last primed block cuts the top
   outcome d - 1, which no unprimed block holds. The cut ladder is
   orthogonal only for exact inputs, so it is rounded
   (:func:`selftesting.ideal.round_ladder`): each eigenvector of the
   Hermitian part of the label operator ``L = sum_k k P_cut^(k)`` gets the
   nearest label in 0..d-1, and ``P^(k)`` projects onto the eigenvectors
   labelled k. These are orthogonal and complete by construction; the
   range no block covers has label 0. The on-state rounding displacement
   ``sum_k ||(P^(k) - P_cut^(k))|psi>||^2`` is reported and vanishes for
   exact inputs.
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
6. Measurement equivalence. A block observable O moves the state to N,
   ``O|psi>`` in matrix form, whose image has slice ``(k, l)`` equal to
   ``A_k N B_l^T`` with the arms of step 5. The ideal image is
   ``t_kl J``: t is the ideal observable on the target state, nonzero only
   for k and l in the block's pair K, and J is the junk state. The
   residual is summed from slice norms, without the d^2 slices:
   ``residual^2 = sum_{k not in K} ||U_A^(k)^dagger N||^2
   + sum_{k in K} ||A_k N conj(U_notK)||^2
   + sum_{k,l in K} ||A_k N B_l^T - t_kl J||^2``.
   Both off-pair sides are collapsed through an orthonormal basis with
   outcome labels, so they take the arms to be an isometry, and the output
   norm is gated as in :func:`apply_isometry`. The columns of ``U_notK``
   are the eigenvectors of the second party's label operator labelled
   outside K. Its ladder is rounded already (step 3), ``P_B^(l) = U_l
   U_l^dagger``, and every ``X_B^(l)`` is a product of sign-unitarized
   operators, so the slice norms over l outside K sum to
   ``||A_k N conj(U_notK)||^2``. The first party's ladder is the device's
   own setting 0, whose basis ``v_a`` and labels the realization holds
   (``r.basis_a[0]`` and ``r.labels_a[0]``): as built for a party built
   from bases, else rounded as in step 3 from its stacks, which are
   projective only to ``eps = MEASUREMENT_TOL`` entrywise. ``U_A^(k)``
   holds the columns of ``v_a`` labelled k, and ``||X_A^(k) P_A^(k) N||``
   is read as ``||U_A^(k)^dagger N||``. Each step of ``X_A^(k)`` is a
   reflection ``R = 1 - 2P`` with P a device projector, and
   ``R^dagger R - 1 = 4 (P^dagger P - (P + P^dagger) / 2)``; with P
   Hermitian and idempotent to eps, ``delta = ||R^dagger R - 1|| <= 10
   dim_a eps`` to first order. So ``||X_A^(k)^dagger X_A^(k) - 1|| <= (1 +
   delta)^k - 1``, about ``k delta``, and ``||X_A^(k) y||`` is ``||y||`` to
   within about ``k delta / 2 ||y||``. The rounded projectors differ from
   ``P_A^(k)`` at first order in eps as well. The square root of the term,
   and so each residual, moves by ``O(d dim_a eps ||N||)``, never by the
   square root of that: every term is a sum of squares, never a
   difference, so the rounding error stays at machine epsilon times
   ``||N||`` too. All blocks
   are evaluated in one pass: the moved observables form one
   ``(n_blocks, 4, dim_a, dim_b)`` stack; the ``k not in K`` term is one
   product against each block's ``v_a^dagger`` with the rows labelled in K
   zeroed; the rows ``A_k N`` for k in
   K are one batched product; the ``k, l in K`` term two (one per l, less
   ``t_kl J``); and the ``l not in K`` term one against each block's
   eigenvector basis with the columns labelled in K zeroed. At d=2 both
   off-pair terms are absent. Squares are summed pairwise over the float
   view of each product.

The block observables of step 1 are ``(n_blocks, 2, dim, dim)`` stacks,
one per party and kind (:class:`BlockOperators`): the difference and sum of
two gathers of the party's projector array, every block's own settings at
its lo and at its hi outcome. Each ladder, chain and arm stack is stored
once, as a ``(d, dim, dim)`` stack indexed by the outcome k
(:class:`CriterionOperators`). Building them
takes three stacked eigendecompositions whatever d is: the unitarized
frames of step 2, the cut supports of step 3 and the label operator. The
criterion residuals are batched expressions over k, the arms ``X^(k)
P^(k)`` of steps 5 and 6 are one stacked product per side, made with the
ladders, and measurement equivalence is batched over blocks throughout.
It reads the first party's setting-0 basis from the realization, which
rounds a party given as stacks once, on first use, with one more stacked
eigendecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, IsometryConsistencyError
from .ideal import Realization, basis_projectors, dagger, round_ladder
from .schmidt import BlockTable, SchmidtCoefficients, blocks

__all__ = [
    "BlockOperators",
    "CriterionOperators",
    "CriterionReport",
    "IsometryReport",
    "MeasurementResidual",
    "ExtractionReport",
    "build_block_operators",
    "build_criterion_ops",
    "check_criterion",
    "apply_isometry",
    "measurement_equivalence",
    "extraction_report",
]

#: Allowed deviation of the isometry output norm from the input norm.
NORM_BUDGET = 1e-6

#: Eigenvalues within this of zero are sent to +1 by `sign_unitarize`.
ZERO_TOL = 1e-10

#: Default verdict bounds of `ExtractionReport.passes`: the least fidelity
#: and the largest criterion or measurement residual it accepts.
FIDELITY_MIN = 1 - 1e-6
RESIDUAL_TOL = 1e-6


def sign_unitarize(h: np.ndarray) -> np.ndarray:
    """Sign function of the Hermitian part of `h`, or of each matrix of a stack.

    Eigenvalues below ``-ZERO_TOL`` map to -1; everything else, including
    the band around zero, maps to +1. The result is Hermitian and unitary,
    and commutes with ``(h + h^dagger) / 2``.
    """
    w, v = np.linalg.eigh((h + dagger(h)) / 2)
    signs = np.where(w < -ZERO_TOL, -1.0, 1.0)
    return (v * signs[..., None, :]) @ dagger(v)


def _alice(op: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Apply a first-party operator, or each of a stack, to a state in matrix form."""
    return op @ mat


def _bob(op: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Apply a second-party operator, or each of a stack, to a state in matrix form."""
    return mat @ np.swapaxes(op, -1, -2)


def _consume_sq_norms(x: np.ndarray, n: int) -> np.ndarray:
    """Squared norm of each of the `n` equal leading parts of a stack.

    Squares the float view of `x` in place, so a complex stack is neither
    conjugated nor copied, and sums each part pairwise. `x` must be a
    contiguous temporary: it holds the squares afterwards.
    """
    x = x.reshape(n, -1)
    if x.dtype.kind == "c":
        x = x.view(x.real.dtype)
    return np.add.reduce(np.square(x, out=x), axis=1)


@dataclass(frozen=True)
class BlockOperators:
    """Two-outcome observables and block identities of every block, stacked.

    ``table`` is the block table in :func:`blocks` order. Each array has
    shape ``(n_blocks, 2, dim, dim)``: ``a[i, j]`` is the first party's
    observable of block i for setting ``table.xs[i, j]``, ``b[i, j]`` the
    second party's for ``table.ys[i, j]``, and ``ia``/``ib`` are the
    matching block identities (sums instead of differences).
    """

    table: BlockTable
    a: np.ndarray
    ia: np.ndarray
    b: np.ndarray
    ib: np.ndarray


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
    lo, hi = table.pair.T[:, :, None]

    def split(proj: np.ndarray, settings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # [block, setting j]: every block's own settings at its own outcome.
        total, p_hi = proj[settings, lo], proj[settings, hi]
        diff = total - p_hi
        total += p_hi
        return diff, total

    a, ia = split(r.proj_a, table.xs)
    b, ib = split(r.proj_b, table.ys)
    return BlockOperators(table=table, a=a, ia=ia, b=b, ib=ib)


def _reflect(identity_block: np.ndarray, observable: np.ndarray) -> np.ndarray:
    """Extend block observables to reflections: +1 off the block."""
    return np.eye(observable.shape[-1]) - identity_block + observable


def _frame(
    ops: BlockOperators, z_at: list[int] | np.ndarray, x_at: list[int] | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The second party's unitarized Z of the blocks `z_at` and X of the
    blocks `x_at`, in one stacked sign-unitarization.

    The tilted combinations pick up a zero eigenspace only in degenerate
    realizations; sign-unitarization sends it to +1.
    """
    mu = ops.table.mu[:, None, None]
    bu = _reflect(ops.ib, ops.b)
    b0u, b1u = bu[:, 0], bu[:, 1]
    z_star = (b0u + b1u) / (2.0 * np.cos(mu))
    x_star = (b0u - b1u) / (2.0 * np.sin(mu))
    u = sign_unitarize(np.concatenate((z_star[z_at], x_star[x_at])))
    return u[: len(z_at)], u[len(z_at) :]


@dataclass
class CriterionOperators:
    """Everything the chain criterion and the isometry consume.

    Each ladder, chain and arm stack is one ``(d, dim, dim)`` stack indexed
    by outcome k. ``p_a[k]`` is the first party's outcome-k projector as
    the device gives it (its setting 0, not rounded) and ``p_b[k]`` the
    second party's, orthogonal and complete by construction; ``p_cut[k]``
    is the second party's ladder as cut from the block frames, before
    rounding; ``x_a[k]`` / ``x_b[k]`` the flip chains; ``arm_a[k] = x_a[k]
    @ p_a[k]`` and ``arm_b[k] = x_b[k] @ p_b[k]`` the arms of the isometry,
    made once here and read by every later stage. The columns of ``v_b``
    are the eigenvectors of the second party's label operator and
    ``label_b`` holds each column's label, as
    :func:`selftesting.ideal.round_ladder` rounds the cut ladder, so
    ``p_b[k]`` projects onto ``v_b[:, label_b == k]``. `block_ops` keeps
    the stacked block observables, in :func:`blocks` order, for
    :func:`measurement_equivalence`, which reads the first party's
    setting-0 basis from the realization for its off-pair term.
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
    arm_a: np.ndarray
    arm_b: np.ndarray
    block_ops: BlockOperators = field(repr=False)


def _chain(flips: np.ndarray) -> np.ndarray:
    """Stack of the running products ``1, F_0, F_0 F_1, ...`` of a stack of flips."""
    out = [np.eye(flips.shape[-1], dtype=flips.dtype)]
    for f in flips:
        out.append(out[-1] @ f)
    return np.stack(out)


def _ladder(sc: SchmidtCoefficients) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where the second party's ladder and the flip chains read the blocks.

    Returns ``cut_at``, the blocks that cut the ladder, ascending; ``take``,
    for each outcome k, its row in the stack of the cut blocks' ``(P + Zt)/2``
    followed by their ``(P - Zt)/2``; and ``step_at``, the block of each
    chain step i, the one whose pair starts at i. Outcome k is cut from the
    first block, in table order, whose pair holds it, on the ``+`` side if k
    is that block's lo. Computed on the first call and kept on `sc`, as the
    reference tables are.
    """
    # `vars`, as functools.cached_property stores its value: `sc` is frozen.
    cached = vars(sc).get("_ladder")
    if cached is None:
        pair = blocks(sc).pair
        # Each outcome's first cell in the pairs, read in table order.
        block, side = np.divmod(np.unique(pair, return_index=True)[1], 2)
        cut_at, row = np.unique(block, return_inverse=True)
        step_at = np.argsort(pair[:, 0])[: sc.d - 1]
        cached = vars(sc)["_ladder"] = (cut_at, side * len(cut_at) + row, step_at)
    return cached


def build_criterion_ops(r: Realization, sc: SchmidtCoefficients) -> CriterionOperators:
    """Assemble the projector ladders and the flip chains.

    The block angles come from the claimed coefficients `sc`, never from
    the realization's own statistics: an adversarial device gets measured
    against the state it claims to produce.
    """
    d = sc.d
    ops = build_block_operators(r, sc)
    cut_at, take, step_at = _ladder(sc)

    # Only the cuts' Z and the steps' X are read: unitarize just those, in
    # one stacked call.
    zb, xb = _frame(ops, cut_at, step_at)
    # Exact block identities have eigenvalues 0 and 2 only.
    ib = ops.ib[cut_at]
    w, v = np.linalg.eigh(ib[:, 0] + ib[:, 1])
    support = (v * (w > 1.0)[..., None, :]) @ dagger(v)
    z_cut = support @ zb @ support
    p_cut = np.concatenate((support + z_cut, support - z_cut))[take] / 2.0

    # Round the cut ladder to a projective one.
    v, labels = round_ladder(p_cut)
    p_a = r.proj_a[0]
    p_b = basis_projectors(v[None], labels[None], d)[0]
    x_a = _chain(_reflect(ops.ia[step_at, 1], ops.a[step_at, 1]))
    x_b = _chain(xb)
    return CriterionOperators(
        d=d,
        dim_a=r.dim_a,
        dim_b=r.dim_b,
        p_a=p_a,
        p_b=p_b,
        v_b=v,
        label_b=labels,
        p_cut=p_cut,
        x_a=x_a,
        x_b=x_b,
        arm_a=x_a @ p_a,
        arm_b=x_b @ p_b,
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
    mat, d = r.state_matrix(), ops.d
    ratio = (sc.c / sc.c[0])[:, None, None]
    extra = _alice(ops.p_a[0], mat)
    lhs = _alice(ops.x_a, _bob(ops.arm_b, mat))
    adjoint = _alice(ops.arm_a, mat) - ratio * _bob(dagger(ops.x_b), extra)
    # Each argument of _consume_sq_norms is a fresh temporary.
    return CriterionReport(
        projector_match=np.sqrt(_consume_sq_norms(_alice(ops.p_a, mat) - _bob(ops.p_b, mat), d)),
        chain_map=np.sqrt(_consume_sq_norms(lhs - ratio * extra, d)),
        chain_map_adjoint=np.sqrt(_consume_sq_norms(adjoint, d)),
        ladder_rounding=float(np.sum(_consume_sq_norms(_bob(ops.p_b - ops.p_cut, mat), d))),
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


def _output_norm(ops: CriterionOperators, half: np.ndarray) -> float:
    """Norm of the isometry image whose first-party half is ``A_k M``.

    A norm off 1 by more than ``NORM_BUDGET``, or NaN, raises
    :class:`IsometryConsistencyError`.
    """
    # The whole Gram sum_l B_l^T conj(B_l), so that the norm sees the second
    # party's arms as they are, not as the isometry they should be.
    flat_b = ops.arm_b.reshape(-1, ops.dim_b)
    gram = flat_b.T @ flat_b.conj()
    norm = float(np.sqrt(np.vdot(half, half.reshape(-1, ops.dim_b) @ gram).real))
    if not abs(norm - 1.0) <= NORM_BUDGET:
        raise IsometryConsistencyError(
            f"isometry output norm {norm!r} drifted beyond {NORM_BUDGET:.0e}"
        )
    return norm


def _isometry_figures(
    ops: CriterionOperators, mat: np.ndarray, junk: np.ndarray, sc: SchmidtCoefficients
) -> tuple[float, float, float]:
    """Output norm, fidelity and product overlap of the isometry image of `mat`.

    Evaluated as in step 5 of the module docstring, without the image;
    `junk` is ``_junk_state(ops, mat)``. The norm is gated by
    :func:`_output_norm`.
    """
    half = _alice(ops.arm_a, mat)
    norm = _output_norm(ops, half)
    c = sc.c / np.linalg.norm(sc.c)
    # Row k is the diagonal slice A_k M B_k^T.
    diagonal = _bob(ops.arm_b, half).reshape(ops.d, -1)
    on_target = c @ diagonal
    fid = min(float(np.vdot(on_target, on_target).real), 1.0)
    amp = c @ (diagonal @ junk.conj().ravel())
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
    norm, fid, overlap = _isometry_figures(ops, mat, _junk_state(ops, mat), sc)
    psi = _apply_isometry_matrix(ops.arm_a, ops.arm_b, mat)
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
    the block's own pair of ancilla values. Those norms take the isometry
    to be one, so an output norm off 1 by more than ``NORM_BUDGET``
    raises :class:`IsometryConsistencyError`, as in :func:`apply_isometry`.
    Returns four residuals per block, in :func:`blocks` order.
    """
    mat = r.state_matrix()
    _output_norm(ops, _alice(ops.arm_a, mat))
    return _measurement_residuals(ops, r, _junk_state(ops, mat), sc)


def _measurement_residuals(
    ops: CriterionOperators, r: Realization, junk: np.ndarray, sc: SchmidtCoefficients
) -> list[MeasurementResidual]:
    """The residuals of :func:`measurement_equivalence`, without its norm
    gate; `junk` is ``_junk_state(ops, r.state_matrix())``."""
    d, dim_a, dim_b = ops.d, ops.dim_a, ops.dim_b
    mat = r.state_matrix()
    bo = ops.block_ops
    table = bo.table
    n = len(table)
    pair = table.pair
    # Every block's four observables applied to the state, in the order
    # A xs[0], A xs[1], B ys[0], B ys[1].
    moved = np.empty((n, 4, dim_a, dim_b), np.result_type(bo.a, bo.b, mat))
    np.matmul(bo.a, mat, out=moved[:, :2])
    np.matmul(mat, np.swapaxes(bo.b, -1, -2), out=moved[:, 2:])
    # At d=2 every outcome and every label lies in each block's pair.
    if d > 2:
        # k off the pair: the rows of v_a^dagger O|psi> labelled outside it,
        # one product against each block's masked basis.
        v_a, label_a = r.basis_a[0], r.labels_a[0]
        off = (label_a != pair[:, :1]) & (label_a != pair[:, 1:])
        sq = _consume_sq_norms((dagger(v_a) * off[:, :, None])[:, None] @ moved, 4 * n)
        sq = sq.reshape(n, 4)
    else:
        sq = np.zeros((n, 4))
    # k on the pair: rows (observable, k, first party) of X_A^(k) P_A^(k) O |psi>.
    rows = (ops.arm_a[pair].reshape(n, 1, 2 * dim_a, dim_a) @ moved).reshape(n, 8 * dim_a, dim_b)
    # Released before the slices, which keeps the peak at a few moved stacks.
    del moved
    if d > 2:
        # k on the pair and l off it: the eigenvectors of L labelled outside
        # the pair, as the columns of each block's masked basis.
        off = (ops.label_b != pair[:, :1]) & (ops.label_b != pair[:, 1:])
        sq += _consume_sq_norms(rows @ (ops.v_b.conj() * off[:, None, :]), 4 * n).reshape(n, 4)
    # Both k and l on the pair, one l at a time, less the ideal image t_kl J:
    # [block, observable, k, l] of Z diag(c) and X diag(c) for the first
    # party, diag(c) (cos mu Z +- sin mu X) for the second.
    z, x = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
    c, mu = sc.c[pair], table.mu[:, None, None, None]
    c_k, c_l = c[:, None, :, None], c[:, None, None, :]
    cz, sx = np.cos(mu) * z, np.sin(mu) * x
    ideal = np.concatenate((z * c_l, x * c_l, c_k * (cz + sx), c_k * (cz - sx)), axis=1)
    # One buffer serves both l, and taking t_kl J one k at a time keeps its
    # temporary at one moved stack.
    slices = np.empty((n, 4, 2, dim_a, dim_b), np.result_type(rows, ops.arm_b))
    for j in range(2):
        np.matmul(rows, np.swapaxes(ops.arm_b[pair[:, j]], -1, -2), out=slices.reshape(rows.shape))
        for k in range(2):
            slices[:, :, k] -= ideal[:, :, k, j, None, None] * junk
        sq += _consume_sq_norms(slices, 4 * n).reshape(n, 4)
    # Python scalars, row by row: block, then its settings xs and ys.
    settings = np.concatenate((table.xs, table.ys), axis=1)
    columns = (table.m, table.primed, settings, np.sqrt(sq))
    return [
        MeasurementResidual(side, setting, m, primed, res)
        for m, primed, row_settings, row in zip(*(a.tolist() for a in columns))
        for side, setting, res in zip("AABB", row_settings, row)
    ]


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

    def passes(
        self, *, fidelity_min: float = FIDELITY_MIN, residual_tol: float = RESIDUAL_TOL
    ) -> bool:
        return (
            self.fidelity >= fidelity_min
            and self.max_criterion_residual() <= residual_tol
            and self.max_measurement_residual() <= residual_tol
        )


def extraction_report(r: Realization, sc: SchmidtCoefficients) -> ExtractionReport:
    """Run the whole pipeline on a realization and collect every residual."""
    ops = build_criterion_ops(r, sc)
    crit = check_criterion(ops, r, sc)
    mat = r.state_matrix()
    junk = _junk_state(ops, mat)
    norm, fid, overlap = _isometry_figures(ops, mat, junk, sc)
    meas = _measurement_residuals(ops, r, junk, sc)
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
