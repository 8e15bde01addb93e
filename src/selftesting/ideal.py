"""Ideal reference realization: state plus projective measurements.

The two parties measure a shared d-level pair. Each setting measures one
two-level observable on every block of its family (see
:func:`selftesting.schmidt.blocks` for the blocks and their settings):

* first party: the block's first setting measures Z (the computational
  basis), its second setting the flip observable X;
* second party: the block's two settings measure the tilted observables
  ``cos(mu) Z + sin(mu) X`` and ``cos(mu) Z - sin(mu) X``.

Within a block the +1 eigenvector is assigned to the block's first outcome
label and the -1 eigenvector to the second. An outcome that no block of a
setting holds (for odd d, one outcome per family) keeps its computational
basis vector there. So every setting is an orthonormal basis with one
eigenvector per outcome, and every projector is rank one.

A realization holds each party in the form it was built from:

* as bases, built by :meth:`Realization.from_bases` (as
  :func:`ideal_realization` builds its own): one (settings, dim, dim)
  array ``basis_a`` or ``basis_b`` of orthonormal columns and one
  (settings, dim) integer array ``labels_a`` or ``labels_b``, the outcome
  of each column. Outcome k of setting x projects onto the columns
  labelled k, ``P_k = U[:, labels == k] U[:, labels == k]^dagger``; an
  outcome that labels no column has the zero projector.
* as projector stacks, handed to the constructor (as files, tests and
  :func:`selftesting.harness.embed_realization` give them): one C-ordered
  (settings, n, dim, dim) array ``proj_a`` or ``proj_b``, indexed
  [setting, outcome, row, column].

The other form is readable too. It is made on its first read and then
kept on the realization, read-only: a basis-built party's projectors by
:func:`basis_projectors`, a stack-built party's bases by
:func:`round_ladder`, after the finiteness and Hermiticity checks of its
stacks. ``alice`` and ``bob`` hold one :class:`Measurement` per setting,
each a view of ``proj_a`` or ``proj_b``. A party is float64 when none of
its entries has a nonzero imaginary part, else complex128 (see
:func:`_real_or_complex`): one complex setting makes it all complex. An
ideal realization is real, so it is float64.

Validation checks each party in the form it was built from. A basis-built
party takes one product per setting: its basis must be finite and
``max|U^dagger U - 1|`` at most ``MEASUREMENT_TOL``; its labels were
checked at construction. A stack-built party is checked one setting at a
time, as :meth:`Measurement.validate` checks one measurement: its entries
must be finite and Hermitian, every product ``P_j P_k`` with k >= j must
be ``P_j`` (k = j) or zero (k > j), and the projectors must sum to the
identity, each within ``MEASUREMENT_TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import DimensionError, HermiticityError, NormalizationError
from .schmidt import BlockTable, SchmidtCoefficients, blocks, target_state

__all__ = [
    "Measurement",
    "Realization",
    "ideal_realization",
    "ALICE_SETTINGS",
    "BOB_SETTINGS",
]

#: Settings of the first and of the second party.
ALICE_SETTINGS = 3
BOB_SETTINGS = 4

MEASUREMENT_TOL = 1e-10


# Not in __all__: shared with correlations and harness, which check their
# inputs by the same rule.
def is_int(value: object) -> bool:
    """A Python or numpy integer, but not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.swapaxes(a.conj(), -1, -2)


def _real_or_complex(a: np.ndarray) -> np.ndarray:
    """`a` as float64 if no entry has a nonzero imaginary part, else complex128.

    An imaginary part that is NaN or inf counts as nonzero, so such an entry
    stays complex and the finiteness checks still see it. Real data goes
    through the real BLAS paths, about four times cheaper than complex ones.
    """
    a = np.asarray(a)
    if np.iscomplexobj(a):
        if np.any(a.imag != 0):
            return a.astype(complex, copy=False)
        a = a.real
    return np.ascontiguousarray(a, dtype=float)


def _state(state: Any) -> np.ndarray:
    """A flat, read-only copy of `state`, of the dtype :func:`_real_or_complex`
    gives it: no caller can change a realization after construction, nor
    make stale what is kept on it."""
    state = np.array(_real_or_complex(state).reshape(-1))
    state.flags.writeable = False
    return state


@dataclass(frozen=True, eq=False)
class Measurement:
    """A projective measurement as a stack of projectors.

    ``projectors[k]`` is the (possibly zero) projector of outcome k; the
    stack has shape (n_outcomes, dim, dim) and keeps the dtype it is given.
    ``==`` is identity.
    """

    projectors: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.projectors)
        if p.ndim != 3 or p.shape[1] != p.shape[2]:
            raise ValueError(f"projector stack must be (n, dim, dim), got {p.shape}")
        object.__setattr__(self, "projectors", p)

    @property
    def n_outcomes(self) -> int:
        return int(self.projectors.shape[0])

    @property
    def dim(self) -> int:
        return int(self.projectors.shape[1])

    def validate(self) -> None:
        """Check finite, Hermitian, idempotent, mutually orthogonal, complete,
        each within ``MEASUREMENT_TOL``.

        The checks run in that order. Products ``P_j P_k`` for k >= j are
        formed one outcome row at a time, as ``P_j @ P[j:]``: separate
        ``dim x dim`` products, the same per pair as one ``P_j @ P_k``. The
        first failing pair in (j, k) order is reported.
        """
        _check_projectors(self.projectors[None])


def _check_entries(q: np.ndarray, at: str) -> None:
    """Raise unless one setting's (n, dim, dim) stack is finite and
    Hermitian within ``MEASUREMENT_TOL``; each message starts with `at`."""
    if not np.all(np.isfinite(q)):
        raise ValueError(f"{at}projectors contain non-finite entries")
    herm = np.max(np.abs(q - np.conj(np.transpose(q, (0, 2, 1)))))
    if not herm <= MEASUREMENT_TOL:
        raise HermiticityError(f"{at}projector asymmetry {herm:.3e} > {MEASUREMENT_TOL:.0e}")


def _check_projectors(p: np.ndarray, party: str = "") -> None:
    """Validate each setting of a (settings, n, dim, dim) stack, in order,
    and raise on the first failure.

    The checks and messages are those of :meth:`Measurement.validate`; with
    ``party`` each message starts with ``"<party> setting <x>: "``.
    """
    n, dim = p.shape[1:3]
    for x, q in enumerate(p):
        at = f"{party} setting {x}: " if party else ""
        _check_entries(q, at)
        # Finite entries can still overflow: their products then read inf.
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(n):
                prod = q[j] @ q[j:]
                prod[0] -= q[j]
                worst = np.abs(prod).max(axis=(1, 2))
                bad = np.flatnonzero(~(worst <= MEASUREMENT_TOL))
                if bad.size:
                    k, w = j + bad[0], worst[bad[0]]
                    if k == j:
                        raise ValueError(f"{at}outcome {j} projector not idempotent ({w:.3e})")
                    raise ValueError(f"{at}outcomes {j},{k} projectors overlap ({w:.3e})")
            comp = np.max(np.abs(q.sum(axis=0) - np.eye(dim)))
        if not comp <= MEASUREMENT_TOL:
            raise ValueError(f"{at}projectors sum off identity by {comp:.3e}")


def _check_bases(u: np.ndarray, party: str) -> None:
    """Validate each basis of a (settings, dim, dim) array, in order: finite,
    then ``max|U^dagger U - 1| <= MEASUREMENT_TOL``. Each message starts
    with ``"<party> setting <x>: "``."""
    # Non-finite entries are reported before any value computed from them.
    with np.errstate(all="ignore"):
        off = np.max(np.abs(dagger(u) @ u - np.eye(u.shape[-1])), axis=(1, 2))
    for x, q in enumerate(u):
        if not np.all(np.isfinite(q)):
            raise ValueError(f"{party} setting {x}: basis contains non-finite entries")
        if not off[x] <= MEASUREMENT_TOL:
            raise ValueError(f"{party} setting {x}: basis off orthonormal by {off[x]:.3e}")


# Not in __all__: shared with extraction, which rounds its cut ladder by the same rule.
def round_ladder(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Round a ladder of n outcome operators, or each of a stack of ladders,
    to an orthonormal basis plus one outcome label per column.

    Takes the eigenvectors ``v`` of the Hermitian part of the label operator
    ``sum_k k p[k]`` and gives each the nearest label in 0..n-1. The
    projector of outcome k is onto the columns ``v[:, labels == k]``; these
    are orthogonal and complete by construction, and equal ``p[k]`` when the
    ladder is exactly projective.
    """
    n = p.shape[-3]
    # Summed along the outcome axis one outcome after the other, as a loop
    # over k would.
    label = np.add.reduce(np.arange(n)[:, None, None] * p, axis=-3)
    w, v = np.linalg.eigh((label + dagger(label)) / 2)
    return v, np.clip(np.rint(w), 0, n - 1).astype(int)


# Not in __all__: shared with harness, which embeds bases as their projectors,
# and extraction, which builds its rounded ladder with it.
def basis_projectors(basis: np.ndarray, labels: np.ndarray, n: int) -> np.ndarray:
    """The (settings, n, dim, dim) projectors of (settings, dim, dim) bases
    whose columns carry the (settings, dim) outcome labels.

    Outcome k of setting x is ``basis[x]`` with the columns not labelled k
    zeroed, times ``basis[x]^dagger``: one stacked product per outcome,
    written into the result, so no temporary is larger than one outcome's
    stack. The zeroed columns add exact zeros to each entry, so a rank-one
    projector is the outer product of its column bit for bit. Adding 0.0
    turns each -0.0 into 0.0.
    """
    p = np.empty((len(basis), n, *basis.shape[1:]), basis.dtype)
    right = dagger(basis)
    for k in range(n):
        np.matmul(basis * (labels[:, None, :] == k), right, out=p[:, k])
    p += 0.0
    return p


#: The side of each attribute that one form of a party makes from the other
#: on its first read.
_SIDE = {"alice": "a", "bob": "b"} | {
    f"{name}_{side}": side for name in ("proj", "basis", "labels") for side in "ab"
}


@dataclass(frozen=True, eq=False)
class Realization:
    """A concrete state and measurement assignment for both parties.

    `state` is a flat vector on the product space, index ``i * dim_b + j``,
    real or complex as a party is, held as a read-only copy by both
    constructors. `alice` takes 3 settings on the first
    factor, `bob` 4 on the second, each a :class:`Measurement` or an
    (n, dim, dim) array, all with the same n (else this raises). A party
    given as one array is adopted, and made read-only, as ``proj_a`` or
    ``proj_b``; one given setting by setting is copied.
    :meth:`from_bases` builds a realization from bases plus labels instead.

    Either way these attributes are readable, as the module docstring
    describes them: ``n_outcomes``, ``alice``, ``bob``, ``proj_a``,
    ``proj_b``, ``basis_a``, ``basis_b``, ``labels_a`` and ``labels_b``.
    The form a party was not built in is made on its first read. Only the
    constructor's arguments are dataclass fields, so ``dataclasses.replace``
    rebuilds a realization from its stacks, and a walk over the fields
    rounds no given stack to bases. ``==`` is identity.
    """

    dim_a: int
    dim_b: int
    state: np.ndarray
    alice: tuple[Measurement, ...]
    bob: tuple[Measurement, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "state", _state(self.state))
        if len(self.alice) != ALICE_SETTINGS or len(self.bob) != BOB_SETTINGS:
            raise ValueError(
                f"need {ALICE_SETTINGS} first-party and {BOB_SETTINGS} second-party settings, "
                f"got {len(self.alice)}, {len(self.bob)}"
            )
        n = None
        for label, dim in (("alice", self.dim_a), ("bob", self.dim_b)):
            given = getattr(self, label)
            settings = [m if isinstance(m, Measurement) else Measurement(m) for m in given]
            n = settings[0].n_outcomes if n is None else n
            for x, m in enumerate(settings):
                if m.dim != dim:
                    raise DimensionError(f"{label} setting {x} acts on dim {m.dim} != {dim}")
                if m.n_outcomes != n:
                    raise ValueError(
                        f"{label} setting {x} has {m.n_outcomes} outcomes, expected {n}"
                    )
            # At d = 32 a copy's page faults cost more than building the party.
            if not isinstance(given, np.ndarray):
                given = np.stack([m.projectors for m in settings])
            proj = _real_or_complex(given)
            proj.flags.writeable = False
            object.__setattr__(self, f"proj_{label[0]}", proj)
            object.__setattr__(self, label, tuple(map(Measurement, proj)))
        object.__setattr__(self, "n_outcomes", n)
        object.__setattr__(self, "_from_bases", False)

    @classmethod
    def from_bases(
        cls,
        state: np.ndarray,
        basis_a: np.ndarray,
        labels_a: np.ndarray,
        basis_b: np.ndarray,
        labels_b: np.ndarray,
        n_outcomes: int,
    ) -> Realization:
        """A realization whose every setting is an orthonormal basis with one
        outcome label per column.

        Setting x of the first party measures the columns of
        ``basis_a[x]``, column j with outcome ``labels_a[x, j]``; likewise
        the second party. ``basis_a`` has shape (3, dim_a, dim_a) and
        ``basis_b`` (4, dim_b, dim_b), which give the local dimensions. Each
        label array must be an integer array, not bool, of shape (settings,
        dim), with every entry in [0, n_outcomes); an outcome that labels no
        column has the zero projector. Anything else is a ``ValueError``
        that names the party; so is an `n_outcomes` that is not a positive
        integer, without a party. The bases are adopted and made read-only,
        the state and the labels copied; :meth:`validate` checks the bases.
        """
        if not is_int(n_outcomes) or n_outcomes < 1:
            raise ValueError(f"n_outcomes must be a positive integer, got {n_outcomes!r}")
        r = object.__new__(cls)
        attrs = {"state": _state(state), "n_outcomes": int(n_outcomes)}
        for party, settings, basis, labels in (
            ("alice", ALICE_SETTINGS, basis_a, labels_a),
            ("bob", BOB_SETTINGS, basis_b, labels_b),
        ):
            basis, labels = _real_or_complex(basis), np.asarray(labels)
            if basis.ndim != 3 or basis.shape[0] != settings or basis.shape[1] != basis.shape[2]:
                raise ValueError(f"{party} bases must be ({settings}, dim, dim), got {basis.shape}")
            if labels.dtype.kind not in "iu":
                raise ValueError(f"{party} labels must be integers, got dtype {labels.dtype}")
            if labels.shape != basis.shape[:2]:
                raise ValueError(
                    f"{party} labels must have shape {basis.shape[:2]}, got {labels.shape}"
                )
            outside = labels[(labels < 0) | (labels >= n_outcomes)]
            if outside.size:
                raise ValueError(f"{party} label {outside[0]} outside [0, {n_outcomes})")
            labels = labels.astype(int, order="C")
            basis.flags.writeable = labels.flags.writeable = False
            side = party[0]
            attrs |= {f"dim_{side}": basis.shape[1], f"basis_{side}": basis, f"labels_{side}": labels}
        for name, value in (attrs | {"_from_bases": True}).items():
            object.__setattr__(r, name, value)
        return r

    def __getattr__(self, name: str) -> Any:
        # Reached only for an attribute not set yet: the form of a party that
        # is made from the other on its first read.
        have = vars(self)
        side = _SIDE.get(name)
        if side is None or "_from_bases" not in have:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        party = "alice" if side == "a" else "bob"
        if have["_from_bases"]:
            proj = basis_projectors(have[f"basis_{side}"], have[f"labels_{side}"], self.n_outcomes)
            proj.flags.writeable = False
            object.__setattr__(self, f"proj_{side}", proj)
            object.__setattr__(self, party, tuple(map(Measurement, proj)))
        else:
            proj = have[f"proj_{side}"]
            for x, q in enumerate(proj):
                _check_entries(q, f"{party} setting {x}: ")
            for part, value in zip(("basis", "labels"), round_ladder(proj)):
                value.flags.writeable = False
                object.__setattr__(self, f"{part}_{side}", value)
        return have[name]

    def state_matrix(self) -> np.ndarray:
        """The state as a dim_a x dim_b coefficient matrix."""
        return self.state.reshape(self.dim_a, self.dim_b)

    def validate(self) -> None:
        """Check the dimensions, the state, then each party in the form it
        was built from, first party first: each basis as the module
        docstring says, or each stack as :meth:`Measurement.validate` does.
        An error names its setting, as in ``bob setting 2: outcomes 3,4
        projectors overlap (1.000e-09)``."""
        if self.dim_a < 2 or self.dim_b < 2:
            raise DimensionError(
                f"local dimensions must be at least 2, got {self.dim_a}, {self.dim_b}"
            )
        if self.state.size != self.dim_a * self.dim_b:
            raise ValueError(
                f"state length {self.state.size} != dim_a*dim_b = {self.dim_a * self.dim_b}"
            )
        if not np.all(np.isfinite(self.state)):
            raise ValueError("state contains non-finite entries")
        norm_sq = float(np.real(np.vdot(self.state, self.state)))
        if not abs(norm_sq - 1.0) <= MEASUREMENT_TOL:
            raise NormalizationError(
                f"state squared norm {norm_sq!r} off 1 beyond {MEASUREMENT_TOL:.0e}"
            )
        for party in ("alice", "bob"):
            if self._from_bases:
                _check_bases(getattr(self, f"basis_{party[0]}"), party)
            else:
                _check_projectors(getattr(self, f"proj_{party[0]}"), party)


def _bases(d: int, settings: np.ndarray, table: BlockTable, u: np.ndarray) -> np.ndarray:
    """One party's bases as one (settings, d, d) array, column k the
    eigenvector of outcome k.

    ``settings`` holds the party's two settings of each block,
    ``table.xs`` or ``table.ys``; the party has ``settings.max() + 1``
    settings. ``u[j]`` is the ``(outcome, coordinate, block)`` array of the
    eigenvectors that block i's setting ``settings[i, j]`` measures: entry
    ``[o, k, i]`` is the coefficient on the block's k-th basis vector
    (``e_lo``, then ``e_hi``) of the eigenvector for its o-th outcome. A
    block axis of length 1 serves every block.

    Every column starts as its computational basis vector ``e_k``. Then one
    index assignment writes every block of both setting columns: column
    ``pair[o]`` gets ``u[j, o, k]`` at row ``pair[k]``. So each outcome that
    a block of the setting holds is overwritten, and one that no block
    holds keeps ``e_k``. A setting shared by both families (the first
    party's Z basis) is written twice, identically.
    """
    basis = np.zeros((settings.max() + 1, d, d))
    k = np.arange(d)
    basis[:, k, k] = 1.0
    pair = table.pair.T
    # Indexed [j, o, k, block], as u.
    basis[settings.T[:, None, None], pair, pair[:, None]] = u
    return basis


def ideal_realization(sc: SchmidtCoefficients) -> Realization:
    """Target state plus ideal measurements on both sides, built from their
    bases; outcome k is column k of every setting."""
    d, table = sc.d, blocks(sc)
    # First party: Z, then X; second party: cos(mu) Z + sin(mu) X, then
    # cos(mu) Z - sin(mu) X, outcome lo on the +1 eigenvector.
    s = 1.0 / np.sqrt(2)
    u_a = np.array([[[1.0, 0.0], [0.0, 1.0]], [[s, s], [s, -s]]])[..., None]
    ch, sh = np.cos(table.mu / 2), np.sin(table.mu / 2)
    u_b = np.array([[[ch, sh], [-sh, ch]], [[ch, -sh], [sh, ch]]])
    labels = np.arange(d)
    return Realization.from_bases(
        target_state(sc),
        _bases(d, table.xs, table, u_a),
        np.broadcast_to(labels, (ALICE_SETTINGS, d)),
        _bases(d, table.ys, table, u_b),
        np.broadcast_to(labels, (BOB_SETTINGS, d)),
        d,
    )
