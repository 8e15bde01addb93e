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
projector there. All projectors are rank one, and each measurement's
projectors sum to the identity exactly by construction.

In memory each party is one read-only, C-ordered (settings, n, dim, dim)
array indexed [setting, outcome, row, column]: ``proj_a`` holds the first
party's 3 settings, ``proj_b`` the second party's 4. A party is float64
when none of its entries has a nonzero imaginary part, else complex128
(see :func:`_real_or_complex`): one complex setting makes it all complex.
``alice`` and ``bob`` hold one :class:`Measurement` per setting, each a
view of that array. An ideal realization is real, so it is float64.

Validation checks one party at a time. It forms the products ``P_j P_k``,
k >= j, one diagonal ``o = k - j`` at a time, for every setting at once.
A diagonal is skipped when no ``P_j`` on it has a nonzero column where its
``P_k`` has a nonzero row, since then each of its products is exactly
zero. Every ideal projector lives on one block's pair, so an ideal party
keeps only the diagonals 0, 1 and, for even d, d - 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

#: Most bytes of products formed at once: one outcome row of a d = 32
#: float64 setting, so checking a party at d = 32 needs no larger
#: temporaries than checking one setting.
_PRODUCT_BYTES = 1 << 18


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

        Products ``P_j P_k`` for k >= j are formed one diagonal ``o = k - j``
        at a time, as ``P[:n-o] @ P[o:]``: separate ``dim x dim`` products,
        the same per pair as one ``P_j @ P_k``. A diagonal with o > 0 is
        skipped when no ``P_j`` on it has a nonzero column where ``P_k`` has
        a nonzero row: each of its products is then exactly zero. Columns
        against rows, not rows against rows, because Hermiticity holds only
        within the tolerance. The first failing pair in (j, k) order is
        reported.
        """
        _check_projectors(self.projectors[None])


def _check_projectors(p: np.ndarray, party: str = "") -> None:
    """Validate each setting of a (settings, n, dim, dim) stack, in order.

    The checks and messages are those of :meth:`Measurement.validate`; with
    ``party`` each message starts with ``"<party> setting <x>: "``. Each
    diagonal's outcome range is split so that no product stack exceeds
    ``_PRODUCT_BYTES``.
    """
    s, n, dim = p.shape[:3]
    links = np.any(p, axis=2).astype(float) @ np.any(p, axis=3).transpose(0, 2, 1)
    _, js, ks = np.nonzero(links)
    step = max(1, _PRODUCT_BYTES // max(1, p[:, :1].nbytes))
    worst = np.zeros((s, n, n))
    # Non-finite entries are reported before any value computed from them.
    with np.errstate(all="ignore"):
        # A set, not np.union1d, whose first call adds about 1 MB of resident memory.
        for o in {0, *(ks - js)[ks > js].tolist()}:
            for a in range(0, n - o, step):
                b = min(a + step, n - o)
                prod = p[:, a:b] @ p[:, a + o : b + o]
                if o == 0:
                    prod -= p[:, a:b]
                j = np.arange(a, b)
                worst[:, j, j + o] = np.max(np.abs(prod).reshape(s, b - a, -1), axis=2)
        comp = np.max(np.abs(p.sum(axis=1) - np.eye(dim)), axis=(1, 2))
    for x, q in enumerate(p):
        at = f"{party} setting {x}: " if party else ""
        if not np.all(np.isfinite(q)):
            raise ValueError(f"{at}projectors contain non-finite entries")
        herm = np.max(np.abs(q - np.conj(np.transpose(q, (0, 2, 1)))))
        if herm > MEASUREMENT_TOL:
            raise HermiticityError(f"{at}projector asymmetry {herm:.3e} > {MEASUREMENT_TOL:.0e}")
        bad = np.argwhere(worst[x] > MEASUREMENT_TOL)
        if bad.size:
            j, k = bad[0]
            if j == k:
                raise ValueError(f"{at}outcome {j} projector not idempotent ({worst[x, j, j]:.3e})")
            raise ValueError(f"{at}outcomes {j},{k} projectors overlap ({worst[x, j, k]:.3e})")
        if comp[x] > MEASUREMENT_TOL:
            raise ValueError(f"{at}projectors sum off identity by {comp[x]:.3e}")


@dataclass(frozen=True, eq=False)
class Realization:
    """A concrete state and measurement assignment for both parties.

    `state` is a flat vector on the product space, index ``i * dim_b + j``,
    real or complex as a party is. `alice` takes 3 settings on the first
    factor, `bob` 4 on the second, each a :class:`Measurement` or an
    (n, dim, dim) array, all with the same n (else this raises). A party
    given as one array is adopted, and made read-only, as ``proj_a`` or
    ``proj_b``; one given setting by setting is copied. ``==`` is identity.
    """

    dim_a: int
    dim_b: int
    state: np.ndarray
    alice: tuple[Measurement, ...]
    bob: tuple[Measurement, ...]
    proj_a: np.ndarray = field(init=False, repr=False)
    proj_b: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "state", _real_or_complex(self.state).reshape(-1))
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

    @property
    def n_outcomes(self) -> int:
        return int(self.proj_a.shape[1])

    def state_matrix(self) -> np.ndarray:
        """The state as a dim_a x dim_b coefficient matrix."""
        return self.state.reshape(self.dim_a, self.dim_b)

    def validate(self) -> None:
        """Check the dimensions, the state, then each setting as
        :meth:`Measurement.validate` does, first party first. A projector
        error names its setting, as in ``bob setting 2: outcomes 3,4
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
        if abs(norm_sq - 1.0) > MEASUREMENT_TOL:
            raise NormalizationError(
                f"state squared norm {norm_sq!r} off 1 beyond {MEASUREMENT_TOL:.0e}"
            )
        _check_projectors(self.proj_a, "alice")
        _check_projectors(self.proj_b, "bob")


def _party(d: int, settings: np.ndarray, table: BlockTable, u: np.ndarray) -> np.ndarray:
    """One party's projectors as one (settings, d, d, d) array.

    ``settings`` holds the party's two settings of each block,
    ``table.xs`` or ``table.ys``; the party has ``settings.max() + 1``
    settings. ``u[j]`` is the ``(outcome, coordinate, block)`` array of the
    eigenvectors that block i's setting ``settings[i, j]`` measures: entry
    ``[o, k, i]`` is the coefficient on the block's k-th basis vector
    (``e_lo``, then ``e_hi``) of the eigenvector for its o-th outcome. A
    block axis of length 1 serves every block.

    Every outcome of every setting starts as its computational projector
    ``|k><k|``. Then one index assignment writes every block of both
    setting columns: outcome ``pair[o]`` gets ``u[j, o, k] u[j, o, l]`` at
    ``(pair[k], pair[l])``, its own diagonal cell included. So each outcome
    that a block of the setting holds is overwritten, and one that no block
    holds keeps ``|k><k|``. A setting shared by both families (the first
    party's Z basis) is written twice, identically. Adding 0.0 turns each
    -0.0 into 0.0, so a saved ideal realization holds no signed zeros.
    """
    p = np.zeros((settings.max() + 1, d, d, d))
    k = np.arange(d)
    p[:, k, k, k] = 1.0
    pair = table.pair.T
    # Indexed [j, o, k, l, block], as the products u[j, o, k] u[j, o, l].
    at = (settings.T[:, None, None, None], pair[:, None, None], pair[:, None], pair)
    p[at] = u[:, :, :, None] * u[:, :, None, :] + 0.0
    return p


def ideal_realization(sc: SchmidtCoefficients) -> Realization:
    """Target state plus ideal measurements on both sides."""
    table = blocks(sc)
    # First party: Z, then X; second party: cos(mu) Z + sin(mu) X, then
    # cos(mu) Z - sin(mu) X, outcome lo on the +1 eigenvector.
    s = 1.0 / np.sqrt(2)
    u_a = np.array([[[1.0, 0.0], [0.0, 1.0]], [[s, s], [s, -s]]])[..., None]
    ch, sh = np.cos(table.mu / 2), np.sin(table.mu / 2)
    u_b = np.array([[[ch, sh], [-sh, ch]], [[ch, -sh], [sh, ch]]])
    return Realization(
        dim_a=sc.d,
        dim_b=sc.d,
        state=target_state(sc),
        alice=_party(sc.d, table.xs, table, u_a),
        bob=_party(sc.d, table.ys, table, u_b),
    )
