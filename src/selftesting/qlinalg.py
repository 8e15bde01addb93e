"""Dense complex linear algebra kernel.

NumPy only. Everything here works on plain ``np.ndarray`` with
``complex128`` entries; states are flat vectors, operators are square
matrices, and composite indices are row-major (the pair (i, k) of a
product space A (x) B maps to ``i * dim_b + k``).

Conventions
-----------
* Eigenvectors returned by :func:`hermitian_eig` are columns, ordered by
  ascending eigenvalue, each phased so its first component of magnitude
  above the tolerance is real and positive.
* ``zero_tol`` style tolerances are absolute; matrices handled here are
  O(1) in magnitude (projectors, sign matrices, unit vectors).
* No function mutates its arguments and none keeps global state, so
  everything is safe to call from parallel workers.
"""

from __future__ import annotations

import numpy as np

from .errors import HermiticityError, NormalizationError, RankError

__all__ = [
    "SIGMA_X",
    "SIGMA_Z",
    "dagger",
    "hermitian_eig",
    "sign_unitarize",
    "projector_onto_range",
    "pure_fidelity",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def _as_square(a: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    return a


def _fix_phases(vecs: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Phase each column so its first component above tol is real positive."""
    out = vecs.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        idx = np.flatnonzero(np.abs(col) > tol)
        if idx.size:
            pivot = col[idx[0]]
            out[:, j] = col * (np.conj(pivot) / np.abs(pivot))
    return out


def hermitian_eig(h: np.ndarray, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix with a fixed phase gauge.

    Parameters
    ----------
    h : ndarray
        Matrix with ``max |h - h^dagger|`` at most `tol`.
    tol : float
        Hermiticity tolerance.

    Returns
    -------
    (w, v) : tuple of ndarray
        Real eigenvalues in ascending order and the matrix whose columns
        are the matching orthonormal eigenvectors, each phased so the
        first component of magnitude above 1e-12 is real and positive.

    Raises
    ------
    HermiticityError
        If `h` deviates from Hermitian symmetry beyond `tol`.
    """
    h = _as_square(h, "h")
    dev = np.max(np.abs(h - dagger(h)))
    if dev > tol:
        raise HermiticityError(f"matrix deviates from Hermitian by {dev:.3e} > {tol:.3e}")
    w, v = np.linalg.eigh((h + dagger(h)) / 2)
    return w, _fix_phases(v)


def sign_unitarize(h: np.ndarray, zero_tol: float = 1e-10) -> np.ndarray:
    """Hermitian sign function with the zero eigenspace sent to +1.

    Eigenvalues below ``-zero_tol`` map to -1; everything else, including
    the band around zero, maps to +1. The result is Hermitian and unitary,
    and commutes with `h`.
    """
    w, v = hermitian_eig(h, tol=zero_tol)
    signs = np.where(w < -zero_tol, -1.0, 1.0)
    return (v * signs) @ dagger(v)


def projector_onto_range(g: np.ndarray, rank_tol: float = 1e-8) -> np.ndarray:
    """Orthogonal projector onto the range of a positive semidefinite matrix.

    Eigenvalues at most `rank_tol` count as zero and eigenvalues of at
    least ``100 * rank_tol`` count as range; anything strictly between is
    ambiguous and raises :class:`RankError` rather than silently guessing
    the rank.
    """
    w, v = hermitian_eig(g, tol=rank_tol)
    if np.any((w > rank_tol) & (w < 100 * rank_tol)):
        bad = w[(w > rank_tol) & (w < 100 * rank_tol)]
        raise RankError(
            f"eigenvalue(s) {bad} inside the rank ambiguity band "
            f"({rank_tol:.1e}, {100 * rank_tol:.1e})"
        )
    keep = v[:, w > rank_tol]
    return keep @ dagger(keep)


def pure_fidelity(
    rho: np.ndarray, target: np.ndarray, *, trace_tol: float = 1e-8
) -> float:
    """Fidelity of a density matrix against a pure target state.

    Equals ``<target| rho |target>``. `rho` must be Hermitian with unit
    trace within `trace_tol`; `target` must be a unit vector.
    """
    rho = _as_square(rho, "rho")
    target = np.asarray(target, dtype=complex).reshape(-1)
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
    val = float(np.real(dagger(target) @ rho @ target))
    # PSD rho keeps this in [0, 1]; trim float dust only.
    return min(max(val, 0.0), 1.0)
