"""Dense linear algebra for finite-dimensional quantum systems.

Operators are numpy arrays in row-major layout: complex128, or float64 when
they are real. Each function keeps a real input real. Bipartite
operators on a pair of subsystems with dimensions ``dims = (da, db)`` index
the joint space as ``i = a * db + b``, so the first factor is the slow index.
"""

from __future__ import annotations

import numpy as np

HERM_RTOL = 1e-12
SUPPORT_RTOL = 1e-12  # eigenvalues below this fraction of the largest count as kernel


def require_matrix(x: np.ndarray) -> np.ndarray:
    """Coerce to a finite 2-D array: complex128 if ``x`` is complex, else float64."""
    x = np.asarray(x)
    x = x.astype(complex if np.iscomplexobj(x) else float, copy=False)
    if x.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={x.ndim}")
    if not np.all(np.isfinite(x)):
        raise ValueError("matrix has non-finite entries")
    return x


def hermitian_part(x: np.ndarray) -> np.ndarray:
    """(X + X†)/2; of each matrix of a stack (..., d, d)."""
    return (x + x.conj().swapaxes(-1, -2)) / 2


def require_hermitian(x: np.ndarray, rtol: float = HERM_RTOL) -> np.ndarray:
    """Validate Hermiticity within ``rtol`` and return the symmetrized matrix.

    The tolerance is relative: max |X - X†| <= rtol * (1 + max |X|).
    """
    x = require_matrix(x)
    if x.shape[0] != x.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {x.shape}")
    scale = 1.0 + (np.abs(x).max() if x.size else 0.0)
    dev = np.abs(x - x.conj().T).max() if x.size else 0.0
    if dev > rtol * scale:
        raise ValueError(f"matrix is not Hermitian: deviation {dev:.3e} > {rtol * scale:.3e}")
    return hermitian_part(x)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product A ⊗ B."""
    return np.kron(require_matrix(a), require_matrix(b))


def _check_bipartite(x: np.ndarray, dims: tuple[int, int]) -> tuple[int, int]:
    da, db = int(dims[0]), int(dims[1])
    if da < 1 or db < 1:
        raise ValueError(f"subsystem dimensions must be >= 1, got {dims}")
    if x.shape != (da * db, da * db):
        raise ValueError(f"operator shape {x.shape} does not match dims {da}x{db}")
    return da, db


def partial_trace(x: np.ndarray, dims: tuple[int, int], part: str) -> np.ndarray:
    """Trace out subsystem ``part`` ("a" or "b") of a bipartite operator."""
    x = require_matrix(x)
    da, db = _check_bipartite(x, dims)
    t = x.reshape(da, db, da, db)
    if part == "a":
        return np.einsum("abac->bc", t)
    if part == "b":
        return np.einsum("abcb->ac", t)
    raise ValueError(f"part must be 'a' or 'b', got {part!r}")


def partial_transpose(x: np.ndarray, dims: tuple[int, int], part: str) -> np.ndarray:
    """Transpose subsystem ``part`` ("a" or "b") of a bipartite operator."""
    x = require_matrix(x)
    da, db = _check_bipartite(x, dims)
    t = x.reshape(da, db, da, db)
    if part == "a":
        return t.transpose(2, 1, 0, 3).reshape(da * db, da * db)
    if part == "b":
        return t.transpose(0, 3, 2, 1).reshape(da * db, da * db)
    raise ValueError(f"part must be 'a' or 'b', got {part!r}")


def eigh(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (w, v) with eigenvalues ``w`` ascending and unitary ``v`` such
    that ``x = v @ diag(w) @ v†`` up to roundoff.
    """
    x = require_hermitian(x)
    return np.linalg.eigh(x)


def herm_sqrt(x: np.ndarray) -> np.ndarray:
    """Hermitian square root of a PSD matrix, clipping negative eigenvalues to zero."""
    w, v = eigh(x)
    w = np.maximum(w, 0.0)
    return hermitian_part((v * np.sqrt(w)) @ v.conj().T)


def herm_inv_sqrt(x: np.ndarray) -> np.ndarray:
    """Pseudo-inverse square root of a PSD matrix on its support.

    Eigenvalues below SUPPORT_RTOL times the largest eigenvalue are
    treated as kernel and inverted to zero.
    """
    w, v = eigh(x)
    wmax = max(w.max(), 0.0) if w.size else 0.0
    inv = np.where(w > SUPPORT_RTOL * wmax, 1.0 / np.sqrt(np.maximum(w, 1e-300)), 0.0)
    return hermitian_part((v * inv) @ v.conj().T)


def support_projector(x: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the support (range) of a PSD matrix,
    with the kernel cutoff of ``herm_inv_sqrt``."""
    w, v = eigh(x)
    wmax = max(w.max(), 0.0) if w.size else 0.0
    keep = w > SUPPORT_RTOL * wmax
    vk = v[:, keep]
    return hermitian_part(vk @ vk.conj().T)
