"""Dense complex matrix helpers: coercion, Hermitian checks, eigensystems.

`as_cmatrix` validates a matrix or a stack of them, and `herm_eig` checks
Hermitian symmetry and gives the deterministic eigensystem (non-increasing
eigenvalues, canonical phases) that the ensemble map is built on, for one
matrix or a stack; `canonical_eig` puts an eigh already taken into that
convention.  The error classes
here are shared by every module.  Hot loops elsewhere call numpy directly.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

DEFAULT_MAX_DIM = 4096
HERM_TOL = 1e-9


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class SymmetryError(ValueError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class SizeError(ValueError):
    """A result would exceed the configured maximum total dimension."""


class HermEig(NamedTuple):
    """Eigensystem of a Hermitian matrix, eigenvalues non-increasing."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_cmatrix(a) -> np.ndarray:
    """Coerce to a complex matrix, or a (..., r, c) stack of them, rejecting
    non-finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim < 2:
        raise ShapeError(f"expected a matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def herm_eig(a, tol: float = HERM_TOL) -> HermEig:
    """Eigendecomposition of a Hermitian matrix, or of each in a (..., d, d) stack.

    Eigenvalues come back in non-increasing order and each eigenvector's
    first significant component is made real positive, so the result is a
    deterministic function of the input, and a matrix gets the same bits
    alone as in a stack.  Inputs further than `tol` from Hermitian raise
    SymmetryError; closer ones are Hermitized first.
    """
    a = as_cmatrix(a)
    if a.shape[-2] != a.shape[-1]:
        raise ShapeError(f"herm_eig needs a square matrix, got {a.shape}")
    adjoint = np.swapaxes(a.conj(), -1, -2)
    if a.size and float(np.max(np.abs(a - adjoint))) > tol:
        raise SymmetryError(f"matrix is not Hermitian within {tol:g}")
    return canonical_eig(*np.linalg.eigh((a + adjoint) / 2))


def canonical_eig(w: np.ndarray, v: np.ndarray) -> HermEig:
    """An `np.linalg.eigh` result (ascending w, eigenvectors v, for one matrix
    or a stack) in herm_eig's convention: non-increasing eigenvalues, and
    each eigenvector's first significant component real positive."""
    w = w[..., ::-1].copy()
    v = v[..., ::-1].copy()
    # canonical phase: first component with magnitude above threshold -> real
    # positive; a column with a zero pivot is left as it is
    first = np.argmax(np.abs(v) > 1e-8, axis=-2)[..., None, :]
    pivot = np.take_along_axis(v, first, axis=-2)
    size = np.abs(pivot)
    live = size > 0
    phase = np.divide(size, pivot, out=np.ones_like(pivot), where=live)
    return HermEig(w, np.where(live, v * phase, v))
