"""Dense complex matrix helpers: coercion, Hermitian checks, eigensystems.

`as_cmatrix` validates a matrix, `hermitianize` and `herm_defect` project
onto and measure Hermitian symmetry, and `herm_eig` gives the deterministic
eigensystem (non-increasing eigenvalues, canonical phases) that the
ensemble map is built on.  The error classes here are shared by every
module.  Hot loops elsewhere call numpy directly.
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
    """Coerce to a 2-d complex array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ShapeError(f"expected a matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def hermitianize(a) -> np.ndarray:
    """(a + a†)/2, the projection used before every eigendecomposition."""
    a = as_cmatrix(a)
    return (a + a.conj().T) / 2


def herm_defect(a) -> float:
    """Max-entry distance from Hermitian symmetry."""
    a = as_cmatrix(a)
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def herm_eig(a, tol: float = HERM_TOL) -> HermEig:
    """Eigendecomposition of a Hermitian matrix.

    Eigenvalues come back in non-increasing order and each eigenvector's
    first significant component is made real positive, so the result is a
    deterministic function of the input.  Inputs further than `tol` from
    Hermitian raise SymmetryError; closer ones are Hermitized first.
    """
    a = as_cmatrix(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"herm_eig needs a square matrix, got {a.shape}")
    if herm_defect(a) > tol:
        raise SymmetryError(f"matrix is not Hermitian within {tol:g}")
    w, v = np.linalg.eigh(hermitianize(a))
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    # canonical phase: first component with magnitude above threshold -> real positive
    for k in range(v.shape[1]):
        col = v[:, k]
        idx = np.argmax(np.abs(col) > 1e-8)
        pivot = col[idx]
        if np.abs(pivot) > 0:
            v[:, k] = col * (np.abs(pivot) / pivot)
    return HermEig(w, v)
