"""Pure-state ensembles of a density operator and the isometry that walks them.

Every decomposition rho = sum_i p_i |psi_i><psi_i| is reachable from the
eigendecomposition rho = sum_j lam_j |e_j><e_j| through a left isometry u
(m x rank, u† u = 1):

    |psi_i> = (1/sqrt(p_i)) sum_j u[i, j] sqrt(lam_j) |e_j>,
    p_i = sum_j |u[i, j]|^2 lam_j.

`hjw_ensemble` applies that map; `isometry_for_ensemble` inverts it.  The
eigenbasis convention is qmat.herm_eig's deterministic one, so the map is a
deterministic function of (rho, u).  `hjw_members` and `eigen_ensembles`
are the array kernels behind `hjw_ensemble` and `eigen_ensemble`; they take
stacks, and give each member the bits it gets alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qmat import ShapeError, as_cmatrix, herm_eig
from .qstate import (
    DensityMatrix,
    PureState,
    payload_to_state,
    state_to_payload,
    tensor_pure,
)

RANK_TOL = 1e-10
ISOMETRY_TOL = 1e-9


@dataclass(frozen=True)
class Ensemble:
    """Weighted list of pure states on a common dimension grid."""

    weights: np.ndarray
    states: tuple[PureState, ...]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).reshape(-1).copy()
        states = tuple(self.states)
        if w.size == 0 or w.size != len(states):
            raise ValueError(f"{w.size} weights for {len(states)} states")
        if float(w.min()) < -1e-12:
            raise ValueError(f"negative ensemble weight {float(w.min()):.3e}")
        if abs(float(w.sum()) - 1.0) > 1e-9:
            raise ValueError(f"ensemble weights sum to {float(w.sum())!r}")
        dims = states[0].dims
        for s in states:
            if s.dims != dims:
                raise ShapeError(f"member dims {s.dims} != {dims}")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "states", states)

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self):
        return zip(self.weights, self.states)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.states[0].dims


def check_isometry(u, tol: float = ISOMETRY_TOL) -> np.ndarray:
    """Validate u† u = 1 on the columns of u, or of each matrix in a (..., m, n)
    stack; returns the coerced array."""
    u = as_cmatrix(u)
    m, n = u.shape[-2:]
    if m < n:
        raise ShapeError(f"isometry needs at least as many rows as columns, got {u.shape}")
    gram = np.swapaxes(u.conj(), -1, -2) @ u
    defect = float(np.max(np.abs(gram - np.eye(n)))) if gram.size else 0.0
    if defect > tol:
        raise ValueError(f"isometry defect {defect:.3e} exceeds {tol:g}")
    return u


def support_decomposition(rho: DensityMatrix, rank_tol: float = RANK_TOL):
    """Eigenvalues above rank_tol and their eigenvectors, descending."""
    w, v = herm_eig(rho.mat)
    keep = w > rank_tol
    return w[keep], v[:, keep]


def eigen_ensemble(rho: DensityMatrix) -> Ensemble:
    """rho's eigen-ensemble {lam_j / sum(lam), e_j} over its support."""
    [(weights, flags)] = eigen_ensembles(*herm_eig(rho.mat[None]))
    return Ensemble(weights, tuple(PureState(rho.dims, e) for e in flags.T))


def eigen_ensembles(w: np.ndarray, v: np.ndarray) -> list:
    """(weights, flags) of the eigen-ensemble of each matrix of a (T, d, d)
    stack, from its eigensystem in herm_eig's convention: (T, d) eigenvalues
    w, non-increasing, and (T, d, d) eigenvectors v.

    Trial t's weights are its eigenvalues above RANK_TOL over their sum, and
    its flags the matching eigenvectors as the columns of a (d, r) array.
    Nothing here checks the matrices as density operators.
    """
    ranks = (w > RANK_TOL).sum(axis=-1)
    out = [None] * len(ranks)
    for r in np.unique(ranks):      # one group per support size
        trials = np.flatnonzero(ranks == r)
        lam = w[trials, :r]
        for t, weights, flags in zip(trials, lam / lam.sum(axis=-1, keepdims=True),
                                     v[trials, :, :r]):
            out[t] = (weights, flags)
    return out


def hjw_ensemble(rho: DensityMatrix, u, ptol: float = 1e-12) -> Ensemble:
    """Ensemble generated from rho's eigendecomposition by the isometry u.

    u must have exactly rank(rho) columns (eigenvalues above 1e-10 count).
    Members whose weight falls below ptol are dropped and the rest
    renormalized.
    """
    u = check_isometry(u)
    lam, vecs = support_decomposition(rho)
    r = lam.size
    if u.shape[1] != r:
        raise ShapeError(f"isometry has {u.shape[1]} columns, rank is {r}")
    p, members = hjw_members(lam, vecs, u)
    keep = np.flatnonzero(p > ptol)
    if keep.size == 0:
        raise ValueError("every member weight fell below ptol")
    w = p[keep] / p[keep].sum()
    return Ensemble(w, tuple(PureState(rho.dims, members[i]) for i in keep))


def hjw_members(lam: np.ndarray, vecs: np.ndarray, u: np.ndarray):
    """Weights p_i and unit vectors psi_i of the ensemble map, unchecked.

    (lam, vecs) is a support decomposition and u an m x rank isometry, or a
    (..., m, rank) stack of them; returns p (..., m) and the members as the
    rows of a (..., m, D) array.  A member of zero weight keeps its zero vector.
    """
    basis = vecs * np.sqrt(lam)                     # columns sqrt(lam_j)|e_j>
    raw = basis @ np.swapaxes(u, -1, -2)            # column i = unnormalized psi_i
    p = np.einsum("...di,...di->...i", raw.conj(), raw).real
    members = np.swapaxes(raw, -1, -2) / np.sqrt(np.where(p > 0, p, 1.0))[..., None]
    return p, members


def mix(e: Ensemble) -> DensityMatrix:
    """sum_i p_i |psi_i><psi_i| as a validated density operator."""
    d = e.states[0].dim
    out = np.zeros((d, d), dtype=np.complex128)
    for w, s in e:
        out += w * s.projector()
    return DensityMatrix(e.dims, out)


def isometry_for_ensemble(rho: DensityMatrix, e: Ensemble) -> np.ndarray:
    """Inverse of the ensemble map: the isometry u with hjw_ensemble(rho, u) = e.

    Requires mix(e) = rho (same support); u[i, j] = sqrt(p_i) <e_j|psi_i> / sqrt(lam_j).
    """
    lam, vecs = support_decomposition(rho)
    psi = np.stack([s.vec for s in e.states], axis=1)     # d x m
    overlaps = vecs.conj().T @ psi                         # r x m
    u = (np.sqrt(e.weights)[None, :] * overlaps / np.sqrt(lam)[:, None]).T
    return check_isometry(u)


def product_ensemble(a: Ensemble, b: Ensemble) -> Ensemble:
    """All pairwise tensor products; realizes mix(a) (x) mix(b)."""
    weights = []
    states = []
    for wa, sa in a:
        for wb, sb in b:
            weights.append(wa * wb)
            states.append(tensor_pure(sa, sb))
    return Ensemble(np.asarray(weights), tuple(states))


def flagged_state(weights: Sequence[float], states: Sequence[DensityMatrix]) -> DensityMatrix:
    """sum_i w_i rho_i (x) |i><i| with the classical flag register appended."""
    w = np.asarray(weights, dtype=float).reshape(-1)
    states = list(states)
    if w.size == 0 or w.size != len(states):
        raise ValueError(f"{w.size} weights for {len(states)} states")
    if float(w.min()) < -1e-12 or abs(float(w.sum()) - 1.0) > 1e-9:
        raise ValueError("flag weights must form a probability vector")
    dims = states[0].dims
    for s in states:
        if s.dims != dims:
            raise ShapeError(f"flagged member dims {s.dims} != {dims}")
    m = w.size
    d = states[0].dim
    out = np.zeros((d * m, d * m), dtype=np.complex128)
    for i, (wi, s) in enumerate(zip(w, states)):
        flag = np.zeros((m, m))
        flag[i, i] = 1.0
        out += wi * np.kron(s.mat, flag)
    return DensityMatrix(dims + (m,), out)


# ---------------------------------------------------------------------------
# ensemble files: [{"weight": w, "state": <pure state payload>}, ...]


def ensemble_to_payload(e: Ensemble) -> list[dict]:
    return [{"weight": float(w), "state": state_to_payload(s)} for w, s in e]


def payload_to_ensemble(payload) -> Ensemble:
    if not isinstance(payload, list) or not payload:
        raise ValueError("ensemble payload must be a nonempty list")
    weights = []
    states = []
    for entry in payload:
        try:
            weights.append(float(entry["weight"]))
            state = payload_to_state(entry["state"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed ensemble entry: {exc}") from exc
        if not isinstance(state, PureState):
            raise ValueError("ensemble members must be pure states")
        states.append(state)
    return Ensemble(np.asarray(weights), tuple(states))


def save_ensemble(path, e: Ensemble) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ensemble_to_payload(e), fh)
        fh.write("\n")


def load_ensemble(path) -> Ensemble:
    with open(path, "r", encoding="utf-8") as fh:
        return payload_to_ensemble(json.load(fh))
