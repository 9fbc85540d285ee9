"""Entanglement of formation: exact pieces and the ensemble minimizer.

The minimizer searches decompositions of rho through the isometry map: an
m x m unitary exp(i H) is built from m^2 real parameters, its first rank(rho)
columns feed `hjw_ensemble`, and the ensemble-average entanglement across the
requested cut is pushed down by L-BFGS-B.  Each evaluation is one objective
call, which returns the value with its exact gradient: a member cost maps
the raw member columns sqrt(p_i) psi_i to the value and its Wirtinger
gradient, which is chained back through exp(i H) to the parameters.  The
member costs here are the entanglement entropy across a cut
(`entropy_value_grad`) and the two-qubit Wootters EoF of a pair reduction
(`wootters_value_grad`), whose concurrence and gradient come from one
batched kernel, `concurrence_factors`.
Restart 0 starts from the zero parameter vector (the eigen-decomposition),
optional warm starts follow, and the remaining restarts draw their parameter
vectors from Gaussian streams seeded by (seed, restart index), so the whole
estimate is deterministic for fixed options.

Every value this module produces is an upper bound on the true EoF; only the
two-qubit closed form is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.linalg
import scipy.optimize

from .ensembles import (
    Ensemble,
    hjw_ensemble,
    isometry_for_ensemble,
    support_decomposition,
)
from .qstate import (
    EIG_FLOOR,
    DensityMatrix,
    PureState,
    cut_permutation,
    schmidt,
    spectral_entropy,
)

AUTO_ENSEMBLE_CAP = 16

# raw (D, m) member columns -> (value, dF/d conj(raw))
MemberCost = Callable[[np.ndarray], tuple[float, np.ndarray]]


def eof_pure(psi: PureState, cut: Iterable[int]) -> float:
    """Exact entanglement of a pure state across the cut (marginal entropy)."""
    s = schmidt(psi, cut).coeffs
    return spectral_entropy(s * s)


def ensemble_average_entanglement(e: Ensemble, cut: Iterable[int]) -> float:
    """sum_i p_i E(psi_i) across the cut; an upper bound on EoF of mix(e)."""
    cut = tuple(cut)
    return float(sum(w * eof_pure(s, cut) for w, s in e))


# sigma_y (x) sigma_y maps |00>, |01>, |10>, |11> to -|11>, |10>, |01>, -|00>:
# a row reversal with these signs, exact in floating point
_YY_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])
_TINY = np.finfo(float).tiny
_LN2 = math.log(2.0)


def concurrence_factors(x: np.ndarray, gradient: bool = False):
    """Two-qubit concurrence of rho = X X^dagger for a (N, 4, k) stack of X.

    C = max(0, s1 - s2 - s3 - s4) from the singular values s of the complex
    symmetric tau = X^T (Y x Y) X, which are the square roots of the
    eigenvalues of rho (Y x Y) rho* (Y x Y); X is not normalized, so C
    scales with tr rho.  With gradient=True, also returns the Wirtinger
    gradient dC/d conj(X) = (Y x Y) conj(X) (W + W^T) / 2 with
    W = U diag(1, -1, ..., -1) V^dagger from the same SVD tau = U S V^dagger,
    and the zero subgradient where C clips to 0.
    """
    flip = x[..., ::-1, :] * _YY_SIGNS[:, None]                 # (Y x Y) X
    tau = np.swapaxes(x, -1, -2) @ flip
    if not gradient:
        s = np.linalg.svd(tau, compute_uv=False)
        return np.maximum(0.0, s[..., 0] - s[..., 1:].sum(axis=-1))
    u, s, vh = np.linalg.svd(tau)
    conc = s[..., 0] - s[..., 1:].sum(axis=-1)
    signs = -np.ones(s.shape[-1])
    signs[0] = 1.0
    w = (u * signs) @ vh
    grad = 0.5 * flip.conj() @ (w + np.swapaxes(w, -1, -2))
    grad[conc <= 0.0] = 0.0
    return np.maximum(conc, 0.0), grad


def _eof_from_concurrence(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E(c) = h((1 + sqrt(1 - c^2)) / 2) and dE/dc for concurrences c >= 0.

    With r = sqrt(1 - c^2), x = (1 + r) / 2 and y = 1 - x = c^2 / (4 x),
    both entropy terms stay accurate for small c, and
    dE/dc = c artanh(r) / (r ln 2) = c (ln x - ln y) / (2 r ln 2) stays
    finite as c -> 0 (where it tends to 0) and as c -> 1 (where it tends to
    1 / ln 2, the value taken at r = 0).
    """
    c = np.minimum(c, 1.0)                  # rounding can put C/p a hair above 1
    r = np.sqrt((1.0 - c) * (1.0 + c))
    x = (1.0 + r) / 2.0
    y = c * c / (4.0 * x)
    log_x = np.log1p(-y)
    log_y = np.log(np.maximum(y, _TINY))     # y * log_y = 0 wherever y = 0
    value = (0.0 - x * log_x - y * log_y) / _LN2        # 0.0 - keeps E(0) = +0.0
    at_one = r == 0.0                       # c = 1, where artanh(r) / r -> 1
    ratio = (log_x - log_y + at_one) / (2.0 * r + at_one)
    return value, c * ratio / _LN2


def concurrence_2q(rho: DensityMatrix) -> float:
    """Two-qubit concurrence, from the factor X = V sqrt(w) of rho's eigh."""
    if rho.dims != (2, 2):
        raise ValueError(f"two-qubit closed form needs dims (2, 2), got {rho.dims}")
    w, v = np.linalg.eigh((rho.mat + rho.mat.conj().T) / 2)
    return float(concurrence_factors(v * np.sqrt(np.maximum(w, 0.0))))


def eof_wootters_2q(rho: DensityMatrix) -> float:
    """Exact two-qubit EoF via the concurrence closed form."""
    return float(_eof_from_concurrence(concurrence_2q(rho))[0])


def entropy_value_grad(x: np.ndarray) -> tuple[float, np.ndarray]:
    """sum_i p_i S(psi_i) over a (m, d_left, d_right) stack, and its gradient.

    Member i is X_i = sqrt(p_i) psi_i reshaped across a cut.  With
    M = X X^dagger and p = tr M, the term -tr M log2(M/p) has the Wirtinger
    gradient -log2(M/p) X, taken here from one SVD.  Terms the value drops
    (mu <= EIG_FLOOR, or p <= 1e-15) get zero weight in the gradient too.
    """
    left, s, right = np.linalg.svd(x, full_matrices=False)
    lam2 = s * s
    p = lam2.sum(axis=-1)
    p_safe = np.where(p > 1e-15, p, 1.0)
    mu = lam2 / p_safe[:, None]
    mask = (mu > EIG_FLOOR) & (p[:, None] > 1e-15)
    log_mu = np.log2(np.where(mask, mu, 1.0))
    value = float(np.where(mask, -lam2 * log_mu, 0.0).sum())
    return value, -(left * np.where(mask, s * log_mu, 0.0)[:, None, :]) @ right


def wootters_value_grad(x: np.ndarray) -> tuple[float, np.ndarray]:
    """sum_i p_i E_f(rho_i) over a (m, 4, k) stack, and its gradient.

    Member i is a factor X_i of its unnormalized two-qubit reduction
    rho_i = X_i X_i^dagger with p = tr rho_i.  The term f = p E(c) with
    c = C/p has the Wirtinger gradient E(c) X + E'(c) (dC/d conj(X) - c X),
    which is zero wherever C clips to 0.  Members with p <= 1e-15 are given
    c = 0, hence zero value and gradient.
    """
    conc, dconc = concurrence_factors(x, gradient=True)
    p = np.einsum("nij,nij->n", x.conj(), x).real
    live = p > 1e-15
    c = np.where(live, conc / np.where(live, p, 1.0), 0.0)
    e, de = _eof_from_concurrence(c)
    grad = e[:, None, None] * x + de[:, None, None] * (dconc - c[:, None, None] * x)
    return float((p * e).sum()), grad


def cut_member_cost(dims: Sequence[int], cut, value_grad=entropy_value_grad) -> MemberCost:
    """Member cost of `value_grad` applied to each member reshaped across the cut.

    The returned cost maps the raw (D, m) member columns sqrt(p_i) psi_i, in
    the native subsystem order of `dims`, to (value, dF/d conj(raw)).
    """
    perm, d_left, d_right = cut_permutation(dims, cut)

    def cost(raw: np.ndarray) -> tuple[float, np.ndarray]:
        m = raw.shape[1]
        x = raw[perm, :].reshape(d_left, d_right, m).transpose(2, 0, 1)
        value, g = value_grad(x)
        g_raw = np.empty_like(raw)
        g_raw[perm, :] = g.reshape(m, -1).T
        return value, g_raw

    return cost


@dataclass
class EofOptions:
    """Knobs for the decomposition search.

    ensemble_size "auto" resolves to min(rank^2, 16), never below the rank.
    No option selects how gradients are taken: every member cost supplies
    its own exact gradient (see minimize_over_decompositions).
    """

    restarts: int = 20
    max_iterations: int = 500
    ensemble_size: int | str = "auto"
    convergence_tol: float = 1e-7
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.convergence_tol <= 0:
            raise ValueError("convergence_tol must be positive")
        if self.ensemble_size != "auto":
            self.ensemble_size = int(self.ensemble_size)
            if self.ensemble_size < 1:
                raise ValueError("ensemble_size must be >= 1 or 'auto'")


@dataclass
class EofEstimate:
    """Outcome of a minimization run.

    `value` is the smallest objective seen; nonconvergence is reported in
    `converged`, never raised.
    """

    value: float
    best_ensemble: Ensemble
    converged: bool
    restarts_used: int
    iterations: int
    restart_values: tuple[float, ...] = field(default=())


def _params_to_hermitian(x: np.ndarray, m: int) -> np.ndarray:
    """Map m^2 real parameters to a Hermitian matrix.

    x holds the m diagonal entries, then the real parts and then the
    imaginary parts of the strict upper triangle in row-major order.
    """
    k = m * (m - 1) // 2
    upper = x[m:m + k] + 1j * x[m + k:]
    h = np.diag(x[:m].astype(np.complex128))
    iu = np.triu_indices(m, 1)
    h[iu] = upper
    h[iu[1], iu[0]] = upper.conj()
    return h


def _hermitian_to_params(h: np.ndarray) -> np.ndarray:
    """Inverse of _params_to_hermitian for a single matrix."""
    m = h.shape[0]
    iu = np.triu_indices(m, 1)
    off = h[iu]
    return np.concatenate([np.diagonal(h).real, off.real, off.imag])


class _DecompositionObjective:
    """sum_i p_i cost(psi_i) over the isometry chart, with its exact gradient.

    Calling the objective with a parameter vector x builds U = exp(i H(x))
    from the eigendecomposition H = V diag(w) V^dagger, forms the member
    columns raw = basis U[:, :rank]^T (column i is sqrt(p_i) psi_i), and
    returns the value with its gradient in x.  The member cost returns the
    value with the Wirtinger derivative G_raw = dF/d conj(raw), which is
    chained back through raw -> U -> H -> x.
    """

    def __init__(self, rho: DensityMatrix, cut, m: int, member_cost: MemberCost | None = None):
        lam, vecs = support_decomposition(rho)
        self.rank = int(lam.size)
        self.m = m
        self.nparams = m * m
        self.basis = vecs * np.sqrt(lam)
        self.cost = member_cost if member_cost is not None else cut_member_cost(rho.dims, cut)
        self.triu = np.triu_indices(m, 1)

    def _unitary(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """U = exp(i H(x)) = V diag(e^{iw}) V^dagger, with the eigensystem (w, V) of H(x)."""
        w, v = np.linalg.eigh(_params_to_hermitian(x, self.m))
        return (v * np.exp(1j * w)) @ v.conj().T, w, v

    def isometry(self, x: np.ndarray) -> np.ndarray:
        """The first rank columns of exp(i H(x)), which feed `hjw_ensemble`."""
        return self._unitary(x)[0][:, : self.rank]

    def __call__(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """Objective value and its gradient at the parameter vector x."""
        u, w, v = self._unitary(x)
        raw = self.basis @ u[:, : self.rank].T                  # (D, m) columns
        value, g_raw = self.cost(raw)
        return value, self._chain(g_raw, w, v)

    def _chain(self, g_raw: np.ndarray, w: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Chain dF/d conj(raw) back through U = exp(iH) to the parameters."""
        m = self.m
        g_u = np.zeros((m, m), dtype=np.complex128)
        g_u[:, : self.rank] = (self.basis.conj().T @ g_raw).T
        # divided differences of exp(i.) at the eigenvalues, in the sinc form
        # that stays exact for equal or nearly equal eigenvalues
        half_sum = (w[:, None] + w[None, :]) / 2
        half_gap = (w[:, None] - w[None, :]) / 2
        phi = 1j * np.exp(1j * half_sum) * np.sinc(half_gap / np.pi)
        vh = v.conj().T
        g_h = v @ (np.conj(phi) * (vh @ g_u @ v)) @ vh
        upper = g_h[self.triu]
        lower = g_h.T[self.triu]
        return 2.0 * np.concatenate([
            np.diagonal(g_h).real, (upper + lower).real, upper.imag - lower.imag])


def _complete_to_unitary(u: np.ndarray, m: int) -> np.ndarray:
    """Extend m' x r orthonormal columns (padded to m rows) to an m x m unitary."""
    r = u.shape[1]
    full = np.zeros((m, r), dtype=np.complex128)
    full[: u.shape[0], :] = u
    if r == m:
        return full
    proj = np.eye(m) - full @ full.conj().T
    w, v = np.linalg.eigh(proj)
    comp = v[:, w > 0.5]
    if comp.shape[1] != m - r:
        raise ValueError("could not complete isometry to a unitary")
    return np.hstack([full, comp])


def _params_for_ensemble(rho: DensityMatrix, e: Ensemble, m: int) -> np.ndarray:
    """Parameter vector whose unitary reproduces the given decomposition."""
    u = isometry_for_ensemble(rho, e)
    if u.shape[0] > m:
        raise ValueError(f"warm start has {u.shape[0]} members, ensemble size is {m}")
    w = _complete_to_unitary(u, m)
    t, z = scipy.linalg.schur(w, output="complex")
    theta = np.angle(np.diagonal(t))
    h = (z * theta) @ z.conj().T
    h = (h + h.conj().T) / 2
    return _hermitian_to_params(h)


def resolve_ensemble_size(rank: int, requested: int | str, warm_sizes: Sequence[int] = ()) -> int:
    """Apply the auto rule and the hard floors (rank, warm-start member count)."""
    if requested == "auto":
        m = min(rank * rank, AUTO_ENSEMBLE_CAP)
    else:
        m = int(requested)
        if m < rank:
            raise ValueError(f"ensemble_size {m} is below the state rank {rank}")
    return max(m, rank, *(int(s) for s in warm_sizes), 1)


def minimize_over_decompositions(
    rho: DensityMatrix,
    cut,
    opts: EofOptions | None = None,
    member_cost: MemberCost | None = None,
    warm_starts: Sequence[Ensemble] = (),
) -> EofEstimate:
    """Minimize sum_i p_i cost(psi_i) over decompositions of rho.

    member_cost None means the default cost, entanglement entropy across
    `cut` (`cut_member_cost(rho.dims, cut)`).  A custom member_cost receives
    the raw (D, m) member columns v_i = sqrt(p_i) psi_i in the state's
    native subsystem order and returns the value sum_i p_i c(psi_i) with
    its Wirtinger gradient dF/d conj(v), a (D, m) array; `cut_member_cost`
    builds such costs from `entropy_value_grad` and `wootters_value_grad`.
    The gradient is chained through exp(iH) to the parameters, so one
    L-BFGS-B evaluation is one objective call, which calls the member cost
    once.
    """
    opts = opts if opts is not None else EofOptions()
    cut = tuple(cut)
    lam, _ = support_decomposition(rho)
    rank = int(lam.size)
    m = resolve_ensemble_size(rank, opts.ensemble_size, [len(e) for e in warm_starts])
    obj = _DecompositionObjective(rho, cut, m, member_cost)
    n = obj.nparams

    starts: list[np.ndarray] = [np.zeros(n)]
    for e in warm_starts:
        starts.append(_params_for_ensemble(rho, e, m))
    n_runs = max(opts.restarts, len(starts))
    for k in range(len(starts), n_runs):
        rng = np.random.default_rng([opts.seed, k])
        starts.append(rng.standard_normal(n))

    best_value = math.inf
    best_x = starts[0]
    best_run = (False, 0)
    restart_values: list[float] = []

    for x0 in starts:
        run_best = [math.inf, x0]

        def fun_and_grad(x, _run_best=run_best):
            value, grad = obj(x)
            if value < _run_best[0]:
                _run_best[0] = value
                _run_best[1] = x.copy()
            return value, grad

        res = scipy.optimize.minimize(
            fun_and_grad,
            x0,
            jac=True,
            method="L-BFGS-B",
            options={
                "maxiter": opts.max_iterations,
                "ftol": opts.convergence_tol,
                "gtol": 1e-6,
            },
        )
        value, x_best_run = run_best
        restart_values.append(float(value))
        if value < best_value:
            best_value = float(value)
            best_x = x_best_run
            best_run = (bool(res.success), int(res.nit))

    ensemble = hjw_ensemble(rho, obj.isometry(best_x))
    return EofEstimate(
        value=float(best_value),
        best_ensemble=ensemble,
        converged=best_run[0],
        restarts_used=n_runs,
        iterations=best_run[1],
        restart_values=tuple(restart_values),
    )


def eof_minimize(
    rho: DensityMatrix,
    cut,
    opts: EofOptions | None = None,
    warm_starts: Sequence[Ensemble] = (),
) -> EofEstimate:
    """Numerical EoF upper bound across the cut via the decomposition search."""
    return minimize_over_decompositions(rho, cut, opts, None, warm_starts)
