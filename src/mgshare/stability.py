"""Two-timescale stability machinery.

Every matrix here comes from the one closed-loop model,
``controller.brackets_jacobian``. Its Schur complement over the fast states
(Omega, lambda) is the linearized (theta, v, zeta) system, i.e. the limit
tau_omega, tau_p -> 0. Projecting theta and zeta onto n-1 difference
coordinates through the averaging/difference transform T gives the cascade
blocks, and the module checks:

* an LMI certificate (P_theta > 0, D_v > 0 diagonal, Q + Q^T < 0) for the
  slow reduced dynamics, found by projected subgradient descent on the
  largest eigenvalue and always re-verified independently;
* the boundary-layer (fast dual) dynamics via a Lyapunov equation on the
  Hurwitz block R_zeta, solved in its eigenbasis with numpy;
* an empirical sweep of the spectral abscissa of the linearized
  (theta, v, zeta) system over the timescale ratio tau_d/tau_v (the
  analytic separation threshold is not computed). The complement is formed
  once; each nonzero ratio rescales its rows by [1, tau_v, ratio tau_v],
  and ratio 0, the quasi-steady dual limit, eliminates zeta as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controller import IbrParams, brackets_jacobian, leakage, voltage_output
from .errors import MgshareError
from .graph import CommGraph, laplacian
from .network import LinearizedModel

__all__ = [
    "transform_matrix",
    "ReducedBlocks",
    "assemble_blocks",
    "LmiCertificate",
    "solve_lmi",
    "boundary_layer_check",
    "epsilon_sweep",
    "reduced_rhs",
    "lyapunov_value",
    "spectral_abscissa",
]


def transform_matrix(n: int):
    """Averaging/difference transform T (first row 1/n, then difference rows).

    T @ 1 = e_1, so relative coordinates decouple from the two invariant
    average directions. Returns (T, T_inverse); the inverse is in closed
    form: first column 1, then T_inverse[i, j] = j/n - [i < j].
    """
    if n < 2:
        raise ValueError("need n >= 2")
    T = np.vstack([np.full(n, 1.0 / n), np.diff(np.eye(n), axis=0)])
    j = np.arange(n)
    return T, np.where(j == 0, 1.0, j / n - (j[:, None] < j))


@dataclass(frozen=True)
class ReducedBlocks:
    """Cascade blocks of the reduced dynamics in relative coordinates.

    Shapes: R_theta, R_zetatheta, R_zeta are (n-1, n-1); R_vV is (n, n);
    R_thetaV, R_zetaV are (n-1, n); R_vtheta, R_vzeta are (n, n-1).
    ``R_vtheta_new`` / ``R_vV_new`` / ``d_v_new`` fold the quasi-steady dual
    back into the voltage channel. tau_v is baked into the zeta-row blocks.
    """

    R_theta: np.ndarray
    R_thetaV: np.ndarray
    R_vtheta: np.ndarray
    R_vV: np.ndarray
    R_vzeta: np.ndarray
    R_zetatheta: np.ndarray
    R_zetaV: np.ndarray
    R_zeta: np.ndarray
    d_theta: np.ndarray
    d_v: np.ndarray
    d_zeta: np.ndarray
    R_vtheta_new: np.ndarray
    R_vV_new: np.ndarray
    d_v_new: np.ndarray

    @property
    def n(self) -> int:
        return self.R_vV.shape[0]


def _check_angle_shift_invariance(lin: LinearizedModel, L: np.ndarray):
    one = np.ones(lin.n)
    if max(np.linalg.norm(M @ one) for M in (lin.J_theta_P, lin.J_theta_Q, L)) > 1e-9:
        raise MgshareError(
            "linearized model or Laplacian violates the uniform-angle-shift "
            "invariance; the relative-coordinate structure would break"
        )


def _schur(M: np.ndarray, k: int) -> np.ndarray:
    """Schur complement of M over its last k rows and columns; extra columns ride along."""
    return M[:-k, :-k] - M[:-k, -k:] @ np.linalg.solve(M[-k:, -k:], M[-k:, :-k])


def _eliminate_fast(J: np.ndarray) -> np.ndarray:
    """Complement of a proposed-mode bracket Jacobian over (Omega, lambda).

    Rows follow [theta, v, zeta] and columns [theta, v, extra, zeta], where
    the extra columns are those of ``J`` beyond its 5n.
    """
    n = J.shape[0] // 5
    order = np.arange(5 * n).reshape(5, n)[[0, 2, 4, 1, 3]].ravel()
    cols = np.concatenate([order[:2 * n], np.arange(5 * n, J.shape[1]), order[2 * n:]])
    return _schur(J[np.ix_(order, cols)], 2 * n)


def _relative(S: np.ndarray) -> np.ndarray:
    """Rows [r_theta, v, r_zeta] and columns [r_theta, v, extra, r_zeta] of S.

    r = T[1:] x holds the n-1 neighbour differences of x, and x = 1 x_av
    + T^-1[:, 1:] r, where the complement annihilates the uniform shift 1.
    """
    n = S.shape[0] // 3
    T, T_inv = transform_matrix(n)
    D, N = T[1:], T_inv[:, 1:]
    X = np.vstack([D @ S[:n], S[n:2 * n], D @ S[2 * n:]])
    return np.hstack([X[:, :n] @ N, X[:, n:-n], X[:, -n:] @ N])


def _slow_limit_matrix(S: np.ndarray, params: IbrParams) -> np.ndarray:
    """Slow reduced system [r_theta, v] of the complement S: zeta eliminated, v rows / tau_v."""
    m = params.n - 1
    A = _schur(_relative(S), m)
    A[m:] /= params.tau_v
    return A


def assemble_blocks(lin: LinearizedModel, g: CommGraph, params: IbrParams) -> ReducedBlocks:
    """Cascade blocks of the closed loop around the flow linearized by ``lin``.

    The bracket Jacobian at v = 0 is the loop in V coordinates (dV/dv = 1,
    no leakage slope); beta is split out of R_vV, as ``_q_matrix`` and
    ``reduced_rhs`` apply it. The offsets are the same elimination applied
    to the constant terms of the linearized flow.
    """
    L = laplacian(g)
    _check_angle_shift_invariance(lin, L)
    p, n, m = params, lin.n, lin.n - 1
    c = np.zeros(5 * n)
    c[n:2 * n] = -p.m_omega / p.s_rated * lin.w_P
    c[2 * n:3 * n] = p.v_star * (p.beta - lin.w_Q / p.s_rated)
    c[3 * n:4 * n] = lin.w_Q / p.s_rated
    J = brackets_jacobian("proposed", p, L, lin, np.zeros(n))
    R = _relative(_eliminate_fast(np.column_stack([J, c])))
    R[m + n:] /= p.tau_v
    th, v, one, ze = slice(0, m), slice(m, m + n), m + n, slice(-m, None)
    if np.max(np.linalg.eigvals(R[ze, ze]).real) >= 0:
        raise MgshareError("R_zeta is not negative definite; graph structure broken")
    new = _schur(R, m)[v]
    beta = p.beta * np.eye(n)
    return ReducedBlocks(
        R_theta=R[th, th], R_thetaV=R[th, v],
        R_vtheta=R[v, th], R_vV=R[v, v] + beta, R_vzeta=R[v, ze],
        R_zetatheta=R[ze, th], R_zetaV=R[ze, v], R_zeta=R[ze, ze],
        d_theta=R[th, one], d_v=R[v, one], d_zeta=R[ze, one],
        R_vtheta_new=new[:, th], R_vV_new=new[:, v] + beta, d_v_new=new[:, one],
    )


# ---------------------------------------------------------------------------
# LMI certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LmiCertificate:
    """Candidate Lyapunov matrices with their independently computed margins."""

    P_theta: np.ndarray
    D_v: np.ndarray               # diagonal matrix
    margin: float                 # max eig of Q + Q^T (< 0 when feasible)
    alpha_s: float                # smallest eig of -(Q + Q^T)
    feasible: bool

    def verify(self, blocks: ReducedBlocks, beta: float, tol: float = 0.0) -> bool:
        """Re-check all three conditions by direct eigenvalue computation."""
        ok = np.linalg.eigvalsh(self.P_theta).min() > tol
        ok &= np.diag(self.D_v).min() > tol
        Q = _q_matrix(blocks, beta, self.P_theta, np.diag(self.D_v))
        ok &= np.linalg.eigvalsh(Q + Q.T).max() < -tol
        return bool(ok)


def _q_matrix(blocks: ReducedBlocks, beta: float, P: np.ndarray, d: np.ndarray) -> np.ndarray:
    n = blocks.n
    top = np.hstack([P @ blocks.R_theta, P @ blocks.R_thetaV])
    bot = np.hstack([
        d[:, None] * blocks.R_vtheta_new,
        d[:, None] * (blocks.R_vV_new - beta * np.eye(n)),
    ])
    return np.vstack([top, bot])


def _unpack(z: np.ndarray, m: int, n: int):
    """z -> (symmetric P (m x m), positive diag d (n,)), eigenvalue-floored."""
    P = np.zeros((m, m))
    iu = np.triu_indices(m)
    P[iu] = z[: iu[0].size]
    P = P + np.triu(P, 1).T
    d = z[iu[0].size:]
    # projection onto the (shifted) PSD cone
    w, U = np.linalg.eigh(P)
    P = (U * np.maximum(w, 1e-6)) @ U.T
    d = np.maximum(d, 1e-6)
    return P, d


def solve_lmi(
    blocks: ReducedBlocks,
    beta: float,
    max_iter: int = 4000,
    restarts: int = 5,
    seed: int = 0,
) -> LmiCertificate:
    """Search for the certificate by projected subgradient on max eig(Q + Q^T).

    The feasibility problem is tiny and convex; an infeasible outcome is
    inconclusive (the condition is sufficient only), reported with the best
    margin reached. Any feasible result self-verifies by construction.
    """
    n = blocks.n
    m = n - 1
    iu = np.triu_indices(m)
    dim = iu[0].size + n
    rng = np.random.default_rng(seed)

    def margin_of(z):
        P, d = _unpack(z, m, n)
        Q = _q_matrix(blocks, beta, P, d)
        S = Q + Q.T
        w, U = np.linalg.eigh(S)
        return w[-1], U[:, -1], P, d

    def grad(z, u):
        P, d = _unpack(z, m, n)
        u1, u2 = u[:m], u[m:]
        # d/dP of u^T (Q+Q^T) u = 2 sym(u1 (R_theta u1 + R_thetaV u2)^T)
        gP = np.outer(u1, blocks.R_theta @ u1 + blocks.R_thetaV @ u2)
        gP = gP + gP.T
        gd = 2.0 * u2 * (
            blocks.R_vtheta_new @ u1 + (blocks.R_vV_new - beta * np.eye(n)) @ u2
        )
        g = np.empty(dim)
        gsym = 0.5 * (gP + gP.T)
        # off-diagonal entries of P appear twice in the symmetric matrix
        coeff = np.where(iu[0] == iu[1], 1.0, 2.0)
        g[: iu[0].size] = gsym[iu] * coeff
        g[iu[0].size:] = gd
        return g

    starts = [np.concatenate([np.eye(m)[iu], np.ones(n)])]
    for _ in range(restarts - 1):
        starts.append(np.abs(rng.normal(size=dim)) + 0.1)

    best = None
    for z in starts:
        f_best_run = np.inf
        for it in range(max_iter):
            f, u, P, d = margin_of(z)
            if best is None or f < best[0]:
                best = (f, P, d)
            f_best_run = min(f_best_run, f)
            if f < -1e-6:
                break
            g = grad(z, u)
            gn = np.linalg.norm(g)
            if gn < 1e-14:
                break
            # Polyak-style step toward a slightly negative target level
            step = (f - (f_best_run - 0.1 * abs(f_best_run) - 1e-3)) / gn**2
            z = z - step * g
            z = z / max(np.abs(z).max(), 1e-12)
        if best is not None and best[0] < -1e-6:
            break

    f, P, d = best
    # scale up so the projection floor 1e-6 is comfortably strict
    scale = 1.0 / max(np.abs(P).max(), d.max())
    cert = LmiCertificate(
        P_theta=P * scale,
        D_v=np.diag(d * scale),
        margin=float(f * scale),
        alpha_s=float(-f * scale),
        feasible=bool(f < 0),
    )
    if cert.feasible and not cert.verify(blocks, beta):
        # numerically marginal; demote to inconclusive rather than lie
        cert = LmiCertificate(cert.P_theta, cert.D_v, cert.margin, cert.alpha_s, False)
    return cert


def boundary_layer_check(blocks: ReducedBlocks):
    """Solve P_y R_zeta + R_zeta^T P_y = -I and report (P_y, alpha_f).

    One ``eig`` of R_zeta = V Lambda V^-1 gives both the Hurwitz check and
    the solution: P_y = V^-H Y V^-1 with Y_ij = -(V^H V)_ij /
    (conj(lambda_i) + lambda_j), numpy only. alpha_f is the smallest
    eigenvalue of -(P_y R_zeta + R_zeta^T P_y), which is 1 under this
    normalization; failure means R_zeta is not Hurwitz, contradicting graph
    connectivity.
    """
    R = blocks.R_zeta
    lam, V = np.linalg.eig(R)
    if lam.real.max() >= 0:
        raise MgshareError("R_zeta is not Hurwitz; Lyapunov equation has no PD solution")
    W = np.linalg.inv(V)
    Y = -(V.conj().T @ V) / (lam.conj()[:, None] + lam)
    P_y = (W.conj().T @ Y @ W).real
    P_y = 0.5 * (P_y + P_y.T)
    alpha_f = float(np.linalg.eigvalsh(-(P_y @ R + R.T @ P_y)).min())
    return P_y, alpha_f


# ---------------------------------------------------------------------------
# reduced dynamics, Lyapunov value, eigenvalue sweep
# ---------------------------------------------------------------------------

def reduced_rhs(blocks: ReducedBlocks, params: IbrParams):
    """Right-hand side of the slow reduced system, state [r_theta, v]."""
    m = blocks.n - 1

    def rhs(_t, x):
        r = x[:m]
        v = x[m:]
        V = voltage_output(params, v)
        rho = leakage(params, v)
        dr = blocks.R_theta @ r + blocks.R_thetaV @ V + blocks.d_theta
        dv = (
            blocks.R_vtheta_new @ r
            + (blocks.R_vV_new - params.beta * np.eye(blocks.n)) @ V
            - rho * v
            + blocks.d_v_new
        ) / params.tau_v
        return np.concatenate([dr, dv])

    return rhs


def lyapunov_value(
    cert: LmiCertificate,
    params: IbrParams,
    r_theta: np.ndarray,
    v: np.ndarray,
    r_theta_bar: np.ndarray,
    v_bar: np.ndarray,
) -> float:
    """Slow-subsystem Lyapunov function, integral term in closed form.

    The integral of the shifted tanh uses the log-cosh antiderivative, so
    the non-increase test along trajectories is exact up to round-off.
    """
    rt = r_theta - r_theta_bar
    quad = 0.5 * rt @ cert.P_theta @ rt
    d = np.diag(cert.D_v)
    delta = params.delta
    vt = v - v_bar
    integral = (
        delta**2 * (np.log(np.cosh(v / delta)) - np.log(np.cosh(v_bar / delta)))
        - delta * vt * np.tanh(v_bar / delta)
    )
    return float(quad + params.tau_v * np.sum(d * integral))


def spectral_abscissa(A: np.ndarray, n_structural_zeros: int = 0) -> float:
    """Max real part of the eigenvalues after dropping known zero modes."""
    w = np.linalg.eigvals(A)
    if n_structural_zeros:
        order = np.argsort(np.abs(w))
        drop = order[:n_structural_zeros]
        if np.abs(w[drop]).max() > 1e-6:
            raise MgshareError("expected structural zero eigenvalues are missing")
        w = np.delete(w, drop)
    return float(w.real.max())


def epsilon_sweep(
    lin: LinearizedModel,
    g: CommGraph,
    params: IbrParams,
    v_bar: np.ndarray,
    ratios,
) -> list[tuple[float, float]]:
    """Spectral abscissa of the reduced closed loop per timescale ratio tau_d/tau_v.

    The (theta, v, zeta) system carries two structural zero eigenvalues
    (uniform angle and uniform dual shifts), which are excluded. ratio == 0
    is the quasi-steady dual limit, the slow reduced system in relative
    coordinates, which has none. Ratios must be nonnegative and finite.
    """
    ratios = [float(r) for r in ratios]
    if not all(0.0 <= r < np.inf for r in ratios):
        raise ValueError(f"timescale ratios must be nonnegative and finite, got {ratios}")
    L = laplacian(g)
    _check_angle_shift_invariance(lin, L)
    S = _eliminate_fast(brackets_jacobian("proposed", params, L, lin, v_bar))
    out = []
    for r in ratios:
        if r == 0:
            out.append((0.0, spectral_abscissa(_slow_limit_matrix(S, params))))
        else:
            tau = np.repeat([1.0, params.tau_v, r * params.tau_v], lin.n)
            out.append((r, spectral_abscissa(S / tau[:, None], n_structural_zeros=2)))
    return out
