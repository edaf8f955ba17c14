"""Two-timescale stability machinery.

Builds the reduced closed loop around an equilibrium under the timescale
assumptions (frequency and primal low-pass channels treated as
instantaneous), moves to relative coordinates through the averaging/
difference transform T, assembles the cascade blocks, and checks:

* an LMI certificate (P_theta > 0, D_v > 0 diagonal, Q + Q^T < 0) for the
  slow reduced dynamics, found by projected subgradient descent on the
  largest eigenvalue and always re-verified independently;
* the boundary-layer (fast dual) dynamics via a Lyapunov equation on the
  negative-definite block R_zeta;
* an empirical sweep of the spectral abscissa of the linearized
  (theta, v, zeta) system over the timescale ratio tau_d/tau_v (the
  analytic separation threshold is not computed). That system is the Schur
  complement of the ``controller.ClosedLoop`` bracket Jacobian over the
  fast states (Omega, lambda), i.e. its limit as tau_omega, tau_p -> 0;
  the complement is formed once and each ratio only rescales its rows by
  [1, tau_v, ratio tau_v].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_continuous_lyapunov

from .controller import (
    IbrParams, brackets_jacobian, leakage, saturation_derivatives, voltage_output,
)
from .errors import MgshareError
from .graph import CommGraph, consensus_gain_matrix, laplacian
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
    "reduced_system_matrix",
    "spectral_abscissa",
]


def transform_matrix(n: int):
    """Averaging/difference transform T (first row 1/n, then difference rows).

    T @ 1 = e_1, so relative coordinates decouple from the two invariant
    average directions. Returns (T, T_inverse).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    T = np.zeros((n, n))
    T[0, :] = 1.0 / n
    for j in range(n - 1):
        T[j + 1, j] = -1.0
        T[j + 1, j + 1] = 1.0
    return T, np.linalg.inv(T)


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
    R_theta_av: np.ndarray
    R_thetaV_av: np.ndarray
    d_theta_av: float
    R_vtheta_new: np.ndarray
    R_vV_new: np.ndarray
    d_v_new: np.ndarray

    @property
    def n(self) -> int:
        return self.R_vV.shape[0]


def _check_angle_shift_invariance(lin: LinearizedModel):
    one = np.ones(lin.n)
    if np.linalg.norm(lin.J_theta_P @ one) > 1e-6 or np.linalg.norm(lin.J_theta_Q @ one) > 1e-6:
        raise MgshareError(
            "linearized model violates the uniform-angle-shift invariance; "
            "the relative-coordinate structure would break"
        )


def assemble_blocks(
    lin: LinearizedModel,
    g: CommGraph,
    params: IbrParams,
    omega_nom: float = 0.0,
) -> ReducedBlocks:
    """Evaluate every cascade-block formula literally and enforce the structure.

    ``omega_nom`` only enters the average-angle offset; the relative blocks
    are independent of it.
    """
    _check_angle_shift_invariance(lin)
    n = lin.n
    one = np.ones(n)
    T, Tinv = transform_matrix(n)
    Ir = np.hstack([np.zeros((n - 1, 1)), np.eye(n - 1)])
    L = laplacian(g)
    K = consensus_gain_matrix(g, params.k)
    invS = np.diag(1.0 / params.s_rated)
    mS = np.diag(params.m_omega / params.s_rated)
    Vs = np.diag(params.v_star)
    KmI = K - np.eye(n)
    tv = params.tau_v

    # structure check: transformed angle/Laplacian matrices must have zero
    # first column (besides the known-zero (1,1) entry)
    for M in (lin.J_theta_P, lin.J_theta_Q, L):
        first_col = (T @ M @ Tinv)[:, 0]
        if np.linalg.norm(first_col) > 1e-9:
            raise MgshareError("transformed matrix lost its zero first column")

    R_theta = -Ir @ T @ mS @ lin.J_theta_P @ Tinv @ Ir.T
    R_thetaV = -Ir @ T @ mS @ lin.J_V_P
    R_vtheta = Vs @ KmI @ invS @ lin.J_theta_Q @ Tinv @ Ir.T
    R_vV = Vs @ KmI @ invS @ lin.J_V_Q
    R_vzeta = -Vs @ K @ L @ Tinv @ Ir.T
    R_zetatheta = Ir @ (T @ L @ K @ invS @ lin.J_theta_Q @ Tinv @ Ir.T) / tv
    R_zetaV = Ir @ (T @ L @ K @ invS @ lin.J_V_Q) / tv
    R_zeta = -Ir @ (T @ L @ K @ L @ Tinv @ Ir.T) / tv
    d_theta = Ir @ (omega_nom * (T @ one)) - Ir @ T @ mS @ lin.w_P
    d_v = params.beta * params.v_star + Vs @ KmI @ invS @ lin.w_Q
    d_zeta = Ir @ (T @ L @ K @ invS @ lin.w_Q) / tv
    R_theta_av = -(one @ T.T) @ (T @ mS @ lin.J_theta_P @ Tinv @ Ir.T)
    R_thetaV_av = -(one @ T.T) @ (T @ mS @ lin.J_V_P)
    d_theta_av = float((one @ T.T) @ (omega_nom * (T @ one)) - (one @ T.T) @ (T @ mS @ lin.w_P))

    eig_rz = np.linalg.eigvals(R_zeta)
    if np.max(eig_rz.real) >= 0:
        raise MgshareError("R_zeta is not negative definite; graph structure broken")

    Rz_inv = np.linalg.inv(R_zeta)
    R_vtheta_new = R_vtheta - R_vzeta @ Rz_inv @ R_zetatheta
    R_vV_new = R_vV - R_vzeta @ Rz_inv @ R_zetaV
    d_v_new = d_v - R_vzeta @ Rz_inv @ d_zeta

    return ReducedBlocks(
        R_theta=R_theta, R_thetaV=R_thetaV,
        R_vtheta=R_vtheta, R_vV=R_vV, R_vzeta=R_vzeta,
        R_zetatheta=R_zetatheta, R_zetaV=R_zetaV, R_zeta=R_zeta,
        d_theta=d_theta, d_v=d_v, d_zeta=d_zeta,
        R_theta_av=R_theta_av, R_thetaV_av=R_thetaV_av, d_theta_av=d_theta_av,
        R_vtheta_new=R_vtheta_new, R_vV_new=R_vV_new, d_v_new=d_v_new,
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

    alpha_f is the smallest eigenvalue of -(P_y R_zeta + R_zeta^T P_y),
    which is 1 under this normalization; failure means R_zeta is not
    Hurwitz, contradicting graph connectivity.
    """
    m = blocks.R_zeta.shape[0]
    if np.max(np.linalg.eigvals(blocks.R_zeta).real) >= 0:
        raise MgshareError("R_zeta is not Hurwitz; Lyapunov equation has no PD solution")
    P_y = solve_continuous_lyapunov(blocks.R_zeta.T, -np.eye(m))
    P_y = 0.5 * (P_y + P_y.T)
    alpha_f = float(np.linalg.eigvalsh(
        -(P_y @ blocks.R_zeta + blocks.R_zeta.T @ P_y)
    ).min())
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


def reduced_system_matrix(
    blocks: ReducedBlocks, params: IbrParams, v_bar: np.ndarray
) -> np.ndarray:
    """Linearization of the slow reduced system at the equilibrium (2n-1 states)."""
    n = blocks.n
    H, drho_v = saturation_derivatives(params, v_bar)
    A11 = blocks.R_theta
    A12 = blocks.R_thetaV * H[None, :]
    A21 = blocks.R_vtheta_new / params.tau_v
    A22 = ((blocks.R_vV_new - params.beta * np.eye(n)) * H[None, :] - np.diag(drho_v)) / params.tau_v
    return np.block([[A11, A12], [A21, A22]])


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
    is the quasi-steady dual limit, evaluated on the slow reduced system
    directly; only then are the cascade blocks assembled.
    """
    _check_angle_shift_invariance(lin)
    n = lin.n
    J = brackets_jacobian("proposed", params, laplacian(g), lin, v_bar)
    slow = np.r_[0:n, 2 * n:3 * n, 4 * n:5 * n]     # theta, v, zeta
    fast = np.r_[n:2 * n, 3 * n:4 * n]              # Omega, lambda
    S = J[np.ix_(slow, slow)] - J[np.ix_(slow, fast)] @ np.linalg.solve(
        J[np.ix_(fast, fast)], J[np.ix_(fast, slow)])
    out = []
    for r in ratios:
        if r == 0:
            A = reduced_system_matrix(assemble_blocks(lin, g, params), params, v_bar)
            out.append((0.0, spectral_abscissa(A)))
        else:
            tau = np.repeat([1.0, params.tau_v, r * params.tau_v], n)
            out.append((float(r), spectral_abscissa(S / tau[:, None], n_structural_zeros=2)))
    return out
