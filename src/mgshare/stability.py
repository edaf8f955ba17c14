"""Two-timescale stability machinery.

Every matrix here comes from the one closed-loop model,
``controller.brackets_jacobian``. Its Schur complement over the fast states
(Omega, lambda) is the linearized (theta, v, zeta) system, i.e. the limit
tau_omega, tau_p -> 0. One change of basis T maps theta and zeta onto their
n-1 neighbour differences, which drops the uniform angle and dual shifts,
the two zero modes, and puts the fast states last. The relative complement
R is then one Schur complement of T J Ti, the same ``_schur`` that Kron
reduction takes. ``_complement`` builds R once per operating point, at
v = 0, for the cascade blocks. The sweep's complement at the equilibrium v
is R with its v columns scaled by sech^2(v/Delta) and d(rho(v) v)/dv
subtracted on the v diagonal, exactly: M has no v columns, column scaling
commutes with the Schur complement over (Omega, lambda), and T leaves v
alone. ``analyze`` runs the whole pass for one operating point. The module
checks:

* an LMI certificate (P_theta > 0, D_v > 0 diagonal, Q + Q^T < 0) for the
  slow reduced dynamics, taken from closed-form candidates without a
  search: the identity pair, then an M-matrix D_v with P_theta from one
  Riccati equation; a candidate counts only once re-verified independently;
* the boundary-layer (fast dual) dynamics via a Lyapunov equation on the
  block R_zeta, solved in its eigenbasis, whose ``eig`` checks it is Hurwitz;
* an empirical sweep of the spectral abscissa of the linearized
  (theta, v, zeta) system over the timescale ratio tau_d/tau_v (the
  analytic separation threshold is not computed). Each nonzero ratio
  rescales the complement's rows by [1, tau_v, ratio tau_v], and ratio 0,
  the quasi-steady dual limit, eliminates zeta as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain

import numpy as np

from .controller import N, N_1, STATE, IbrParams, Layout, brackets_jacobian, saturation_derivatives
from .errors import MgshareError
from .graph import CommGraph, Record, read_only
from .network import LinearizedModel, ReducedNetwork, _schur, jacobians
from .steady_state import Equilibrium, solve_equilibrium

__all__ = [
    "ReducedBlocks",
    "assemble_blocks",
    "LmiCertificate",
    "solve_lmi",
    "boundary_layer_check",
    "epsilon_sweep",
    "Analysis",
    "analyze",
]

# the fast states, which the timescale separation eliminates
FAST = ("Omega", "lam")
# the relative complement's rows and columns; BASIS, which _relative_maps maps to, puts FAST last
RELATIVE = Layout(r_theta=N_1, v=N, r_zeta=N_1)
BASIS = Layout(**RELATIVE.lengths, **{b: STATE["proposed"].lengths[b] for b in FAST})


@dataclass(frozen=True, eq=False)
class ReducedBlocks(Record):
    """The cascade blocks of the reduced dynamics that the analysis reads.

    Relative coordinates, at v = 0. R_theta and R_thetaV, (n-1, n-1) and
    (n-1, n), are the angle rows. R_vtheta_new and R_vV_new, (n, n-1) and
    (n, n), are the voltage rows with the quasi-steady dual folded back in;
    together these four are the slow system of the LMI. R_zeta, (n-1, n-1),
    is the boundary layer's dual block, with tau_v baked in.
    """

    R_theta: np.ndarray
    R_thetaV: np.ndarray
    R_zeta: np.ndarray
    R_vtheta_new: np.ndarray
    R_vV_new: np.ndarray

    @property
    def n(self) -> int:
        return self.R_vV_new.shape[0]


def _check_angle_shift_invariance(lin: LinearizedModel, L: np.ndarray):
    one = np.ones(lin.n)
    if max(np.linalg.norm(M @ one) for M in (lin.J_theta_P, lin.J_theta_Q, L)) > 1e-9:
        raise MgshareError(
            "linearized model or Laplacian violates the uniform-angle-shift "
            "invariance; the relative-coordinate structure would break"
        )


@cache
def _relative_maps(n: int):
    """(T, Ti): the change of basis from a proposed-mode state to ``BASIS``, and back; read-only.

    T takes [theta, Omega, v, lam, zeta] to [r_theta, v, r_zeta, Omega, lam]:
    r = D x holds the n-1 neighbour differences of x, and Ti puts x = N r
    back, so that T Ti = I. Ti drops the uniform shift 1 x_av, which the
    bracket Jacobian annihilates in the theta and zeta columns.
    """
    at, to = STATE["proposed"].at(n), BASIS.at(n)
    I, D, j = np.eye(n), np.diff(np.eye(n), axis=0), np.arange(n)
    N = (j / n - (j[:, None] < j))[:, 1:]
    T = np.zeros((to[-1].stop, at[-1].stop))
    Ti = np.zeros(T.shape[::-1])
    for dst, src, forth, back in zip(to, [getattr(at, b) for b in ("theta", "v", "zeta", *FAST)],
                                     (D, I, D, I, I), (N, I, N, I, I)):
        T[dst, src], Ti[src, dst] = forth, back
    return read_only(T), read_only(Ti)


def _complement(lin: LinearizedModel, g: CommGraph, params: IbrParams) -> np.ndarray:
    """Relative complement of the proposed-mode bracket Jacobian at v = 0.

    ``lin`` linearizes the power flow; rows and columns are [r_theta, v, r_zeta].
    """
    _check_angle_shift_invariance(lin, g.L)
    T, Ti = _relative_maps(lin.n)
    J = brackets_jacobian("proposed", params, g, lin, np.zeros(lin.n))
    return _schur(T @ J @ Ti, RELATIVE.dim(lin.n))


def _at_voltage(R: np.ndarray, params: IbrParams, v) -> np.ndarray:
    """The relative complement at the voltage state v, derived from R, the one at v = 0."""
    H, drho_v = saturation_derivatives(params, v)
    rv = RELATIVE.at(params.n).v
    A = R.copy()
    A[:, rv] *= H
    np.einsum("ii->i", A)[rv] -= drho_v     # A's diagonal, as a view
    return A


def _timescale_matrix(R: np.ndarray, params: IbrParams, ratio: float) -> np.ndarray:
    """Linearized [r_theta, v, r_zeta] dynamics of the relative complement R at tau_d = ratio tau_v.

    Ratio 0 is the quasi-steady dual limit: r_zeta is eliminated, leaving the
    slow reduced system [r_theta, v].
    """
    r = RELATIVE.at(params.n)
    if ratio == 0:
        A = _schur(R, r.r_zeta.start)
        A[r.v] /= params.tau_v
        return A
    tau = np.repeat([1.0, params.tau_v, ratio * params.tau_v], [b.stop - b.start for b in r])
    return R / tau[:, None]


def _blocks(R: np.ndarray, p: IbrParams) -> ReducedBlocks:
    """Cascade blocks read off the relative complement R at v = 0."""
    th, v, ze = RELATIVE.at(p.n)
    R = R.copy()
    R[ze] /= p.tau_v
    new = _schur(R, ze.start)[v]
    return ReducedBlocks(R_theta=R[th, th], R_thetaV=R[th, v], R_zeta=R[ze, ze],
                         R_vtheta_new=new[:, th], R_vV_new=new[:, v] + p.beta * np.eye(p.n))


def assemble_blocks(lin: LinearizedModel, g: CommGraph, params: IbrParams) -> ReducedBlocks:
    """Cascade blocks of the closed loop around the flow linearized by ``lin``.

    The relative complement at v = 0 is the loop in V coordinates (dV/dv = 1,
    no leakage slope); beta is split out of R_vV_new, as ``_q_matrix`` applies it.
    That R_zeta is Hurwitz is left to ``boundary_layer_check``.
    """
    return _blocks(_complement(lin, g, params), params)


# ---------------------------------------------------------------------------
# LMI certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LmiCertificate(Record):
    """Candidate Lyapunov matrices with their independently computed margins."""

    P_theta: np.ndarray
    D_v: np.ndarray               # diagonal matrix
    margin: float                 # max eig of Q + Q^T (< 0 when feasible)
    alpha_s: float                # smallest eig of -(Q + Q^T)
    feasible: bool

    def verify(self, blocks: ReducedBlocks, beta: float) -> bool:
        """Re-check all three conditions by direct eigenvalue computation."""
        return _verify(blocks, beta, self.P_theta, np.diag(self.D_v))


def _verify(blocks: ReducedBlocks, beta: float, P: np.ndarray, d: np.ndarray) -> bool:
    """P > 0, d > 0 and Q + Q^T < 0 for the pair (P, diag(d)), each by its own eigenvalues."""
    ok = np.linalg.eigvalsh(P).min() > 0
    ok &= d.min() > 0
    Q = _q_matrix(blocks, beta, P, d)
    ok &= np.linalg.eigvalsh(Q + Q.T).max() < 0
    return bool(ok)


def _q_matrix(blocks: ReducedBlocks, beta: float, P: np.ndarray, d: np.ndarray) -> np.ndarray:
    n = blocks.n
    top = np.hstack([P @ blocks.R_theta, P @ blocks.R_thetaV])
    bot = np.hstack([
        d[:, None] * blocks.R_vtheta_new,
        d[:, None] * (blocks.R_vV_new - beta * np.eye(n)),
    ])
    return np.vstack([top, bot])


def _certificate(blocks: ReducedBlocks, beta: float, P: np.ndarray, d: np.ndarray) -> LmiCertificate:
    """Candidate scaled by 1 / max(max|P|, max d); feasible only if the scaled pair verifies."""
    Q = _q_matrix(blocks, beta, P, d)
    f = np.linalg.eigh(Q + Q.T)[0][-1]
    scale = 1.0 / max(np.abs(P).max(), d.max())
    P, d = P * scale, d * scale
    feasible = _verify(blocks, beta, P, d)
    return LmiCertificate(P, np.diag(d), float(f * scale), float(-f * scale), feasible)


def _riccati_candidates(blocks: ReducedBlocks, beta: float):
    """Yield (P, d): the M-matrix D_v, then P_theta from a Riccati equation per epsilon.

    With R = R_vV_new - beta I, R u = -1 and R^T w = -1 with u, w > 0 give
    d = w / u, for which W = -(D R + R^T D) > 0 when R is Metzler (Berman &
    Plemmons, ch. 6). The Schur complement of Q + Q^T < 0 over the v block
    is then P A + A^T P + P G P + H < 0 with
    A = R_theta + R_thetaV W^-1 D R_vtheta_new, G = R_thetaV W^-1 R_thetaV^T
    and H = (D R_vtheta_new)^T W^-1 D R_vtheta_new. Its equation with
    H + eps I is solved from the stable invariant subspace [X1; X2] of the
    Hamiltonian [[A, G], [-(H + eps I), -A^T]] as P = X2 X1^-1 (Potter
    1966), from eps = 10^-1.5 max|A| down by factors of 10. Nothing is
    yielded when u or w is not positive, and a LinAlgError ends the
    candidates.
    """
    n, m = blocks.n, blocks.n - 1
    R = blocks.R_vV_new - beta * np.eye(n)
    try:
        u = np.linalg.solve(R, -np.ones(n))
        w = np.linalg.solve(R.T, -np.ones(n))
        if not ((u > 0).all() and (w > 0).all()):
            return
        d = w / u
        B = d[:, None] * blocks.R_vtheta_new
        X = np.linalg.solve(-(d[:, None] * R + R.T * d), np.hstack([B, blocks.R_thetaV.T]))
        A = blocks.R_theta + blocks.R_thetaV @ X[:, :m]
        G = blocks.R_thetaV @ X[:, m:]
        H = B.T @ X[:, :m]
        eps = 10**-1.5 * np.abs(A).max()
        for _ in range(8):
            lam, V = np.linalg.eig(np.block([[A, G], [-H - eps * np.eye(m), -A.T]]))
            stable = lam.real < 0
            if stable.sum() == m:
                P = np.linalg.solve(V[:m, stable].T, V[m:, stable].T).T.real
                yield 0.5 * (P + P.T), d
            eps /= 10
    except np.linalg.LinAlgError:
        return


def solve_lmi(blocks: ReducedBlocks, beta: float) -> LmiCertificate:
    """First closed-form candidate that ``LmiCertificate.verify`` accepts.

    The candidates are the identity pair P_theta = I, D_v = I, then the
    Riccati candidates of ``_riccati_candidates``. The condition is
    sufficient only: if no candidate verifies, the result is inconclusive
    and reports the candidate with the smallest margin. Never raises.
    """
    best = None
    for P, d in chain([(np.eye(blocks.n - 1), np.ones(blocks.n))], _riccati_candidates(blocks, beta)):
        cert = _certificate(blocks, beta, P, d)
        if cert.feasible:
            return cert
        if best is None or cert.margin < best.margin:
            best = cert
    return best


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
# eigenvalue sweep
# ---------------------------------------------------------------------------

def _ratios(ratios) -> list[float]:
    """The timescale ratios as floats; raises ValueError unless each is nonnegative and finite."""
    ratios = [float(r) for r in ratios]
    if not all(0.0 <= r < np.inf for r in ratios):
        raise ValueError(f"timescale ratios must be nonnegative and finite, got {ratios}")
    return ratios


def _sweep(R: np.ndarray, params: IbrParams, ratios: list[float]) -> list[tuple[float, float]]:
    """(ratio, spectral abscissa) per ratio of R; the nonzero ratios share one stacked ``eigvals``."""
    A = [_timescale_matrix(R, params, r) for r in ratios]
    stacked = [a for r, a in zip(ratios, A) if r]
    w = iter(np.linalg.eigvals(np.stack(stacked)).real.max(axis=1) if stacked else ())
    return [(r, float(next(w) if r else np.linalg.eigvals(a).real.max())) for r, a in zip(ratios, A)]


def epsilon_sweep(
    lin: LinearizedModel,
    g: CommGraph,
    params: IbrParams,
    v_bar: np.ndarray,
    ratios,
) -> list[tuple[float, float]]:
    """Spectral abscissa of the reduced closed loop per timescale ratio tau_d/tau_v.

    The (theta, v, zeta) system is taken in relative coordinates, which drop
    the uniform angle and uniform dual shifts, so it has no structural zero
    eigenvalues. ratio == 0 is the quasi-steady dual limit, the slow reduced
    system. Ratios must be nonnegative and finite.
    """
    ratios = _ratios(ratios)
    return _sweep(_at_voltage(_complement(lin, g, params), params, v_bar), params, ratios)


@dataclass(frozen=True, eq=False)
class Analysis(Record):
    """One operating point's stability pass; ``sweep`` holds (ratio, abscissa) pairs."""

    equilibrium: Equilibrium
    lin: LinearizedModel
    blocks: ReducedBlocks
    certificate: LmiCertificate
    P_y: np.ndarray
    alpha_f: float
    sweep: list[tuple[float, float]]


def analyze(net: ReducedNetwork, g: CommGraph, params: IbrParams, ratios) -> Analysis:
    """Solve the proposed-mode equilibrium on ``net`` and run the stability pass there.

    Bad ratios raise ValueError before the Newton solve; a non-Hurwitz
    R_zeta raises MgshareError.
    """
    ratios = _ratios(ratios)
    eq = solve_equilibrium(net, g, params, mode="proposed")
    lin = jacobians(net, eq.theta, eq.V)
    R = _complement(lin, g, params)
    blocks = _blocks(R, params)
    P_y, alpha_f = boundary_layer_check(blocks)
    return Analysis(eq, lin, blocks, solve_lmi(blocks, params.beta), P_y, alpha_f,
                    _sweep(_at_voltage(R, params, eq.v), params, ratios))
