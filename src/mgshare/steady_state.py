"""Direct equilibrium solve of the closed loop and steady-state property checks.

The equilibrium system is degenerate along two directions: uniform angle
shifts and uniform shifts of the dual variable. Both gauges are fixed here
(theta_1 = 0, sum of zeta pinned), leaving a square Newton system. The
solved state satisfies, among others:

* a common synchronization frequency, Omega_bar = (omega_syn - omega_nom) 1;
* lambda_bar = alpha_Q 1 with alpha_Q the mean utilization ratio;
* strict voltage containment;
* the sharing-accuracy identities/bounds for unsaturated/saturated units.

The Newton iteration evaluates the residual once per trial point: the
accepted trial's residual carries into the next iteration. In proposed
mode the leakage rho(v) v has a kink at |v| = 3 Delta, where the Jacobian
jumps; a full step across it backtracks many times and stalls. So a
step that would carry some unit's v across its kink is cut to land the
first such unit on the kink (backtracking halves from there), and a cut
step does not count as stagnation. The solve is deterministic: stagnation,
running out of iterations or a singular Jacobian raises
``ConvergenceError``. ``Equilibrium.iterations`` reports the cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import controller as ctrl
from .controller import IbrParams
from .errors import ConvergenceError
from .graph import CommGraph, laplacian
from .network import ReducedNetwork, power_flow
from .network import jacobians  # noqa: F401  unused; kept for tools that patch names per module

__all__ = ["Equilibrium", "PropertyReport", "solve_equilibrium", "verify_properties"]


@dataclass(frozen=True)
class Equilibrium:
    """Solved steady state; all arrays length n, theta anchored at theta_1 = 0."""

    mode: str
    theta: np.ndarray
    Omega: np.ndarray
    v: np.ndarray
    lam: np.ndarray
    zeta: np.ndarray
    V: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    omega_syn_dev: float          # omega_syn - omega_nom, rad/s
    alpha_P: float
    alpha_Q: float
    saturated: frozenset[int]     # 1-based unit ids with rho > 0
    residual: float
    iterations: int               # Newton steps (Jacobian solves)

    @property
    def n(self) -> int:
        return self.theta.shape[0]


def _newton(residual, jacobian, x0, step_limit=None, tol=1e-11, max_iter=60):
    """Damped Newton with backtracking; returns (x, residual norm, iterations).

    Each trial point's residual is evaluated once: the accepted trial's
    residual and norm carry into the next iteration, and when backtracking
    runs out the last evaluated trial is accepted. ``step_limit(x, dx)``,
    if given, caps the first trial step below 1 (backtracking halves from
    there); an iteration whose step it cut is exempt from the stagnation
    test. Stagnation, ``max_iter`` Jacobian solves without convergence or a
    singular Jacobian raise ``ConvergenceError``. ``iterations`` counts
    Jacobian solves.
    """
    x = np.asarray(x0, dtype=float).copy()
    F = residual(x)
    norm = float(np.linalg.norm(F, np.inf))
    iterations = 0
    last_norm = np.inf
    for _ in range(max_iter):
        if norm < tol:
            return x, norm, iterations
        J = jacobian(x)
        iterations += 1
        try:
            dx = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            raise ConvergenceError("singular Jacobian in equilibrium solve",
                                   residual=norm) from None
        step = 1.0 if step_limit is None else step_limit(x, dx)
        cut = step < 1.0
        while True:
            x_new = x + step * dx
            F_new = residual(x_new)
            norm_new = float(np.linalg.norm(F_new, np.inf))
            if norm_new < norm or step < 2e-6:    # at most 20 trials from step 1
                break
            step *= 0.5
        x, F, norm = x_new, F_new, norm_new
        if norm > 0.999 * last_norm and not cut:
            break  # stagnating
        last_norm = norm
    if norm < tol:
        return x, norm, iterations
    raise ConvergenceError(
        f"Newton did not converge after {iterations} iterations "
        f"(last residual {norm:.3e})", residual=norm
    )


def solve_equilibrium(
    net: ReducedNetwork,
    g: CommGraph,
    params: IbrParams,
    initial_guess: np.ndarray | None = None,
    mode: str = "proposed",
    zeta_sum: float = 0.0,
) -> Equilibrium:
    """Newton solve of the steady-state equations with both gauges fixed.

    The unknowns are [theta_rel (n-1), Omega_common, v, lam, zeta]
    (proposed) or [theta_rel, Omega_common, v] (droop); ``initial_guess``
    packs them likewise and defaults to a flat start. The residual is
    ``ClosedLoop.brackets`` without the theta rows and, in proposed mode,
    with the last (redundant) zeta row replaced by the zeta-sum gauge.
    """
    n = params.n
    model = ctrl.ClosedLoop(mode, params, net, laplacian(g))
    proposed = mode == "proposed"
    # model state = E @ unknowns, with theta_1 = 0 and Omega = Omega_common 1
    E = np.zeros((model.dim, model.dim - n))
    E[1:n, : n - 1] = np.eye(n - 1)
    E[n:2 * n, n - 1] = 1.0
    E[2 * n:, n:] = np.eye(model.dim - 2 * n)

    def residual(x):
        F = model.brackets(E @ x)[n:]
        if proposed:
            F[-1] = x[-n:].sum() - zeta_sum
        return F

    def jacobian(x):
        J = model.brackets_jac(E @ x)[n:] @ E
        if proposed:
            J[-1] = 0.0
            J[-1, -n:] = 1.0
        return J

    def kink_step(x, dx):
        # first trial step at which some unit's v reaches +/-3 Delta (the
        # leakage kink); a unit within round-off of its kink does not limit
        # it, so a landing is not repeated
        v, dv = x[n:2 * n], dx[n:2 * n]
        step = 1.0
        for kink in (3.0 * params.delta, -3.0 * params.delta):
            gap = kink - v
            cross = (gap * dv > 0) & (np.abs(gap) < np.abs(dv))
            cross &= np.abs(gap) > 1e-12 * np.abs(kink)
            if cross.any():
                step = min(step, float(np.min(gap[cross] / dv[cross])))
        return step

    x0 = np.zeros(model.dim - n) if initial_guess is None else np.asarray(initial_guess, float)
    x, norm, iterations = _newton(residual, jacobian, x0,
                                  step_limit=kink_step if proposed else None)
    x = E @ x
    theta, Omega, v = x[:n], x[n:2 * n], x[2 * n:3 * n]
    V = model.voltage(v)
    P, Q = power_flow(net, theta, V)
    rho = ctrl.leakage(params, v) if proposed else np.zeros(n)
    return Equilibrium(
        mode=mode,
        theta=theta,
        Omega=Omega,
        v=v,
        lam=x[3 * n:4 * n] if proposed else np.zeros(n),
        zeta=x[4 * n:] if proposed else np.zeros(n),
        V=V,
        P=P,
        Q=Q,
        omega_syn_dev=float(Omega[0]),
        alpha_P=float(np.mean(P / params.s_rated)),
        alpha_Q=float(np.mean(Q / params.s_rated)),
        saturated=frozenset(int(i) + 1 for i in np.nonzero(rho > 0)[0]),
        residual=float(norm),
        iterations=iterations,
    )


@dataclass(frozen=True)
class PropertyReport:
    """Numeric check of the four steady-state guarantees."""

    p_ratio_spread: float
    containment_margin_low: float
    containment_margin_high: float
    sharing_identity_error: np.ndarray    # unsaturated units: | |q_i - a_Q| - beta|1 - V/V*| |
    sharing_bound_slack: np.ndarray       # saturated units: bound - |q_i - a_Q| (>= -tol)
    unsaturated: tuple[int, ...]          # 1-based
    saturated: tuple[int, ...]            # 1-based
    tol: float

    @property
    def all_pass(self) -> bool:
        ok = self.p_ratio_spread <= self.tol * 10
        ok &= self.containment_margin_low > 0 and self.containment_margin_high > 0
        if self.sharing_identity_error.size:
            ok &= bool(np.max(self.sharing_identity_error) <= self.tol)
        if self.sharing_bound_slack.size:
            ok &= bool(np.min(self.sharing_bound_slack) >= -self.tol)
        return bool(ok)

    def lines(self):
        yield f"P-ratio spread            : {self.p_ratio_spread:.3e}"
        yield f"containment margin (low)  : {self.containment_margin_low:.6f}"
        yield f"containment margin (high) : {self.containment_margin_high:.6f}"
        yield f"unsaturated units         : {list(self.unsaturated)}"
        yield f"saturated units           : {list(self.saturated)}"
        if self.sharing_identity_error.size:
            yield f"sharing identity error    : {np.max(self.sharing_identity_error):.3e}"
        if self.sharing_bound_slack.size:
            yield f"sharing bound slack (min) : {np.min(self.sharing_bound_slack):.3e}"
        yield f"overall                   : {'PASS' if self.all_pass else 'FAIL'}"


def verify_properties(eq: Equilibrium, params: IbrParams, tol: float = 1e-6) -> PropertyReport:
    """Evaluate the four steady-state properties on a solved equilibrium."""
    q_ratio = eq.Q / params.s_rated
    p_ratio = eq.P / params.s_rated
    dev = np.abs(q_ratio - eq.alpha_Q)
    ref = params.beta * np.abs(1.0 - eq.V / params.v_star)
    rho = ctrl.leakage(params, eq.v)
    sat_mask = rho > 0
    bound = ref + rho * np.abs(eq.v / params.v_star)
    return PropertyReport(
        p_ratio_spread=float(p_ratio.max() - p_ratio.min()),
        containment_margin_low=float(np.min(eq.V - params.v_min)),
        containment_margin_high=float(np.min(params.v_max - eq.V)),
        sharing_identity_error=np.abs(dev[~sat_mask] - ref[~sat_mask]),
        sharing_bound_slack=bound[sat_mask] - dev[sat_mask],
        unsaturated=tuple(int(i) + 1 for i in np.nonzero(~sat_mask)[0]),
        saturated=tuple(int(i) + 1 for i in np.nonzero(sat_mask)[0]),
        tol=tol,
    )
