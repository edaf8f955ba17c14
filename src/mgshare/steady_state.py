"""Direct equilibrium solve of the closed loop and steady-state property checks.

At an equilibrium the dual sits at consensus, lambda = c 1, and zeta
enters only the lambda rows. Newton therefore solves for the primal
unknowns [theta_2..theta_n, Omega_common, v] plus, in proposed mode, the
common dual value c: 2n + 1 unknowns (2n in droop), with theta_1 = 0 fixing
the angle gauge. zeta follows after the solve from one linear system with
its sum pinned. The solved state satisfies, among others:

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
step does not count as stagnation unless more than 2n cut steps in a row,
the number of kinks, make no progress. A full Newton step never counts as
stagnation: past a kink the residual can stay flat for a step while v moves
a long way towards the solution. The solve is deterministic: stagnation,
running out of iterations or a singular Jacobian raises
``ConvergenceError``. ``Equilibrium.iterations`` reports the cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import controller as ctrl
from .controller import N, N_1, ONE, IbrParams, Layout
from .errors import ConvergenceError
from .graph import CommGraph, Record, read_only
from .network import ReducedNetwork, power_flow
from .network import jacobians  # noqa: F401  unused; kept for tools that patch names per module

__all__ = ["Equilibrium", "PropertyReport", "solve_equilibrium", "verify_properties"]

# Newton's unknowns, as the module docstring sets them out
UNKNOWNS = {"droop": Layout(theta_rel=N_1, Omega_common=ONE, v=N),
            "proposed": Layout(theta_rel=N_1, Omega_common=ONE, v=N, c=ONE)}


@dataclass(frozen=True, eq=False)
class Equilibrium(Record):
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


def _newton(residual, jacobian, x0, step_limit=None, max_stalled_cuts=0, tol=1e-11, max_iter=60):
    """Damped Newton with backtracking; returns (x, residual norm, iterations).

    Each trial point's residual is evaluated once: the accepted trial's
    residual and norm carry into the next iteration, and when backtracking
    runs out the last evaluated trial is accepted. ``step_limit(x, dx)``,
    if given, caps the first trial step below 1 (backtracking halves from
    there). An iteration stagnates when its step was cut or backtracked
    (below 1) and the norm fell by less than 0.1%; a full step never does,
    however little it gains. A stagnating step that ``step_limit`` cut is
    tolerated up to ``max_stalled_cuts`` such iterations in a row; any other
    stagnation stops the solve. Stagnation, ``max_iter`` Jacobian solves
    without convergence or a singular Jacobian raise ``ConvergenceError``.
    ``iterations`` counts Jacobian solves.
    """
    x = np.asarray(x0, dtype=float).copy()
    F = residual(x)
    norm = float(np.abs(F).max())
    iterations = 0
    last_norm = np.inf
    stalled = 0
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
            norm_new = float(np.abs(F_new).max())
            if norm_new < norm or step < 2e-6:    # at most 20 trials from step 1
                break
            step *= 0.5
        x, F, norm = x_new, F_new, norm_new
        # a full step is never stagnation: Newton may cross a flat stretch
        stalled = stalled + 1 if norm > 0.999 * last_norm and step < 1.0 else 0
        if stalled and (not cut or stalled > max_stalled_cuts):
            break  # stagnating
        last_norm = norm
    if norm < tol:
        return x, norm, iterations
    raise ConvergenceError(
        f"Newton did not converge after {iterations} iterations "
        f"(last residual {norm:.3e})", residual=norm
    )


@cache
def _embedding(mode: str, n: int):
    """(E, fold, rows) for ``mode`` at n units, built once and read-only.

    The state is E y for the unknowns y. Of the brackets' ``rows`` (all but
    theta's), fold keeps the Omega rows, one per theta_rel and Omega_common,
    and the v rows, and averages the lambda rows into the c row.
    """
    s, u = ctrl.STATE[mode].at(n), UNKNOWNS[mode].at(n)
    E, fold = np.zeros((s[-1].stop, u[-1].stop)), np.zeros((u[-1].stop, s[-1].stop))
    E[s.theta, u.theta_rel] = np.eye(n)[:, 1:]
    E[s.Omega, u.Omega_common] = 1.0
    E[s.v, u.v] = np.eye(n)
    fold[:u.Omega_common.stop, s.Omega] = np.eye(n)
    fold[u.v, s.v] = np.eye(n)
    if mode == "proposed":
        E[s.lam, u.c] = 1.0
        fold[u.c, s.lam] = 1.0 / n
    rows = slice(s.theta.stop, None)
    return read_only(E), read_only(fold[:, rows].copy()), rows


def _kink_search(v, dv, delta) -> float:
    """First step in (0, 1] at which some unit's v + step dv reaches +/-3 Delta.

    Those are the leakage kinks. A unit within round-off of its kink does not
    limit the step, so a landing is not repeated; 1.0 when nothing crosses.
    """
    step = 1.0
    for kink in (3.0 * delta, -3.0 * delta):
        gap = kink - v
        cross = (gap * dv > 0) & (np.abs(gap) < np.abs(dv))
        cross &= np.abs(gap) > 1e-12 * np.abs(kink)
        if cross.any():
            step = min(step, float(np.min(gap[cross] / dv[cross])))
    return step


def _kink_step(v, dv, delta) -> float:
    """``_kink_search``, which returns 1.0 straight away when every |v| and |v + dv| is below 3 Delta.

    No margin is needed. With k = 3 Delta and v in (-k, k), a crossing of k
    needs dv > 0 and the rounded k - v below dv; no float lies between the
    exact k - v and its rounding, so dv > k - v, v + dv > k, and the rounded
    v + dv is at least k. The -k side mirrors this.
    """
    kink = 3.0 * delta
    if (np.abs(v) < kink).all() and (np.abs(v + dv) < kink).all():
        return 1.0
    return _kink_search(v, dv, delta)


def solve_equilibrium(
    net: ReducedNetwork,
    g: CommGraph,
    params: IbrParams,
    initial_guess: np.ndarray | None = None,
    mode: str = "proposed",
    zeta_sum: float = 0.0,
) -> Equilibrium:
    """Newton solve of the steady-state equations in the primal unknowns.

    The unknowns y come from the declaration ``UNKNOWNS[mode]``, and
    ``initial_guess`` packs them likewise; it defaults to a flat start. The
    state is E y: theta_1 = 0, Omega = Omega_common 1, lambda = c 1 and
    zeta = 0. The residual is
    ``ClosedLoop.brackets`` at E y folded to one row per unknown: the
    Omega and v rows, and the mean of the lambda rows, mean(Q/S) - c. The
    theta rows, dtheta/dt = Omega, fix no unknown, and the zeta rows,
    L lambda = 0, hold at lambda = c 1; both are dropped. After
    the solve zeta solves L zeta = Q/S - lambda with sum(zeta) = zeta_sum.
    ``Equilibrium.residual`` is the infinity norm of the folded residual.
    """
    n = params.n
    model = ctrl.ClosedLoop(mode, params, net, g)
    proposed = mode == "proposed"
    u = UNKNOWNS[mode].at(n)
    m = u[-1].stop
    E, fold, rows = _embedding(mode, n)

    def residual(y):
        return fold @ model.brackets(E @ y)[rows]

    def jacobian(y):
        return fold @ model.brackets_jac(E @ y)[rows] @ E

    def kink_step(y, dy):
        return _kink_step(y[u.v], dy[u.v], params.delta)

    y0 = np.zeros(m) if initial_guess is None else np.asarray(initial_guess, float)
    if y0.shape != (m,):
        layout = ", ".join(u._fields)
        raise ValueError(f"initial_guess must be [{layout}] of length {m}, got shape {y0.shape}")
    y, norm, iterations = _newton(residual, jacobian, y0, step_limit=kink_step if proposed else None,
                                  max_stalled_cuts=2 * n)
    x = E @ y
    theta, Omega, v = (model.block(x, b) for b in ("theta", "Omega", "v"))
    V = model.voltage(v)
    P, Q = power_flow(net, theta, V)
    rho, lam, zeta = np.zeros(n), np.zeros(n), np.zeros(n)
    if proposed:
        rho, lam = ctrl.leakage(params, v), model.block(x, "lam")
        # (L + 1 1^T/n) zeta = Q/S - lambda + zeta_sum/n: L zeta = Q/S - lambda, 1^T zeta = zeta_sum
        zeta = np.linalg.solve(g.L + 1.0 / n, Q / params.s_rated - lam + zeta_sum / n)
    return Equilibrium(
        mode=mode,
        theta=theta,
        Omega=Omega,
        v=v,
        lam=lam,
        zeta=zeta,
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


@dataclass(frozen=True, eq=False)
class PropertyReport(Record):
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
