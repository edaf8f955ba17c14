"""Closed-loop time-domain simulation.

Integrates ``controller.ClosedLoop`` (angle/frequency droop, voltage
channel, primal-dual optimizer) with LSODA and the model's analytic ``jac``
over a scenario timeline with events: controller activation, load steps, and
voltage-limit changes. The proposed-mode loop is stiff (the fast dual
consensus mode, about k*lambda_max(L)/tau_p, sets an explicit method's step),
and LSODA switches between Adams and BDF on its own. Angles
evolve in a frame rotating at omega_nom, so theta is the deviation angle and
the state stays bounded. Events restart the integration at their exact timestamps; a no-op
event (e.g. scaling a load by its current factor) is skipped so it cannot
perturb the trajectory.

Output is sampled by dense interpolation on a fixed grid, independent of the
adaptive steps: it starts at 0, steps by ``sample_ms`` and ends at or before
t_end. Each segment emits its block of samples at once, with one batched
power-flow evaluation. Containment of the saturated voltages is asserted on
every accepted integrator step, not just on output samples.

This is the only module that imports scipy: ``solve_ivp`` is imported at
the top, so the integrator loads with ``mgshare.simulate`` and never inside
a timed first ``simulate()`` call. ``Event`` and ``Scenario`` live in
``scenario_io`` and are re-exported here. The module itself is callable,
``mgshare.simulate(scenario)``, because a direct ``import mgshare.simulate``
binds the package attribute to the module.
"""

from __future__ import annotations

import sys
import types
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from . import controller as ctrl
from .controller import IbrParams
from .errors import ScenarioFormatError, SimulationError
from .graph import laplacian
from .network import ReducedNetwork, kron_reduce, power_flow
from .scenario_io import Event, Scenario

__all__ = [
    "Event",
    "Scenario",
    "TimeSeries",
    "simulate",
    "detect_saturated_set",
    "sharing_error",
    "CSV_HEADER",
]

CSV_HEADER = [
    "t", "ibr", "theta", "omega_dev", "f", "v", "lambda", "zeta",
    "V", "P", "Q", "P_ratio", "Q_ratio", "rho",
]


@dataclass
class TimeSeries:
    """Sampled trajectory; all channel arrays are (n_samples, n_ibr)."""

    t: np.ndarray
    mode: np.ndarray              # 0 = droop, 1 = proposed, per sample
    theta: np.ndarray
    omega_dev: np.ndarray
    f: np.ndarray
    v: np.ndarray
    lam: np.ndarray
    zeta: np.ndarray
    V: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    p_ratio: np.ndarray
    q_ratio: np.ndarray
    rho: np.ndarray
    v_min: np.ndarray             # active limits per sample
    v_max: np.ndarray
    segment_starts: list[float] = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.theta.shape[1]

    def index_at(self, t: float) -> int:
        if not (self.t[0] <= t <= self.t[-1]):
            raise ValueError(f"t={t} outside the simulated range")
        return int(np.argmin(np.abs(self.t - t)))

    def window(self, t0: float, t1: float) -> np.ndarray:
        return np.nonzero((self.t >= t0) & (self.t <= t1))[0]

    def to_csv(self, path):
        """Long-format CSV, one row per (sample, inverter), 1-based inverter ids."""
        S, n = self.theta.shape
        cols = [np.repeat(self.t, n), np.tile(np.arange(1.0, n + 1), S)]
        cols += [getattr(self, name).ravel() for name in (
            "theta", "omega_dev", "f", "v", "lam", "zeta",
            "V", "P", "Q", "p_ratio", "q_ratio", "rho",
        )]
        np.savetxt(path, np.column_stack(cols), fmt="%.12g", delimiter=",",
                   header=",".join(CSV_HEADER), comments="")


# ---------------------------------------------------------------------------
# simulation driver
# ---------------------------------------------------------------------------

def simulate(s: Scenario) -> TimeSeries:
    """Run the scenario and return the sampled trajectory."""
    n = s.network.n_ibr
    nb = s.network.n_bus
    dt = s.sample_ms / 1000.0
    # last sample at or before t_end; 1e-9 absorbs round-off in t_end / dt
    n_samples = int(np.floor(s.t_end / dt + 1e-9)) + 1
    t_grid = np.arange(n_samples) * dt

    # mutable run state
    mode = s.initial_mode
    params = s.params
    load_scale = np.ones(nb)
    red_cache: dict[tuple, ReducedNetwork] = {}

    def reduced() -> ReducedNetwork:
        key = tuple(load_scale)
        if key not in red_cache:
            try:
                red_cache[key] = kron_reduce(s.network, load_scale)
            except Exception as exc:
                raise SimulationError(f"network re-reduction failed: {exc}") from exc
        return red_cache[key]

    L = laplacian(s.graph)
    if s.initial_state is not None:
        x = np.asarray(s.initial_state, float)
        dim = 3 * n if mode == "droop" else 5 * n
        if x.shape != (dim,):
            raise ScenarioFormatError(
                f"initial_state must have {dim} entries for {mode} mode, got {x.shape}"
            )
    else:
        theta0 = np.zeros(n) if s.initial_theta is None else np.asarray(s.initial_theta, float)
        x = np.concatenate([theta0, np.zeros(2 * n if mode == "droop" else 4 * n)])

    blocks: list[dict[str, np.ndarray]] = []
    segment_starts = [0.0]

    pending = list(s.events)
    t_now = 0.0
    emitted = 0
    while t_now < s.t_end:
        # apply any due events, then drop upcoming no-ops so they cannot
        # force an integrator restart
        while pending and (
            pending[0].time <= t_now
            or not _event_changes(pending[0], mode, params, load_scale)
        ):
            ev = pending.pop(0)
            if not _event_changes(ev, mode, params, load_scale):
                continue
            mode, params, load_scale, x = _apply_event(
                ev, mode, params, load_scale, x, reduced()
            )
            if ev.time > 0:
                segment_starts.append(ev.time)
        t_next = min((e.time for e in pending), default=s.t_end)
        red = reduced()
        model = ctrl.ClosedLoop(mode, params, red, L)
        sol = solve_ivp(
            model.rhs, (t_now, t_next), x, method="LSODA", jac=model.jac,
            rtol=s.rel_tol, atol=1e-10, dense_output=True,
        )
        if sol.status != 0 or not np.all(np.isfinite(sol.y)):
            raise SimulationError(
                f"integration failed near t={sol.t[-1]:.6g}: {sol.message}",
                time=float(sol.t[-1]),
            )
        _check_containment(mode, params, sol)

        # samples in [t_now, t_next), plus the final point at t_end
        last = t_next >= s.t_end
        hi = n_samples if last else int(np.searchsorted(t_grid, t_next - 1e-12, "right"))
        seg_t = t_grid[emitted:hi]
        if seg_t.size:
            blocks.append(_channels(model, sol.sol(seg_t).T, s.network.bases.f_nom))
            emitted = hi
        x = sol.y[:, -1]
        t_now = t_next

    return TimeSeries(
        t=t_grid,
        **{key: np.concatenate([b[key] for b in blocks]) for key in blocks[0]},
        segment_starts=segment_starts,
    )


def _event_limits(ev: Event, params: IbrParams):
    v_min = params.v_min.copy()
    v_max = params.v_max.copy()
    idx = slice(None) if ev.ibr is None else ev.ibr - 1
    v_min[idx] = ev.v_min
    v_max[idx] = ev.v_max
    return v_min, v_max


def _event_changes(ev: Event, mode, params: IbrParams, load_scale) -> bool:
    """Whether applying the event would alter the run state (state-independent)."""
    if ev.kind == "activate":
        return mode != "proposed"
    if ev.kind == "scale-load":
        return load_scale[ev.bus - 1] != ev.factor
    v_min, v_max = _event_limits(ev, params)
    return not (np.array_equal(v_min, params.v_min) and np.array_equal(v_max, params.v_max))


def _apply_event(ev: Event, mode, params, load_scale, x, red):
    """Apply one effective event; returns (mode, params, load_scale, x)."""
    n = params.n
    if ev.kind == "activate":
        theta, Omega, v_droop = x[:n], x[n:2 * n], x[2 * n:3 * n]
        V_now = 1.0 + v_droop
        _, Q = power_flow(red, theta, V_now)
        v_new = ctrl.v_from_voltage(params, V_now)
        lam0 = Q / params.s_rated
        zeta0 = np.zeros(n)
        x_new = np.concatenate([theta, Omega, v_new, lam0, zeta0])
        return "proposed", params, load_scale, x_new
    if ev.kind == "scale-load":
        new_scale = load_scale.copy()
        new_scale[ev.bus - 1] = ev.factor
        return mode, params, new_scale, x
    v_min, v_max = _event_limits(ev, params)
    new_params = params.with_limits(v_min, v_max)
    if mode == "proposed":
        x = x.copy()
        V_now = ctrl.voltage_output(params, x[2 * n:3 * n])
        x[2 * n:3 * n] = ctrl.v_from_voltage(new_params, V_now)
    return mode, new_params, load_scale, x


def _check_containment(mode, params, sol):
    """Hard containment on every accepted step (proposed mode only)."""
    if mode != "proposed":
        return
    n = params.n
    V = ctrl.voltage_output(params, sol.y[2 * n:3 * n].T)   # (steps, n)
    outside = (V <= params.v_min) | (V >= params.v_max)
    if np.any(outside):
        step = int(np.argmax(np.any(outside, axis=1)))
        raise SimulationError(
            f"voltage left the open limit band at t={sol.t[step]:.6g}",
            time=float(sol.t[step]),
        )


def _channels(model: ctrl.ClosedLoop, X: np.ndarray, f_nom: float) -> dict[str, np.ndarray]:
    """TimeSeries channels, each (S, n), for a block of S sampled states X (S x dim)."""
    p = model.params
    n = p.n
    S = X.shape[0]
    theta, Omega, v = X[:, :n], X[:, n:2 * n], X[:, 2 * n:3 * n]
    V = model.voltage(v)
    P, Q = power_flow(model.net, theta, V)
    if model.mode == "droop":
        lam = zeta = rho = np.zeros((S, n))
    else:
        lam, zeta, rho = X[:, 3 * n:4 * n], X[:, 4 * n:], ctrl.leakage(p, v)
    return {
        "mode": np.full(S, int(model.mode == "proposed")),
        "theta": theta, "omega_dev": Omega, "f": f_nom + Omega / (2.0 * np.pi),
        "v": v, "lam": lam, "zeta": zeta, "V": V, "P": P, "Q": Q,
        "p_ratio": P / p.s_rated, "q_ratio": Q / p.s_rated, "rho": rho,
        "v_min": np.broadcast_to(p.v_min, (S, n)),
        "v_max": np.broadcast_to(p.v_max, (S, n)),
    }


def detect_saturated_set(ts: TimeSeries, t: float) -> set[int]:
    """1-based indices of units with active leakage (rho > 0) at time t."""
    s = ts.index_at(t)
    return {int(i) + 1 for i in np.nonzero(ts.rho[s] > 0)[0]}


def sharing_error(ts: TimeSeries, t: float) -> np.ndarray:
    """|Q_i/S_i - mean_j(Q_j/S_j)| per unit at time t."""
    s = ts.index_at(t)
    q = ts.q_ratio[s]
    return np.abs(q - q.mean())


class _CallableModule(types.ModuleType):
    """``import mgshare.simulate`` rebinds the package attribute
    ``mgshare.simulate`` to this module, so calling the module runs
    ``simulate`` and ``mg.simulate(scenario)`` works in either import order."""

    def __call__(self, s: Scenario) -> TimeSeries:
        return simulate(s)


sys.modules[__name__].__class__ = _CallableModule
