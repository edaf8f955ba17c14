"""Per-inverter control laws and the closed loop they form with the network.

Two voltage-control modes exist:

* ``droop``: legacy proportional droop, V = V_nom + v with
  tau_v dv/dt = -v - m_V Q/S_rated.
* ``proposed``: tanh-saturated leaky integral controller
  V = V_star + Delta tanh(v/Delta), which keeps V strictly inside
  (V_min, V_max) for every finite integrator state, combined with a
  distributed primal-dual optimizer that drives the utilization ratios
  Q_i/S_i toward a common setpoint lambda.

Both modes share the droop frequency channel. ``ClosedLoop`` writes the
whole loop down once, as brackets(x) = M x + K [P; Q] - s(v): M and K are
constant per mode, parameters and Laplacian, (P, Q) is the power flow at
(theta, V(v)), and s(v) = beta Delta tanh(v/Delta) + rho(v) v sits on the v
rows in proposed mode (droop has V = 1 + v and no s). The right-hand side
is brackets / tau; its Jacobian, from the same M and K, is built by
``brackets_jacobian``. The simulator integrates it, the equilibrium solver
evaluates it on the consensus states and folds its rows to one per
unknown, and the timescale sweep eliminates its fast states.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import network
from .graph import Record

__all__ = [
    "IbrParams",
    "voltage_output",
    "leakage",
    "saturation_derivatives",
    "ClosedLoop",
    "brackets_jacobian",
]

ATANH_CLIP = 0.999  # used when re-initializing v from a measured voltage


@dataclass(frozen=True, eq=False)
class IbrParams(Record):
    """Ratings, limits, and shared gains for a fleet of n inverters.

    Per-unit arrays of length n: ``s_rated``, ``m_omega``, ``m_v``,
    ``v_min``, ``v_max``. Scalars: time constants and the gains beta, k.
    Derived once and outside equality: the band centre
    ``v_star`` and half-width ``delta``. Equality compares the other
    fields by value.
    """

    s_rated: np.ndarray
    m_omega: np.ndarray
    m_v: np.ndarray
    v_min: np.ndarray
    v_max: np.ndarray
    tau_omega: float
    tau_v: float
    tau_p: float
    tau_d: float
    beta: float
    k: float
    v_star: np.ndarray = field(init=False, compare=False, repr=False)
    delta: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = None
        for name in ("s_rated", "m_omega", "m_v", "v_min", "v_max"):
            a = np.array(getattr(self, name), dtype=float, ndmin=1)
            if n is None:
                n = a.shape[0]
            elif a.shape == (1,):
                a = np.full(n, a[0])
            if a.shape != (n,):
                raise ValueError(f"{name} must have length {n}")
            object.__setattr__(self, name, a)
        if not np.all(self.s_rated > 0):
            raise ValueError("s_rated must be positive")
        if not np.all(self.v_min < self.v_max):
            raise ValueError("need v_min < v_max for every unit")
        for name in ("tau_omega", "tau_v", "tau_p", "tau_d"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not self.beta >= 0:
            raise ValueError("beta must be nonnegative")
        if not self.k > 0:
            raise ValueError("k must be positive")
        object.__setattr__(self, "v_star", 0.5 * (self.v_max + self.v_min))
        object.__setattr__(self, "delta", 0.5 * (self.v_max - self.v_min))
        super().__post_init__()

    @property
    def n(self) -> int:
        return self.s_rated.shape[0]

    def with_limits(self, v_min, v_max) -> "IbrParams":
        """Copy with new voltage limits (scalar broadcasts to all units)."""
        return replace(self, v_min=v_min, v_max=v_max)


def voltage_output(p: IbrParams, v):
    """Saturated voltage V = V_star + Delta tanh(v/Delta), strictly inside limits."""
    return p.v_star + p.delta * np.tanh(np.asarray(v, dtype=float) / p.delta)


def v_from_voltage(p: IbrParams, V) -> np.ndarray:
    """Integrator state whose output is (approximately) V; inverse of voltage_output.

    Voltages at or beyond the limits are clipped to +/-0.999 of the band
    before the atanh, so hand-offs (controller activation, limit shifts)
    keep the output voltage continuous without blowing up the state.
    """
    u = np.clip((np.asarray(V, dtype=float) - p.v_star) / p.delta, -ATANH_CLIP, ATANH_CLIP)
    return p.delta * np.arctanh(u)


def leakage(p: IbrParams, v) -> np.ndarray:
    """Anti-wind-up coefficient rho(v) = max(|v/Delta| - 3, 0), elementwise."""
    return np.maximum(np.abs(np.asarray(v, dtype=float) / p.delta) - 3.0, 0.0)


def saturation_derivatives(p: IbrParams, v):
    """(dV/dv, d(rho(v) v)/dv) elementwise, outward one-sided at the kink |v| = 3 Delta."""
    v = np.asarray(v, dtype=float)
    u = np.abs(v) / p.delta
    return 1.0 / np.cosh(v / p.delta) ** 2, np.where(u >= 3.0, 2.0 * u - 3.0, 0.0)


@dataclass(frozen=True, eq=False)
class ClosedLoop(Record):
    """The closed loop of one voltage-control mode on a fixed reduced network.

    State, n entries per block: ``droop`` [theta, Omega, v] and ``proposed``
    [theta, Omega, v, lambda, zeta], with theta the angle in the frame
    rotating at omega_nom and L the communication Laplacian. ``brackets``
    are the pre-tau right-hand sides; ``tau`` holds [1, tau_omega, tau_v,
    tau_p, tau_d] repeated per unit, and ``rhs`` = brackets / tau.
    """

    mode: str
    params: IbrParams
    net: network.ReducedNetwork
    L: np.ndarray
    tau: np.ndarray = field(init=False)
    M: np.ndarray = field(init=False, repr=False)
    K: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        p = self.params
        object.__setattr__(self, "L", np.array(self.L, dtype=float))
        for name, a in zip("MK", _affine_part(self.mode, p, self.L)):
            object.__setattr__(self, name, a)
        taus = (1.0, p.tau_omega, p.tau_v, p.tau_p, p.tau_d)
        object.__setattr__(self, "tau", np.repeat(taus[: 3 if self.mode == "droop" else 5], p.n))
        super().__post_init__()

    @property
    def dim(self) -> int:
        return self.tau.size

    def voltage(self, v) -> np.ndarray:
        """Terminal voltage commanded by the voltage-channel state v."""
        return 1.0 + v if self.mode == "droop" else voltage_output(self.params, v)

    def brackets(self, x) -> np.ndarray:
        n = self.params.n
        v = x[2 * n:3 * n]
        P, Q = network.power_flow(self.net, x[:n], self.voltage(v))
        out = self.M @ x + self.K @ np.concatenate([P, Q])
        if self.mode == "proposed":
            p = self.params
            out[2 * n:3 * n] -= p.beta * p.delta * np.tanh(v / p.delta) + leakage(p, v) * v
        return out

    def brackets_jac(self, x) -> np.ndarray:
        n = self.params.n
        v = x[2 * n:3 * n]
        lin = network.jacobians(self.net, x[:n], self.voltage(v))
        return _jacobian(self.mode, self.params, self.M, self.K, lin, v)

    def rhs(self, _t, x) -> np.ndarray:
        return self.brackets(x) / self.tau

    def jac(self, _t, x) -> np.ndarray:
        return self.brackets_jac(x) / self.tau[:, None]


def _affine_part(mode: str, p: IbrParams, L) -> tuple[np.ndarray, np.ndarray]:
    """(M, K) of ``brackets`` = M x + K [P; Q] - s(v) for the state layout of ``mode``."""
    if mode not in ("droop", "proposed"):
        raise ValueError(f"unknown mode {mode!r}")
    n = p.n
    b = 3 if mode == "droop" else 5
    M = np.zeros((b, n, b, n))     # [row block, unit, column block, unit]
    K = np.zeros((b, n, 2, n))     # column blocks P, Q
    I = np.eye(n)
    M[0, :, 1], M[1, :, 1] = I, -I
    K[1, :, 0] = -np.diag(p.m_omega / p.s_rated)
    if mode == "droop":
        M[2, :, 2] = -I
        K[2, :, 1] = -np.diag(p.m_v / p.s_rated)
    else:
        M[2, :, 3] = np.diag(p.v_star)
        K[2, :, 1] = -np.diag(p.v_star / p.s_rated)
        M[3, :, 3] = -I - p.k * L
        M[3, :, 4] = -L
        K[3, :, 1] = np.diag(1.0 / p.s_rated)
        M[4, :, 3] = L
    return M.reshape(b * n, b * n), K.reshape(b * n, 2 * n)


def _jacobian(mode: str, p: IbrParams, M, K, lin: network.LinearizedModel, v) -> np.ndarray:
    """M, plus K times the flow derivatives in the theta and v columns, minus ds/dv."""
    n = p.n
    vc = slice(2 * n, 3 * n)
    J = M.copy()
    J[:, :n] += K @ np.concatenate([lin.J_theta_P, lin.J_theta_Q])
    H = 1.0
    if mode == "proposed":
        H, drho_v = saturation_derivatives(p, v)
        J[vc, vc] -= np.diag(p.beta * H + drho_v)
    J[:, vc] += K @ np.concatenate([lin.J_V_P, lin.J_V_Q]) * H
    return J


def brackets_jacobian(mode: str, p: IbrParams, L, lin: network.LinearizedModel, v) -> np.ndarray:
    """Jacobian of ``ClosedLoop.brackets`` given the power-flow derivatives there.

    ``lin`` linearizes the power flow at the state's (theta, V(v)); the
    result does not depend on Omega, lambda or zeta. Rows and columns follow
    the ``ClosedLoop`` state layout of ``mode``.
    """
    return _jacobian(mode, p, *_affine_part(mode, p, L), lin, v)
