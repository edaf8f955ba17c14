"""Per-inverter control laws and the closed loop they form with the network.

Two voltage-control modes exist:

* ``droop``: legacy proportional droop, V = V_nom + v with
  tau_v dv/dt = -v - m_V Q/S_rated.
* ``proposed``: tanh-saturated leaky integral controller
  V = V_star + Delta tanh(v/Delta), which keeps V strictly inside
  (V_min, V_max) for every finite integrator state, combined with a
  distributed primal-dual optimizer that drives the utilization ratios
  Q_i/S_i toward a common setpoint lambda.

Both modes share the droop frequency channel. ``STATE`` declares each
mode's state blocks, the one place that sets their order; every module
reads and builds states through ``ClosedLoop``'s named views. ``ClosedLoop``
writes the whole loop down once, as brackets(x) = M x + K [P; Q] - s(v): M
and K are constant per mode, parameters and graph, (P, Q) is the power flow at
(theta, V(v)), and s(v) = beta Delta tanh(v/Delta) + rho(v) v sits on the v
rows in proposed mode (droop has V = 1 + v and no s). The right-hand side
is brackets / tau; its Jacobian, from the same M and K, is built by
``brackets_jacobian``. The simulator integrates it, the equilibrium solver
evaluates it on the consensus states and folds its rows to one per
unknown, and the timescale sweep eliminates its fast states.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np

from . import network
from .graph import CommGraph, Record

__all__ = [
    "IbrParams",
    "Layout",
    "STATE",
    "FLOW",
    "voltage_output",
    "leakage",
    "saturation_derivatives",
    "ClosedLoop",
    "brackets_jacobian",
]

ATANH_CLIP = 0.999  # used when re-initializing v from a measured voltage
KINK = 3.0  # the leakage rho(v) is nonzero beyond |v| = KINK Delta


@dataclass(frozen=True, eq=False)
class IbrParams(Record):
    """Ratings, limits, and shared gains for a fleet of n inverters.

    Per-unit arrays of length n: ``s_rated``, ``m_omega``, ``m_v``,
    ``v_min``, ``v_max``. Scalars: time constants and the gains beta, k.
    Derived once and outside equality: the band centre
    ``v_star`` and half-width ``delta``. Equality compares the other
    fields by value. Every field must be finite.
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
        with np.errstate(over="ignore"):    # an overflow leaves v_star or delta inf, named below
            object.__setattr__(self, "v_star", 0.5 * (self.v_max + self.v_min))
            object.__setattr__(self, "delta", 0.5 * (self.v_max - self.v_min))
        arrays = ("s_rated", "m_omega", "m_v", "v_min", "v_max", "v_star", "delta")
        if not np.isfinite(np.concatenate([getattr(self, name) for name in arrays])).all():
            name = next(name for name in arrays if not np.isfinite(getattr(self, name)).all())
            raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not np.all(self.s_rated > 0):
            raise ValueError("s_rated must be positive")
        if not np.all(self.v_min < self.v_max):
            raise ValueError("need v_min < v_max for every unit")
        for name in ("tau_omega", "tau_v", "tau_p", "tau_d", "k"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0 <= self.beta < np.inf:
            raise ValueError("beta must be nonnegative and finite")
        super().__post_init__()

    @property
    def n(self) -> int:
        return self.s_rated.shape[0]

    def with_limits(self, v_min, v_max) -> "IbrParams":
        """Copy with new voltage limits (scalar broadcasts to all units)."""
        return replace(self, v_min=v_min, v_max=v_max)


def voltage_output(p: IbrParams, v):
    """Saturated voltage V = V_star + Delta tanh(v/Delta), strictly inside limits."""
    return _voltage(p, np.tanh(np.asarray(v, dtype=float) / p.delta))


def _voltage(p: IbrParams, tanh_u):     # voltage_output given tanh(u), u = v/Delta
    return p.v_star + p.delta * tanh_u


def v_from_voltage(p: IbrParams, V) -> np.ndarray:
    """Integrator state whose output is (approximately) V; inverse of voltage_output.

    Voltages at or beyond the limits are clipped to +/-0.999 of the band
    before the atanh, so hand-offs (controller activation, limit shifts)
    keep the output voltage continuous without blowing up the state.
    """
    u = np.clip((np.asarray(V, dtype=float) - p.v_star) / p.delta, -ATANH_CLIP, ATANH_CLIP)
    return p.delta * np.arctanh(u)


def leakage(p: IbrParams, v) -> np.ndarray:
    """Anti-wind-up coefficient rho(v) = max(|v/Delta| - KINK, 0), elementwise."""
    return _rho(np.asarray(v, dtype=float) / p.delta)


def _rho(u) -> np.ndarray:     # leakage given u = v/Delta
    return np.maximum(np.abs(u) - KINK, 0.0)


def saturation_derivatives(p: IbrParams, v):
    """(dV/dv, d(rho(v) v)/dv) elementwise, outward one-sided at the kink |v| = KINK Delta."""
    u = np.asarray(v, dtype=float) / p.delta
    a = np.abs(u)     # |v| / Delta, bitwise: rounding is symmetric in sign
    return 1.0 / np.cosh(u) ** 2, np.where(a >= KINK, 2.0 * a - KINK, 0.0)


class Layout:
    """Named blocks in order along a vector's last axis.

    A block (a, b) holds a n + b entries for n units: ``Layout(theta=N,
    c=ONE)`` is n entries of theta, then one of c.
    """

    def __init__(self, **lengths: tuple[int, int]):
        self.lengths = lengths
        self._slices = namedtuple("Slices", lengths)

    @cache
    def at(self, n: int):
        """The blocks' slices for n units, as a named tuple."""
        stops = np.cumsum([a * n + b for a, b in self.lengths.values()]).tolist()
        return self._slices(*map(slice, [0, *stops], stops))

    def dim(self, n: int) -> int:
        return self.at(n)[-1].stop


N, N_1, ONE = (1, 0), (1, -1), (0, 1)     # block lengths n, n - 1 and 1
STATE = {"droop": Layout(theta=N, Omega=N, v=N),
         "proposed": Layout(theta=N, Omega=N, v=N, lam=N, zeta=N)}
# the column blocks of network.jacobians, whose rows P, Q are K's column blocks
FLOW = Layout(theta=N, V=N)
# each state block's time constant, an IbrParams field; theta's is 1 (dtheta/dt = Omega)
TAU = {"theta": None, "Omega": "tau_omega", "v": "tau_v", "lam": "tau_p", "zeta": "tau_d"}


@dataclass(frozen=True, eq=False)
class ClosedLoop(Record):
    """The closed loop of one voltage-control mode on a fixed reduced network.

    The state is laid out as ``STATE[mode]``, which alone sets the order:
    ``at`` holds the block slices, ``block`` views a block and ``state``
    builds a state. theta is the angle in the frame rotating at omega_nom,
    and ``graph`` the communication graph. ``brackets`` are the pre-tau
    right-hand sides; ``tau`` holds each block's ``TAU`` per unit, and
    ``rhs`` = brackets / tau. tau, at, M and K are derived, outside equality.
    Construction fails unless params, net and graph agree on the number of units.
    """

    mode: str
    params: IbrParams
    net: network.ReducedNetwork
    graph: CommGraph
    tau: np.ndarray = field(init=False, compare=False, repr=False)
    at: tuple = field(init=False, compare=False, repr=False)
    M: np.ndarray = field(init=False, compare=False, repr=False)
    K: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        p = self.params
        if not isinstance(self.graph, CommGraph):
            raise TypeError(f"graph must be a CommGraph, got {type(self.graph).__name__}")
        if not p.n == self.net.n == self.graph.n:
            raise ValueError(f"params, net and graph must agree on n, got {p.n}, {self.net.n} "
                             f"and {self.graph.n} units")
        for name, a in zip(("at", "M", "K"), _affine_part(self.mode, p, self.graph.L)):
            object.__setattr__(self, name, a)
        taus = [1.0 if TAU[b] is None else getattr(p, TAU[b]) for b in self.at._fields]
        object.__setattr__(self, "tau", np.repeat(taus, p.n))
        super().__post_init__()

    @property
    def dim(self) -> int:
        return self.tau.size

    def block(self, x, name: str) -> np.ndarray:
        """The block ``name`` of the states x, a view on their last axis."""
        return x[..., getattr(self.at, name)]

    def state(self, **blocks) -> np.ndarray:
        """The state made of the named blocks; absent blocks are zero."""
        x = np.zeros(self.dim)
        for name, b in blocks.items():
            x[getattr(self.at, name)] = b
        return x

    def voltage(self, v) -> np.ndarray:
        """Terminal voltage commanded by the voltage-channel state v."""
        return 1.0 + v if self.mode == "droop" else voltage_output(self.params, v)

    def brackets(self, x) -> np.ndarray:
        at, p = self.at, self.params
        v = x[at.v]
        if self.mode == "droop":
            V = 1.0 + v
        else:   # voltage_output and leakage from one v / Delta and one tanh
            u = v / p.delta
            tanh_u = np.tanh(u)
            V = _voltage(p, tanh_u)
        P, Q = network.power_flow(self.net, x[at.theta], V)
        out = self.M @ x + self.K @ np.concatenate([P, Q])
        if self.mode == "proposed":
            out[at.v] -= p.beta * p.delta * tanh_u + _rho(u) * v
        return out

    def brackets_jac(self, x) -> np.ndarray:
        v = x[self.at.v]
        lin = network.jacobians(self.net, x[self.at.theta], self.voltage(v))
        return _jacobian(self.mode, self.params, self.at, self.M, self.K, lin, v)

    def rhs(self, _t, x) -> np.ndarray:
        return self.brackets(x) / self.tau

    def jac(self, _t, x) -> np.ndarray:
        return self.brackets_jac(x) / self.tau[:, None]


def _affine_part(mode: str, p: IbrParams, L):
    """(at, M, K): the state slices of ``mode`` and ``brackets`` = M x + K [P; Q] - s(v)."""
    if mode not in STATE:
        raise ValueError(f"unknown mode {mode!r}")
    at = STATE[mode].at(p.n)
    I = np.eye(p.n)
    M = np.zeros((at[-1].stop,) * 2)
    K = np.zeros((M.shape[0], 2, p.n))     # column blocks P, Q
    P, Q = 0, 1
    M[at.theta, at.Omega], M[at.Omega, at.Omega] = I, -I
    K[at.Omega, P] = -np.diag(p.m_omega / p.s_rated)
    if mode == "droop":
        M[at.v, at.v] = -I
        K[at.v, Q] = -np.diag(p.m_v / p.s_rated)
    else:
        M[at.v, at.lam] = np.diag(p.v_star)
        K[at.v, Q] = -np.diag(p.v_star / p.s_rated)
        M[at.lam, at.lam] = -I - p.k * L
        M[at.lam, at.zeta] = -L
        K[at.lam, Q] = np.diag(1.0 / p.s_rated)
        M[at.zeta, at.lam] = L
    return at, M, K.reshape(M.shape[0], -1)


def _jacobian(mode: str, p: IbrParams, at, M, K, lin: np.ndarray, v) -> np.ndarray:
    """M, plus K times the flow derivatives in the theta and v columns, minus ds/dv."""
    f = FLOW.at(p.n)
    J = M.copy()
    KJ = K @ lin
    J[:, at.theta] += KJ[:, f.theta]
    H = 1.0
    if mode == "proposed":
        H, drho_v = saturation_derivatives(p, v)
        np.einsum("ii->i", J)[at.v] -= p.beta * H + drho_v     # J's diagonal, as a view
    J[:, at.v] += KJ[:, f.V] * H
    return J


def brackets_jacobian(mode: str, p: IbrParams, graph: CommGraph, lin: np.ndarray, v) -> np.ndarray:
    """Jacobian of ``ClosedLoop.brackets`` given the power-flow derivatives there.

    ``lin`` is ``network.jacobians`` at the state's (theta, V(v)); the
    result does not depend on Omega, lambda or zeta. Rows and columns follow
    ``STATE[mode]``.
    """
    return _jacobian(mode, p, *_affine_part(mode, p, graph.L), lin, v)
