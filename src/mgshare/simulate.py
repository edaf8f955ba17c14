"""Closed-loop time-domain simulation.

Integrates ``controller.ClosedLoop`` (angle/frequency droop, voltage
channel, primal-dual optimizer) with LSODA and the model's analytic ``jac``
over a scenario timeline with events: controller activation, load steps, and
voltage-limit changes. The proposed-mode loop is stiff (the fast dual
consensus mode, about k*lambda_max(L)/tau_p, sets an explicit method's step),
and LSODA switches between Adams and BDF on its own. Angles
evolve in a frame rotating at omega_nom, so theta is the deviation angle and
the state stays bounded. Each event ends one integration segment and starts
the next at its exact timestamp; a no-op event (e.g. scaling a load by its
current factor) is skipped so it cannot perturb the trajectory.

Output is sampled by dense interpolation on a fixed grid, independent of the
adaptive steps: it starts at 0, steps by ``sample_ms`` and ends at or before
t_end. Each segment emits its block of samples at once, with one batched
power-flow evaluation. Containment of the saturated voltages is asserted on
every accepted integrator step, not just on output samples.

``TimeSeries.to_csv`` renders every value as ``%.12g`` in numpy, a block of
rows at a time. The fast path takes the decimal exponent from ``log10``,
scales by one exactly representable power of ten and rounds to a 12-digit
integer mantissa, whose digits come from a lookup table. A value goes
through Python's ``format(x, ".12g")`` instead when it is not finite, when
|x| lies outside [1e-11, 1e12) and is not zero, when the scaled mantissa
falls outside [1e11, 1e12] (1e12 being the exact carry to the next
exponent), or when the scaled product lies within 1e-3 of a rounding tie,
where its own rounding error (at most 6.1e-5) could flip the result. Every
value the fast path keeps therefore rounds as ``format`` rounds it, and the
CSV is byte-identical to a per-value ``%.12g`` rendering.

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
        """Long-format CSV, one row per (sample, inverter), 1-based inverter ids.

        Every value is written as ``%.12g``: a numpy fast path renders
        whole blocks of rows, and the few values it cannot round exactly
        (see the module docstring) go through ``format(x, ".12g")``. The
        file is the header line and one line per row, each ending in a
        newline.
        """
        S, n = self.theta.shape
        channels = [np.ravel(getattr(self, name)) for name in _CSV_CHANNELS]
        block = np.empty((_CSV_BLOCK_ROWS, 2 + len(channels)))
        with open(path, "wb") as fh:
            fh.write((",".join(CSV_HEADER) + "\n").encode())
            for r0 in range(0, S * n, _CSV_BLOCK_ROWS):
                rows = np.arange(r0, min(r0 + _CSV_BLOCK_ROWS, S * n))
                X = block[:rows.size]
                X[:, 0] = self.t[rows // n]
                X[:, 1] = rows % n + 1
                for k, c in enumerate(channels):
                    X[:, 2 + k] = c[r0:r0 + rows.size]
                fh.write(_csv_rows(X))


# ---------------------------------------------------------------------------
# CSV export: %.12g in numpy
# ---------------------------------------------------------------------------

_CSV_CHANNELS = ("theta", "omega_dev", "f", "v", "lam", "zeta",
                 "V", "P", "Q", "p_ratio", "q_ratio", "rho")
_CSV_BLOCK_ROWS = 1024

# A value renders into a 24-byte field, three little-endian uint64 words;
# zero bytes are pads, dropped before writing:
#   byte 0       '-' when the sign bit is set
#   bytes 1-5    "0.000"[:1 - e] in fixed form with e < 0
#   bytes 6-18   the body: the 12 mantissa digits with '.' inserted, cut to length
#   bytes 19-22  "e-05" ... "e+12" in exponent form
#   byte 23      ',' or '\n'
# The layout depends on the decimal exponent e in [-11, 12] only, so each part
# is a table indexed by e + 11.


def _low(nbytes: int) -> int:
    """Mask of the low ``nbytes`` bytes of a 128-bit word."""
    return (1 << 8 * nbytes) - 1


def _words(v: int) -> tuple[int, int]:
    """The low and high 64-bit halves of a 128-bit word."""
    return v & (2**64 - 1), v >> 64


def _layout_tables():
    """The per-exponent tables of the field layout above, as uint64 arrays."""
    keep, move, dot, prefix, suffix, length = [], [], [], [], [], []
    for e in range(-11, 13):
        fixed = -4 <= e < 12
        q = (e + 1 if e >= 0 else 13) if fixed else 1    # the '.' goes before body byte q
        lead = e + 1 if fixed else 1                     # digits written even when zero
        keep.append(_words(_low(q)))
        move.append(_words(_low(13) & ~_low(q + 1)))
        dot.append(_words(ord(".") << 8 * q if q < 13 else 0))
        zeros = b"0.000"[:1 - e] if fixed and e < 0 else b""
        exponent = b"" if fixed else f"e{e:+03d}".encode()
        prefix.append(int.from_bytes(b"\0" + zeros, "little"))
        suffix.append(int.from_bytes(b"\0\0\0" + exponent, "little"))
        for nd in range(13):                             # significant digits, 0 for x == 0
            k = max(nd, lead)
            length.append(_words(_low(k + (k > q))))    # a '.' with no digit after it is dropped
    return tuple(np.array(t, np.uint64)
                 for t in (*zip(*keep), *zip(*move), *zip(*dot), prefix, suffix, *zip(*length)))


(_KEEP_LO, _KEEP_HI, _MOVE_LO, _MOVE_HI, _DOT_LO, _DOT_HI,
 _PREFIX, _SUFFIX, _LEN_LO, _LEN_HI) = _layout_tables()
# four mantissa digits per table word, the leading digit in the low byte
_K4 = np.arange(10000, dtype=np.int16)
_DIGITS4 = (_K4[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10 + ord("0")).astype(np.uint8)
_DIGITS4 = _DIGITS4.view("<u4")[:, 0].astype(np.uint64)
# significant digits of a mantissa whose last nonzero 4-digit group is group 0, 1 or 2
_SIG0 = (4 - sum(_K4 % p == 0 for p in (10, 100, 1000, 10000))).astype(np.int8)
_SIG1 = np.where(_SIG0 > 0, _SIG0 + 4, 0).astype(np.int8)
_SIG2 = np.where(_SIG0 > 0, _SIG0 + 8, 0).astype(np.int8)
_POW10 = np.array([float(10**k) for k in range(22, -1, -1)])   # 10**(11 - e), exact, index e + 11
_COMMA, _NEWLINE = (np.uint64(ord(c)) << np.uint64(56) for c in ",\n")


def _g12_fields(x: np.ndarray) -> np.ndarray:
    """Render float64 ``x`` as ``%.12g`` into (x.size, 3) words; byte 23 stays 0."""
    a = np.abs(x)
    zero = a == 0
    fast = (a >= 1e-11) & (a < 1e12)
    a[~fast] = 1.0                                      # placeholder; overwritten below
    # e: decimal exponent as a table index e + 11; M: the 12-digit integer mantissa
    e = np.clip(np.floor(np.log10(a)), -11, 11).astype(np.intp) + 11
    y = a * _POW10.take(e)
    M = np.rint(y)
    # y >= 1e11 (not M >= 1e11) rejects an exponent log10 placed one too high
    fast &= (y >= 1e11) & (M <= 1e12) & (np.abs(y - np.floor(y) - 0.5) >= 1e-3)
    fast |= zero
    carry = M == 1e12
    M[carry] = 1e11
    e += carry
    M[zero] = 0.0
    e[zero] = 11
    # three 4-digit groups of M (exact: M < 2**53), and its count of significant digits
    g0 = np.floor(M / 1e8)
    M -= g0 * 1e8
    g1 = np.floor(M / 1e4)
    M -= g1 * 1e4
    g0, g1, g2 = g0.astype(np.intp), g1.astype(np.intp), M.astype(np.intp)
    lo = _DIGITS4.take(g0) | (_DIGITS4.take(g1) << np.uint64(32))
    hi = _DIGITS4.take(g2)
    nd = np.maximum(np.maximum(_SIG0.take(g0), _SIG1.take(g1)), _SIG2.take(g2))
    # insert '.' before body byte q: the digits from q on move up one byte
    up_lo = lo << np.uint64(8)
    up_hi = (hi << np.uint64(8)) | (lo >> np.uint64(56))
    body_lo = (lo & _KEEP_LO.take(e)) | (up_lo & _MOVE_LO.take(e)) | _DOT_LO.take(e)
    body_hi = (hi & _KEEP_HI.take(e)) | (up_hi & _MOVE_HI.take(e)) | _DOT_HI.take(e)
    k = e * 13 + nd
    body_lo &= _LEN_LO.take(k)
    body_hi &= _LEN_HI.take(k)
    F = np.empty((x.size, 3), "<u8")
    F[:, 0] = _PREFIX.take(e) | (body_lo << np.uint64(48)) | np.signbit(x) * np.uint64(ord("-"))
    F[:, 1] = (body_lo >> np.uint64(16)) | (body_hi << np.uint64(48))
    F[:, 2] = (body_hi >> np.uint64(16)) | _SUFFIX.take(e)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.array([format(v, ".12g").encode() for v in x[slow].tolist()], "S24")
        F[slow] = text.view("<u8").reshape(-1, 3)
    return F


def _csv_rows(X: np.ndarray) -> bytes:
    """The rows of the float64 matrix ``X`` as CSV text, every value ``%.12g``."""
    F = _g12_fields(X.ravel()).reshape(*X.shape, 3)
    F[:, :-1, 2] |= _COMMA
    F[:, -1, 2] |= _NEWLINE
    b = F.view(np.uint8).ravel()
    return b[b != 0].tobytes()


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
        # split the integration segment
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
