"""Closed-loop time-domain simulation.

Integrates ``controller.ClosedLoop`` (angle/frequency droop, voltage
channel, primal-dual optimizer) with LSODA and the model's analytic ``jac``
over a scenario timeline with events: controller activation, load steps, and
voltage-limit changes. The proposed-mode loop is stiff (the fast dual
consensus mode, about k*lambda_max(L)/tau_p, sets an explicit method's step),
and LSODA switches between Adams and BDF on its own. Angles
evolve in a frame rotating at omega_nom, so theta is the deviation angle and
the state stays bounded. Before the first step, the events become a segment
plan: each effective event starts one integration segment at its exact
timestamp, events at t = 0 fold into the first, and a no-op event (e.g.
scaling a load by its current factor) or one at t_end starts none, so it
cannot perturb the trajectory. The network is re-reduced only when the load
scale changes, and the state crosses each boundary with V held.

Output is sampled by dense interpolation on a fixed grid, independent of the
adaptive steps: it starts at 0, steps by ``sample_ms`` and ends at or before
t_end. The ``TimeSeries`` arrays are allocated once, before the first
segment, and every sample is written into them in place: the dense output is
evaluated in chunks of samples, and each segment makes one batched
power-flow call on its stored angles and voltages. Containment of the
saturated voltages is asserted on every accepted integrator step, not just
on output samples.

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
CSV is byte-identical to a per-value ``%.12g`` rendering. The blocks are
independent, and the kernel's numpy loops release the GIL, so when the
process may run on two or more CPUs (``os.sched_getaffinity``, else
``os.cpu_count()``) the calling thread and one helper thread format
alternate blocks, each into its own buffer. The caller writes the blocks in
row order; at most one formatted block waits to be written, so memory stays
at a few blocks whatever the run's length. With one CPU there is no helper.
A block is 2,048 rows. Between its ~100 numpy calls a formatter needs the
GIL back, and every hand-off to the other formatter costs a context switch.
On 250k rows on a 2-CPU host, two threads with 1,024-row blocks switched
~9,400 times and ran only 1.25x faster than one; with 2,048-row blocks they
switched ~3,100 times and ran 1.5x faster. At 4,096 rows a block's
temporaries outgrow the cache, and it is slower again. One thread is as
fast at any of these sizes.

This is the only module that imports scipy: ``solve_ivp`` is imported at
the top, so the integrator loads with ``mgshare.simulate`` and never inside
a timed first ``simulate()`` call. ``Event`` and ``Scenario`` live in
``scenario_io`` and are re-exported here. The module itself is callable,
``mgshare.simulate(scenario)``, because a direct ``import mgshare.simulate``
binds the package attribute to the module.
"""

from __future__ import annotations

import os
import sys
import types
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from . import controller as ctrl
from .errors import NetworkDataError, SimulationError
from .graph import value_eq
from .network import kron_reduce, power_flow
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


@dataclass(eq=False)
class TimeSeries:
    """Sampled trajectory, compared by value and unhashable; channels are (n_samples, n_ibr)."""

    __eq__ = value_eq
    __hash__ = None

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

        When the process may use two or more CPUs, the calling thread and
        one helper thread format alternate blocks of ``_CSV_BLOCK_ROWS``
        (2,048) rows, each into its own buffer, and the caller writes them
        in row order; with one CPU the caller formats every block. The
        block is that large so the two formatters hand the GIL to each
        other less often (see the module docstring). At most one formatted
        block waits to be written. An error in either thread is raised
        here, and the helper has exited when this returns or raises.
        """
        S, n = self.theta.shape
        rows = S * n
        channels = [np.ravel(getattr(self, name)) for name in _CSV_CHANNELS]

        def block(r0: int, buf: np.ndarray) -> bytes:
            r = np.arange(r0, min(r0 + _CSV_BLOCK_ROWS, rows))
            X = buf[:r.size]
            X[:, 0] = self.t[r // n]
            X[:, 1] = r % n + 1
            for k, c in enumerate(channels):
                X[:, 2 + k] = c[r0:r0 + r.size]
            return _csv_rows(X)

        helped = _cpus() > 1
        mine, theirs = (np.empty((_CSV_BLOCK_ROWS, 2 + len(channels))) for _ in range(2))
        # the executor starts its thread at the first submit, so none without a helper
        with open(path, "wb") as fh, ThreadPoolExecutor(1) as helper:
            fh.write((",".join(CSV_HEADER) + "\n").encode())
            for r0 in range(0, rows, (1 + helped) * _CSV_BLOCK_ROWS):
                ahead = r0 + _CSV_BLOCK_ROWS
                future = helper.submit(block, ahead, theirs) if helped and ahead < rows else None
                try:
                    fh.write(block(r0, mine))
                finally:    # read the helper's block even when the caller's failed
                    text = future.result() if future else b""
                fh.write(text)


# ---------------------------------------------------------------------------
# CSV export: %.12g in numpy
# ---------------------------------------------------------------------------

_CSV_CHANNELS = ("theta", "omega_dev", "f", "v", "lam", "zeta",
                 "V", "P", "Q", "p_ratio", "q_ratio", "rho")
_CSV_BLOCK_ROWS = 2048    # rows per formatted block; the module docstring says why

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
    del a    # intermediates go when dead: each formatter thread holds its own
    M = np.rint(y)
    # y >= 1e11 (not M >= 1e11) rejects an exponent log10 placed one too high
    fast &= (y >= 1e11) & (M <= 1e12) & (np.abs(y - np.floor(y) - 0.5) >= 1e-3)
    del y
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
    del M
    lo = _DIGITS4.take(g0) | (_DIGITS4.take(g1) << np.uint64(32))
    hi = _DIGITS4.take(g2)
    nd = np.maximum(np.maximum(_SIG0.take(g0), _SIG1.take(g1)), _SIG2.take(g2))
    del g0, g1, g2
    # insert '.' before body byte q: the digits from q on move up one byte
    up_lo = lo << np.uint64(8)
    up_hi = (hi << np.uint64(8)) | (lo >> np.uint64(56))
    body_lo = (lo & _KEEP_LO.take(e)) | (up_lo & _MOVE_LO.take(e)) | _DOT_LO.take(e)
    body_hi = (hi & _KEEP_HI.take(e)) | (up_hi & _MOVE_HI.take(e)) | _DOT_HI.take(e)
    del lo, hi, up_lo, up_hi
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


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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

# (n_samples, n) channels of a TimeSeries, allocated once per run
_STATE_CHANNELS = _CSV_CHANNELS + ("v_min", "v_max")
_SAMPLE_CHUNK = 4096     # samples per dense-output evaluation


def simulate(s: Scenario) -> TimeSeries:
    """Run the scenario and return the sampled trajectory."""
    n = s.network.n_ibr
    dt = s.sample_ms / 1000.0
    # last sample at or before t_end; 1e-9 absorbs round-off in t_end / dt
    n_samples = int(np.floor(s.t_end / dt + 1e-9)) + 1
    t_grid = np.arange(n_samples) * dt

    x = s.initial_state
    plan = _plan(s)
    ts = TimeSeries(
        t=t_grid, mode=np.zeros(n_samples, dtype=int),
        **{name: np.empty((n_samples, n)) for name in _STATE_CHANNELS},
        segment_starts=[start for start, *_ in plan],
    )
    model = scale = None
    ends = ts.segment_starts[1:] + [s.t_end]
    # each segment's samples lie in [start, end); the last one's also include t_end
    cuts = [0, *np.searchsorted(t_grid, np.array(ends[:-1]) - 1e-12, "right"), n_samples]
    for (t_now, mode, params, load_scale), t_next, lo, hi in zip(plan, ends, cuts, cuts[1:]):
        if load_scale is not scale:    # the plan shares one array until a load step
            try:
                red = kron_reduce(s.network, load_scale)
            except NetworkDataError as exc:
                raise SimulationError(f"network re-reduction failed: {exc}") from exc
            scale = load_scale
        old = model or ctrl.ClosedLoop(s.initial_mode, s.params, red, s.graph)   # before t = 0 events
        if x is None:
            x = old.state(theta=0.0 if s.initial_theta is None else s.initial_theta)
        model = ctrl.ClosedLoop(mode, params, red, s.graph)
        x = _carry(x, old, model)
        sol = solve_ivp(
            model.rhs, (t_now, t_next), x, method="LSODA", jac=model.jac,
            rtol=s.rel_tol, atol=1e-10, dense_output=True,
        )
        if sol.status != 0 or not np.all(np.isfinite(sol.y)):
            raise SimulationError(
                f"integration failed near t={sol.t[-1]:.6g}: {sol.message}",
                time=float(sol.t[-1]),
            )
        _check_containment(model, sol)
        if hi > lo:
            _channels(ts, slice(lo, hi), model, sol.sol, s.network.bases.f_nom)
        x = sol.y[:, -1]

    return ts


def _plan(s: Scenario) -> list[tuple]:
    """The run as (start, mode, params, load_scale), one entry per integration segment.

    Events apply in time order. Events at t = 0 fold into the first entry;
    an event that leaves the run state unchanged (compared by value), or one
    at t_end, starts no segment.
    """
    state = (s.initial_mode, s.params, np.ones(s.network.n_bus))
    plan = {0.0: state}    # segment start -> state; an event at t = 0 replaces the first
    for ev in s.events:
        if ev.time >= s.t_end:
            break
        mode, params, scale = state
        if ev.kind == "activate":
            mode = "proposed"
        elif ev.kind == "scale-load":
            scale = scale.copy()
            scale[ev.bus - 1] = ev.factor
        else:
            v_min, v_max = params.v_min.copy(), params.v_max.copy()
            idx = slice(None) if ev.ibr is None else ev.ibr - 1
            v_min[idx], v_max[idx] = ev.v_min, ev.v_max
            params = params.with_limits(v_min, v_max)
        if (mode, params) != state[:2] or not np.array_equal(scale, state[2]):
            state = plan[ev.time] = (mode, params, scale)
    return [(start, *entry) for start, entry in plan.items()]


def _carry(x: np.ndarray, old: ctrl.ClosedLoop, new: ctrl.ClosedLoop) -> np.ndarray:
    """Map the state across a segment boundary, holding the terminal voltages V.

    Activation seeds lambda = Q/S and zeta = 0, and a limit change in
    proposed mode re-maps v onto the new band; otherwise the state carries over.
    """
    if new.mode == "droop" or (old.mode == new.mode and old.params == new.params):
        return x
    blocks = {name: old.block(x, name) for name in old.at._fields}
    V = old.voltage(blocks["v"])
    blocks["v"] = ctrl.v_from_voltage(new.params, V)
    if old.mode == "droop":
        blocks["lam"] = power_flow(old.net, blocks["theta"], V)[1] / new.params.s_rated
    return new.state(**blocks)


def _check_containment(model: ctrl.ClosedLoop, sol):
    """Hard containment on every accepted step (proposed mode only)."""
    if model.mode != "proposed":
        return
    params = model.params
    V = model.voltage(model.block(sol.y.T, "v"))   # (steps, n)
    outside = (V <= params.v_min) | (V >= params.v_max)
    if np.any(outside):
        step = int(np.argmax(np.any(outside, axis=1)))
        raise SimulationError(
            f"voltage left the open limit band at t={sol.t[step]:.6g}",
            time=float(sol.t[step]),
        )


def _channels(ts: TimeSeries, rows: slice, model: ctrl.ClosedLoop, dense, f_nom: float):
    """Write the samples ``rows`` of one segment into ``ts`` in place.

    The dense output ``dense`` is evaluated ``_SAMPLE_CHUNK`` samples at a
    time; the power flow takes the segment's stored theta and V in one call.
    """
    p = model.params
    proposed = model.mode == "proposed"
    ts.mode[rows] = int(proposed)
    ts.v_min[rows] = p.v_min
    ts.v_max[rows] = p.v_max
    for start in range(rows.start, rows.stop, _SAMPLE_CHUNK):
        c = slice(start, min(start + _SAMPLE_CHUNK, rows.stop))
        X = dense(ts.t[c]).T
        ts.theta[c], ts.omega_dev[c], ts.v[c] = (model.block(X, b) for b in ("theta", "Omega", "v"))
        ts.f[c] = f_nom + ts.omega_dev[c] / (2.0 * np.pi)
        ts.V[c] = model.voltage(ts.v[c])
        if proposed:
            ts.lam[c], ts.zeta[c] = model.block(X, "lam"), model.block(X, "zeta")
            ts.rho[c] = ctrl.leakage(p, ts.v[c])
        else:
            ts.lam[c] = ts.zeta[c] = ts.rho[c] = 0.0
    del X    # the last chunk is not alive next to the flow's temporaries
    P, Q = power_flow(model.net, ts.theta[rows], ts.V[rows])
    ts.P[rows], ts.Q[rows] = P, Q
    ts.p_ratio[rows], ts.q_ratio[rows] = P / p.s_rated, Q / p.s_rated


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
