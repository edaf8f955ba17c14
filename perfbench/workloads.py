"""The three workloads: one repetition each, with every output checked.

Calls into the program go through module attributes looked up at call time
(``network.kron_reduce``, ``sim.simulate``, ...) so that the tracer's
rebinding sees them. Tolerances are the acceptance suite's, unchanged.
"""

from __future__ import annotations

import random
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import inputs
from tracer import module

network = module("network")
scenario_io = module("scenario_io")
sim = module("simulate")
stability = module("stability")
steady_state = module("steady_state")
tuning = module("tuning")

REFERENCE = Path(__file__).resolve().parent / "reference" / "timeline-lv5.npz"
REFERENCE_STRIDE = 10          # reference keeps every 10th 10 ms sample (100 ms grid)
ZETA_DRIFT_TOL = 1e-8          # AC-10
REFERENCE_TOL = 1e-7           # V and Q/S against the stored trajectory
CONSENSUS_TOL = 1e-8           # AC-6
SPOT_ROWS = 64

# CSV column -> TimeSeries attribute, in CSV_HEADER order ("ibr" is the row's unit)
CSV_FIELDS = {"t": "t", "theta": "theta", "omega_dev": "omega_dev", "f": "f", "v": "v",
              "lambda": "lam", "zeta": "zeta", "V": "V", "P": "P", "Q": "Q",
              "P_ratio": "p_ratio", "Q_ratio": "q_ratio", "rho": "rho"}


@dataclass
class Rep:
    """Outcome of one repetition: wall time from parsed inputs to checked outputs."""

    wall_s: float = 0.0
    point_s: list[float] = field(default_factory=list)   # program time per operation
    attempted: int = 0
    failed: int = 0                                      # operations with any failure
    failures: list[str] = field(default_factory=list)
    csv_rows: int = 0
    csv_mb: float = 0.0
    lmi_feasible: int = 0

    def fail(self, what: str):
        self.failures.append(what)


def setup(workload: str, inp):
    """Parse the workload's scenarios and do the first Kron reduction."""
    scenarios = [scenario_io.parse_scenario_text(t) for t in inputs.scenario_texts(inp)]
    network.kron_reduce(scenarios[0].network)
    if workload == "analysis-sweep":
        return dict(zip(inp.texts, scenarios))
    sc = scenarios[0]
    if inp.initial_theta is not None:
        sc = replace(sc, initial_theta=np.array(inp.initial_theta))
    return sc


# ---------------------------------------------------------------------------
# timelines
# ---------------------------------------------------------------------------

def load_reference(seed: int):
    if seed not in inputs.REFERENCE_SEEDS + (inputs.HELD_OUT_SEED,):
        return None
    with np.load(REFERENCE) as ref:
        return ref[f"seed{seed}_V"], ref[f"seed{seed}_q_ratio"]


def run_timeline(workload: str, sc, seed: int, out_dir: Path, reference) -> Rep:
    rep = Rep(attempted=1)
    path = out_dir / f"{workload}-{seed}.csv"
    t0 = time.perf_counter()
    try:
        ts = sim.simulate(sc)
        ts.to_csv(path)
        rep.point_s.append(time.perf_counter() - t0)
        check_csv(rep, ts, path, seed)
        if workload == "timeline-lv5":
            check_case1(rep, ts, reference)
    except Exception:
        rep.fail(traceback.format_exc(limit=3))
    rep.wall_s = time.perf_counter() - t0
    rep.failed = int(bool(rep.failures))
    path.unlink(missing_ok=True)
    return rep


def _fmt(x) -> str:
    return format(float(x), ".12g")


def check_csv(rep: Rep, ts, path: Path, seed: int):
    """Header, row count, and re-parsed spot rows against the TimeSeries."""
    n_samples, n = ts.theta.shape
    expected = n_samples * n
    rng = random.Random(seed)
    rows = {0, expected - 1} | {rng.randrange(expected) for _ in range(SPOT_ROWS)}
    spot = {}
    # streamed, so the check does not raise the peak RSS the benchmark reports
    with path.open() as fh:
        header = fh.readline().rstrip("\n")
        rep.csv_rows = 0
        for line in fh:
            if rep.csv_rows in rows:
                spot[rep.csv_rows] = line.rstrip("\n")
            rep.csv_rows += 1
    rep.csv_mb = path.stat().st_size / 1e6
    if header.split(",") != list(sim.CSV_HEADER):
        rep.fail(f"CSV header {header!r} != CSV_HEADER")
    if rep.csv_rows != expected:
        rep.fail(f"CSV has {rep.csv_rows} rows, expected {n_samples} x {n}")
        return
    for r in sorted(rows):
        s, i = divmod(r, n)
        got = dict(zip(sim.CSV_HEADER, spot[r].split(",")))
        want = {col: _fmt(getattr(ts, attr)[s] if attr == "t" else getattr(ts, attr)[s, i])
                for col, attr in CSV_FIELDS.items()}
        want["ibr"] = str(i + 1)
        if got != want:
            bad = sorted(k for k in want if got.get(k) != want[k])
            rep.fail(f"CSV row {r + 1} differs from the TimeSeries in {bad}")
            return


def check_case1(rep: Rep, ts, reference):
    """Strict containment, dual conservation per segment, reference agreement."""
    sel = ts.mode == 1
    if not sel.any():
        rep.fail("no proposed-mode samples")
    elif not (np.all(ts.V[sel] > ts.v_min[sel]) and np.all(ts.V[sel] < ts.v_max[sel])):
        rep.fail("V left the open limit band on a proposed-mode sample")
    z = ts.zeta.sum(axis=1)
    bounds = list(ts.segment_starts) + [float(ts.t[-1]) + 1.0]
    for a, b in zip(bounds, bounds[1:]):
        w = ts.window(a, b - 1e-9)
        if w.size and np.abs(z[w] - z[w[0]]).max() > ZETA_DRIFT_TOL:
            rep.fail(f"1^T zeta drifted by more than {ZETA_DRIFT_TOL} in [{a}, {b})")
    if reference is not None:
        V_ref, q_ref = reference
        V, q = ts.V[::REFERENCE_STRIDE], ts.q_ratio[::REFERENCE_STRIDE]
        if V.shape != V_ref.shape:
            rep.fail(f"sample grid {V.shape} differs from the reference {V_ref.shape}")
            return
        dV, dq = np.abs(V - V_ref).max(), np.abs(q - q_ref).max()
        if not (dV <= REFERENCE_TOL and dq <= REFERENCE_TOL):
            rep.fail(f"reference mismatch: max |dV| {dV:.2e}, max |dQ/S| {dq:.2e}")


# ---------------------------------------------------------------------------
# operating-point sweep
# ---------------------------------------------------------------------------

def run_point(rep: Rep, sc, pt: inputs.SweepPoint):
    n = sc.params.n
    params = sc.params.with_limits(np.full(n, pt.v_min), np.full(n, pt.v_max))
    spec = tuning.TuningSpec(delta_f_max=0.005, rocof_star=2.5,
                             f_nom=sc.network.bases.f_nom, v_base=sc.network.bases.v_base)
    t0 = time.perf_counter()
    red = network.kron_reduce(sc.network, np.array(pt.load_scale))
    eq = steady_state.solve_equilibrium(red, sc.graph, params, mode="proposed")
    report = steady_state.verify_properties(eq, params)
    lin = network.jacobians(red, eq.theta, eq.V)
    blocks = stability.assemble_blocks(lin, sc.graph, params)
    cert = stability.solve_lmi(blocks, params.beta)
    stability.boundary_layer_check(blocks)
    sweep = stability.epsilon_sweep(lin, sc.graph, params, eq.v, inputs.SWEEP_RATIOS)
    tuning.tune(spec, sc.graph, params.v_min, params.v_max)
    tuning.validate(params)
    rep.point_s.append(time.perf_counter() - t0)

    where = f"{pt.system} point {rep.attempted}"
    if not report.all_pass:
        rep.fail(f"{where}: verify_properties failed")
    dev = max(float(np.abs(eq.lam - eq.alpha_Q).max()), float(eq.lam.max() - eq.lam.min()))
    if not dev <= CONSENSUS_TOL:
        rep.fail(f"{where}: lambda off consensus at alpha_Q by {dev:.2e}")
    if cert.feasible:
        rep.lmi_feasible += 1
        if not cert.verify(blocks, params.beta):
            rep.fail(f"{where}: feasible certificate fails cert.verify")
    if not all(a < 0 for _, a in sweep):
        rep.fail(f"{where}: non-negative spectral abscissa in {sweep}")


def run_sweep(scenarios: dict, sweep: inputs.Sweep) -> Rep:
    rep = Rep()
    t0 = time.perf_counter()
    for pt in sweep.points:
        rep.attempted += 1
        before = len(rep.failures)
        try:
            run_point(rep, scenarios[pt.system], pt)
        except Exception:
            rep.fail(traceback.format_exc(limit=3))
        rep.failed += len(rep.failures) > before
    rep.wall_s = time.perf_counter() - t0
    return rep


def run(workload: str, ready, inp, seed: int, out_dir: Path, reference) -> Rep:
    if workload == "analysis-sweep":
        return run_sweep(ready, inp)
    return run_timeline(workload, ready, seed, out_dir, reference)
