"""Child process of run.py: one set-up probe, or one measured workload run.

    worker.py probe <workload> <seed>
    worker.py run <workload> <seed> <seconds> <trace>

Both print one JSON object on stdout. The probe starts its clock before
numpy or mgshare is imported, so it must stay free of those imports until
then; ``inputs`` uses the standard library only.
"""

from __future__ import annotations

import importlib
import json
import resource
import statistics
import sys
import time

import inputs

OUT_DIR = inputs.ROOT / ".perfbench_out"

# per-layer values that must repeat exactly between runs of the same code
COUNTERS = (
    "network.power_flow.calls", "network.kron_reduce.calls", "network.jacobians.calls",
    "simulate.segments", "simulate.rhs.calls", "simulate.jac_evals", "simulate.lu",
    "simulate.accepted_steps", "simulate.to_csv.rows", "simulate.to_csv.mb",
    "steady_state.solve_equilibrium.calls", "steady_state.newton_iters",
    "steady_state.residual_evals", "stability.solve_lmi.feasible_ratio", "trace.spans",
)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # KiB on Linux


def probe(workload: str, seed: int) -> dict:
    """Fresh-process set-up: import mgshare, parse the scenarios, first Kron reduction."""
    texts = inputs.scenario_texts(inputs.make(workload, seed))
    t0 = time.perf_counter()
    importlib.import_module("mgshare")
    t1 = time.perf_counter()
    scenario_io = importlib.import_module("mgshare.scenario_io")
    scenarios = [scenario_io.parse_scenario_text(t) for t in texts]
    t2 = time.perf_counter()
    importlib.import_module("mgshare.network").kron_reduce(scenarios[0].network)
    t3 = time.perf_counter()
    return {"setup_s": t3 - t0, "import_s": t1 - t0, "parse_s": t2 - t1, "kron_s": t3 - t2}


def measure(rep_fn, budget_s: float, min_reps: int) -> list:
    """Closed loop: repeat until another repetition would overrun the budget."""
    reps = []
    start = time.perf_counter()
    while True:
        reps.append(rep_fn())
        elapsed = time.perf_counter() - start
        if len(reps) >= min_reps and elapsed + statistics.median(r.wall_s for r in reps) > budget_s:
            return reps


def layer_metrics(summary: dict, rep) -> dict:
    by_name, by_caller = summary["by_name"], summary["by_caller"]

    def calls(span):
        return by_name.get(span, {}).get("calls", 0)

    def secs(span, key="s"):
        return by_name.get(span, {}).get(key, 0.0)

    def via(span, caller, key):
        return by_caller.get(span, {}).get(caller, {}).get(key, 0)

    seg = summary["segments"]
    pf_calls = calls("network.power_flow")
    return {
        "network.power_flow.calls": pf_calls,
        "network.power_flow.s": secs("network.power_flow"),
        "network.power_flow.us_per_call":
            1e6 * secs("network.power_flow") / pf_calls if pf_calls else 0.0,
        "network.kron_reduce.calls": calls("network.kron_reduce"),
        "network.kron_reduce.s": secs("network.kron_reduce"),
        "network.jacobians.calls": calls("network.jacobians"),
        "network.jacobians.s": secs("network.jacobians"),
        "simulate.segments": len(seg),
        "simulate.rhs.calls": calls("simulate.rhs"),
        "simulate.jac_evals": sum(s["njev"] for s in seg),
        "simulate.lu": sum(s["nlu"] for s in seg),
        "simulate.accepted_steps": sum(s["accepted_steps"] for s in seg),
        "simulate.integrate.s": secs("simulate.integrate"),
        "simulate.rhs.s": secs("simulate.rhs"),
        "simulate.rhs.self_s": secs("simulate.rhs", "self_s"),
        # simulate outside solve_ivp and kron_reduce: events, containment,
        # dense interpolation and _emit (whose power_flow calls are included)
        "simulate.sample.s": secs("simulate.simulate", "self_s")
            + via("network.power_flow", "simulate.simulate", "s"),
        "simulate.to_csv.s": secs("simulate.to_csv"),
        "simulate.to_csv.rows": rep.csv_rows,
        "simulate.to_csv.mb": rep.csv_mb,
        "steady_state.solve_equilibrium.calls": calls("steady_state.solve_equilibrium"),
        "steady_state.solve_equilibrium.s": secs("steady_state.solve_equilibrium"),
        "steady_state.newton_iters":
            via("network.jacobians", "steady_state.solve_equilibrium", "calls"),
        "steady_state.residual_evals":
            via("network.power_flow", "steady_state.solve_equilibrium", "calls"),
        "steady_state.verify_properties.s": secs("steady_state.verify_properties"),
        "stability.assemble_blocks.s": secs("stability.assemble_blocks"),
        "stability.solve_lmi.s": secs("stability.solve_lmi"),
        "stability.solve_lmi.feasible_ratio":
            rep.lmi_feasible / calls("stability.solve_lmi") if calls("stability.solve_lmi")
            else 0.0,
        "stability.boundary_layer_check.s": secs("stability.boundary_layer_check"),
        "stability.epsilon_sweep.s": secs("stability.epsilon_sweep"),
        "tuning.tune.s": secs("tuning.tune"),
        "tuning.validate.s": secs("tuning.validate"),
        "trace.run_s": rep.wall_s,
        "trace.spans": summary["spans"],
    }


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import numpy as np
    import scipy

    import workloads
    from tracer import Tracer

    inp = inputs.make(workload, seed)
    ready = workloads.setup(workload, inp)
    rss_setup = peak_rss_mb()
    reference = workloads.load_reference(seed) if workload == "timeline-lv5" else None
    OUT_DIR.mkdir(exist_ok=True)

    def once():
        return workloads.run(workload, ready, inp, seed, OUT_DIR, reference)

    untraced = measure(once, seconds / 2 if trace else seconds, 1)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {
        "env": {"numpy": np.__version__, "scipy": scipy.__version__,
                "blas": {k: blas.get(k) for k in ("name", "version")}},
        "reps": len(untraced),
        "reference_checked": reference is not None,
    }
    reps = list(untraced)
    metrics = {}
    if not trace:
        points = [p for r in untraced for p in r.point_s]
        p50, p99 = 1e3 * np.percentile(points, [50, 99])
        metrics.update({
            "run_s": statistics.median(r.wall_s for r in untraced),
            "point_p50_ms": float(p50),
            "point_p99_ms": float(p99),
            "peak_rss_mb": peak_rss_mb(),
        })
        result["point_count"] = len(points)
    else:
        rss_run = peak_rss_mb()
        tracer = Tracer()
        layers = []
        summaries = []

        def traced_once():
            tracer.reset()
            rep = once()
            summaries.append(tracer.summary())
            layers.append(layer_metrics(summaries[-1], rep))
            return rep

        with tracer.install():
            traced = measure(traced_once, seconds / 2, 2)
        tracer.save(OUT_DIR / f"spans-{workload}-seed{seed}.npz")
        reps += traced
        repeat = all(m[c] == layers[0][c] for m in layers for c in COUNTERS)
        metrics.update({k: statistics.median(m[k] for m in layers) for k in layers[0]})
        metrics.update({k: layers[0][k] for k in COUNTERS})
        untraced_s = statistics.median(r.wall_s for r in untraced)
        metrics.update({
            "trace.untraced_run_s": untraced_s,
            "trace.overhead_pct": 100.0 * (metrics["trace.run_s"] / untraced_s - 1.0),
            "trace.counters_repeat": int(repeat),
            "process.peak_rss_mb.setup": rss_setup,
            "process.peak_rss_mb.run": rss_run,
        })
        result["traced_reps"] = len(traced)
        result["segments"] = summaries[0]["segments"]
        result["by_caller"] = summaries[0]["by_caller"]
        if not repeat:
            result.setdefault("failures", []).append(
                "deterministic counters differ between traced runs: "
                + json.dumps([{c: m[c] for c in COUNTERS} for m in layers]))
    # in a traced run the counter comparison is one more checked operation
    result["attempted"] = sum(r.attempted for r in reps) + trace
    result["failed"] = sum(r.failed for r in reps) + (trace and not repeat)
    result["failures"] = result.get("failures", []) + [f for r in reps for f in r.failures][:20]
    result["metrics"] = metrics
    return result


def main(argv):
    role, workload, seed = argv[0], argv[1], int(argv[2])
    if role == "probe":
        out = probe(workload, seed)
    else:
        out = run(workload, seed, int(argv[3]), argv[4] == "1")
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
