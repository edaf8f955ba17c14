"""mgshare benchmark: one workload per invocation, every output checked.

    python3 perfbench/run.py --workload timeline-lv5 --seed 0 --seconds 30 --trace 0

Run from the repository root. The program is used straight from ``src/``.
Each invocation starts SETUP_PROBES fresh processes that time set-up, then
one worker process that drives the workload in a closed loop (a single
caller; each call waits for the previous one) for ``--seconds``. All child
processes pin BLAS to one thread. ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json; ``--trace 1`` runs the workload untraced and
then traced and reports the per-layer metrics, including the tracing
overhead. The last line of stdout is the result as JSON; the full record
(environment, failures, per-segment integrator stats) is written to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
DEADLINE_S = 170.0            # the whole invocation must end well within 180 s
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

sys.path.insert(0, str(HERE))
import inputs  # noqa: E402


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in BLAS_THREADS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def call_worker(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} exceeded the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {args} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "mgshare" / "__init__.py").is_file():
        raise BenchError(f"no mgshare sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    seed = str(args.seed)
    probes = [call_worker(["probe", args.workload, seed], deadline)
              for _ in range(SETUP_PROBES)]
    out = call_worker(["run", args.workload, seed, str(args.seconds), str(args.trace)],
                      deadline)

    values = dict(out["metrics"])
    if args.trace:
        values["setup.import_s"] = statistics.median(p["import_s"] for p in probes)
        values["scenario_io.parse_scenario.s"] = statistics.median(p["parse_s"] for p in probes)
    else:
        values["setup_s"] = statistics.median(p["setup_s"] for p in probes)
        values["success_rate"] = 1.0 - out["failed"] / out["attempted"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"worker did not report {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    env = {
        "python": platform.python_version(), **out["env"],
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
        "blas_threads_env": {name: "1" for name in BLAS_THREADS},
        "workload": args.workload, "seed": args.seed,
        "held_out_seed": inputs.HELD_OUT_SEED, "seconds": args.seconds, "trace": args.trace,
    }
    record = {"env": env, "setup_probes": probes, "metrics": metrics,
              **{k: v for k, v in out.items() if k not in ("env", "metrics")}}
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print("env " + json.dumps(env))
    counts = {k: out[k] for k in ("reps", "traced_reps", "point_count", "reference_checked")
              if k in out}
    print("samples " + json.dumps(counts))
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:>16.6g} {m['unit']}")
    for failure in out["failures"]:
        print("FAILED: " + failure.rstrip().replace("\n", "\n    "))
    print(json.dumps({"correct": out["failed"] == 0, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
