"""Command-line entry point.

Subcommands: ``simulate`` (run a scenario, write CSV and a plotting
script), ``steady-state`` (Newton equilibrium plus property report),
``stability`` (cascade blocks, LMI certificate, boundary layer, timescale
sweep), ``tune`` (gain selection for a scenario's fleet and graph).

Exit codes: 0 success, 1 analysis failure (infeasible certificate,
non-convergence, unstable sweep point), 2 bad usage or input data.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import stability, tuning
from .errors import MgshareError, ScenarioFormatError
from .network import kron_reduce
from .scenario_io import BUNDLED, parse_scenario
from .steady_state import solve_equilibrium, verify_properties

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mgshare",
        description="Microgrid reactive-sharing controller: simulate, certify, tune.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_scenario(p):
        p.add_argument("scenario",
                       help=f"scenario file path or bundled name {BUNDLED}")

    p = sub.add_parser("simulate", help="integrate a scenario timeline")
    add_scenario(p)
    p.add_argument("--t-end", type=float, default=None, help="override end time [s]")
    p.add_argument("--rel-tol", type=float, default=None, help="integrator relative tolerance")
    p.add_argument("--sample-ms", type=float, default=None, help="output sampling period [ms]")
    p.add_argument("--out-dir", default=None, help="output directory (default from scenario)")

    p = sub.add_parser("steady-state", help="solve and verify the operating point")
    add_scenario(p)
    p.add_argument("--mode", choices=("droop", "proposed"), default="proposed")
    p.add_argument("--tol", type=float, default=1e-6, help="property check tolerance")

    p = sub.add_parser("stability", help="LMI certificate and timescale-ratio sweep")
    add_scenario(p)
    p.add_argument("--ratios", default="0.5,0.2,0.1,0.05,0.01",
                   help="comma-separated tau_d/tau_v ratios for the sweep")

    p = sub.add_parser("tune", help="select gains for the scenario's fleet and graph")
    add_scenario(p)
    p.add_argument("--delta-f-max", type=float, default=0.005,
                   help="allowed steady frequency deviation [p.u. of f_nom]")
    p.add_argument("--rocof", type=float, default=2.5,
                   help="worst-case rate of change of frequency [Hz/s]")
    p.add_argument("--tau-p", type=float, default=0.01, help="primal filter constant [s]")
    p.add_argument("--k-d", type=float, default=10.0, help="desired consensus stiffness")
    p.add_argument("--beta-budget", type=float, default=5e-4,
                   help="sharing-error budget for the leak gain")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = parse_scenario(args.scenario)
        if args.command == "simulate":
            return _cmd_simulate(args, scenario)
        if args.command == "steady-state":
            return _cmd_steady_state(args, scenario)
        if args.command == "stability":
            return _cmd_stability(args, scenario)
        return _cmd_tune(args, scenario)
    except MgshareError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ScenarioFormatError) else 1


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _cmd_simulate(args, scenario) -> int:
    from dataclasses import replace

    # the integrator loads scipy; the analysis subcommands never need it
    from .simulate import detect_saturated_set, sharing_error, simulate

    overrides = {}
    if args.t_end is not None:
        overrides["t_end"] = args.t_end
        overrides["events"] = tuple(e for e in scenario.events if e.time <= args.t_end)
    if args.rel_tol is not None:
        overrides["rel_tol"] = args.rel_tol
    if args.sample_ms is not None:
        overrides["sample_ms"] = args.sample_ms
    if args.out_dir is not None:
        overrides["out_dir"] = args.out_dir
    if overrides:
        scenario = replace(scenario, **overrides)

    out = Path(scenario.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory {out}: {exc}", file=sys.stderr)
        return 2
    ts = simulate(scenario)
    csv_path = out / f"{scenario.name}_timeseries.csv"
    ts.to_csv(csv_path)
    plot_path = out / f"plot_{scenario.name}.py"
    plot_path.write_text(_plot_script(csv_path.name, scenario.name), encoding="utf-8")

    t_last = float(ts.t[-1])
    err = sharing_error(ts, t_last)
    sat = sorted(detect_saturated_set(ts, t_last))
    print(f"simulated {scenario.name}: {ts.t.size} samples over {t_last:g} s, "
          f"{len(ts.segment_starts)} segment(s)")
    print(f"wrote {csv_path}")
    print(f"wrote {plot_path}  (needs matplotlib: python {plot_path})")
    print(f"final sharing error (max) : {err.max():.3e}")
    print(f"final saturated units     : {sat if sat else 'none'}")
    print(f"final voltages [p.u.]     : {np.array2string(ts.V[-1], precision=5)}")
    return 0


def _plot_script(csv_name: str, name: str) -> str:
    """Standalone script reproducing the standard eight-panel overview."""
    return f'''"""Eight-panel overview of the {name} run; expects {csv_name} alongside."""
import csv
from pathlib import Path

import matplotlib.pyplot as plt
import numpy as np

here = Path(__file__).parent
rows = list(csv.DictReader(open(here / "{csv_name}")))
ids = sorted({{int(r["ibr"]) for r in rows}})
t = np.array(sorted({{float(r["t"]) for r in rows}}))

def channel(key):
    out = np.empty((t.size, len(ids)))
    for r in rows:
        out[np.searchsorted(t, float(r["t"])), int(r["ibr"]) - 1] = float(r[key])
    return out

panels = [
    ("f", "frequency [Hz]"), ("V", "voltage [p.u.]"),
    ("P_ratio", "P / S rating"), ("Q_ratio", "Q / S rating"),
    ("lambda", "dual state"), ("zeta", "consensus state"),
    ("v", "integrator state"), ("rho", "leakage"),
]
fig, axes = plt.subplots(4, 2, figsize=(11, 12), sharex=True)
for (key, label), ax in zip(panels, axes.ravel()):
    for j, i in enumerate(ids):
        ax.plot(t, channel(key)[:, j], lw=1.0, label=f"unit {{i}}")
    ax.set_ylabel(label)
    ax.grid(alpha=0.3)
axes[0, 0].legend(fontsize=8, ncol=2)
for ax in axes[-1]:
    ax.set_xlabel("time [s]")
fig.suptitle("{name}")
fig.tight_layout()
fig.savefig(here / "{name}_overview.png", dpi=150)
print("wrote", here / "{name}_overview.png")
'''


# ---------------------------------------------------------------------------
# steady-state / stability / tune
# ---------------------------------------------------------------------------

def _cmd_steady_state(args, scenario) -> int:
    if not (np.isfinite(args.tol) and args.tol > 0):
        print(f"error: --tol must be positive and finite, got {args.tol}", file=sys.stderr)
        return 2
    red = kron_reduce(scenario.network)
    eq = solve_equilibrium(red, scenario.graph, scenario.params, mode=args.mode)
    print(f"equilibrium ({args.mode}), residual {eq.residual:.2e}, "
          f"{eq.iterations} Newton iterations")
    print(f"sync frequency deviation  : {eq.omega_syn_dev / (2 * np.pi):+.5f} Hz")
    print(f"V [p.u.]                  : {np.array2string(eq.V, precision=5)}")
    print(f"P ratio                   : {np.array2string(eq.P / scenario.params.s_rated, precision=5)}")
    print(f"Q ratio                   : {np.array2string(eq.Q / scenario.params.s_rated, precision=5)}")
    if args.mode == "proposed":
        print(f"alpha_Q                   : {eq.alpha_Q:+.6f}")
        report = verify_properties(eq, scenario.params, tol=args.tol)
        for line in report.lines():
            print(line)
        return 0 if report.all_pass else 1
    return 0


def _cmd_stability(args, scenario) -> int:
    red = kron_reduce(scenario.network)
    try:
        ratios = stability._ratios(r for r in args.ratios.split(",") if r.strip())
    except ValueError:
        ratios = []
    if not ratios:
        print("error: --ratios must be comma-separated nonnegative finite numbers, "
              f"got {args.ratios!r}", file=sys.stderr)
        return 2
    result = stability.analyze(red, scenario.graph, scenario.params, ratios)
    cert = result.certificate
    print(f"LMI certificate           : {'feasible' if cert.feasible else 'INFEASIBLE'} "
          f"(margin {cert.margin:+.3e}, alpha_s {cert.alpha_s:.3e})")
    print(f"boundary layer            : alpha_f = {result.alpha_f:.3f}")
    ok = True
    for ratio, absc in result.sweep:
        stable = absc < 0
        ok &= stable
        print(f"ratio tau_d/tau_v = {ratio:<6g} spectral abscissa = {absc:+.5f}  "
              f"{'stable' if stable else 'UNSTABLE'}")
    if not cert.feasible:
        print("no certificate found; the sweep above is the empirical fallback")
    return 0 if (cert.feasible and ok) else 1


def _cmd_tune(args, scenario) -> int:
    try:
        spec = tuning.TuningSpec(
            delta_f_max=args.delta_f_max,
            rocof_star=args.rocof,
            tau_p=args.tau_p,
            k_d=args.k_d,
            beta_error_budget=args.beta_budget,
            f_nom=scenario.network.bases.f_nom,
            v_base=scenario.network.bases.v_base,
        )
    except MgshareError as exc:    # a bad option is bad input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tuned = tuning.tune(spec, scenario.graph,
                        scenario.params.v_min, scenario.params.v_max)
    print(f"m_star (freq droop)       : {tuned.m_star:.4f} rad/s per p.u.")
    print(f"m_v = Delta [p.u.]        : {np.array2string(tuned.m_v_pu, precision=4)}")
    print(f"m_v [V]                   : {np.array2string(tuned.m_v_volt, precision=4)}")
    print(f"tau_omega / tau_p         : {tuned.tau_omega:.4g} / {tuned.tau_p:.4g} s")
    print(f"tau_d / tau_v             : {tuned.tau_d:.4g} / {tuned.tau_v:.4g} s")
    print(f"sigma2 (connectivity)     : {tuned.sigma2:.6f}")
    print(f"k = k_d / sigma2          : {tuned.k:.4f}")
    print(f"beta                      : {tuned.beta:.6g}")
    for w in tuned.warnings:
        print(f"warning: {w}")
    report = tuning.validate(scenario.params, beta_error_budget=None)
    print(f"scenario gain validation  : {'PASS' if report.ok else 'FAIL'}")
    for v in report.violations:
        print(f"  violated: {v}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
