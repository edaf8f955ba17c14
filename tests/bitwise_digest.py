"""SHA-256 digests of the program's outputs on one benchmark seed, for bitwise comparisons.

    python tests/bitwise_digest.py --seed S [--points N]

imports ``mgshare`` from this checkout's ``src/`` and the seeded inputs from
``perfbench/inputs.py``, and prints one digest per line:

* one per call that the benchmark's operating-point check makes
  (``kron_reduce``, ``solve_equilibrium``, ``verify_properties``,
  ``jacobians``, ``assemble_blocks``, ``solve_lmi``,
  ``boundary_layer_check``, ``epsilon_sweep``, ``tune``, ``validate``),
  plus ``analyze``, over the bytes of every output on the first N points of
  the seed's ``analysis-sweep`` (all of them by default);
* the bytes of the ``timeline-lv5`` and ``export-droop`` CSVs of the seed.

A record is hashed field by field, its derived fields included, and an array
by its dtype, shape and bytes. To check that a change leaves every result
bitwise the same, run the script in a checkout of each side on the same host
and compare the output. The bits depend on the BLAS build, so no digest is
pinned anywhere; BLAS runs on one thread, as in the benchmark.
"""

from __future__ import annotations

import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_name, "1")    # before numpy loads its BLAS

import argparse
import dataclasses
import hashlib
import struct
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import inputs  # noqa: E402
import numpy as np  # noqa: E402

from mgshare import network, scenario_io, stability, steady_state, tuning  # noqa: E402
from mgshare import simulate as sim  # noqa: E402


def feed(h, x):
    """Add the type and bytes of x to the hash h, recursing into records and containers."""
    h.update(type(x).__name__.encode())
    if isinstance(x, np.ndarray):
        h.update(f"{x.dtype.str}{x.shape}".encode())
        h.update(np.ascontiguousarray(x).tobytes())
    elif dataclasses.is_dataclass(x):
        for f in dataclasses.fields(x):
            h.update(f.name.encode())
            feed(h, getattr(x, f.name))
    elif isinstance(x, (list, tuple)):
        h.update(str(len(x)).encode())
        for item in x:
            feed(h, item)
    elif isinstance(x, frozenset):
        feed(h, sorted(x))
    elif isinstance(x, float):
        h.update(struct.pack("<d", x))
    elif isinstance(x, (bool, int, str)):
        h.update(repr(x).encode())
    else:
        raise TypeError(f"no digest for {type(x).__name__}")


def sweep_digests(seed: int, points: int | None) -> dict[str, str]:
    """One digest per call of the operating-point check, and one for ``analyze``."""
    sweep = inputs.analysis_sweep(seed)
    scenarios = {name: scenario_io.parse_scenario_text(text) for name, text in sweep.texts.items()}
    h = {}

    def out(name, x):
        feed(h.setdefault(name, hashlib.sha256()), x)
        return x

    for pt in sweep.points[:points]:
        sc = scenarios[pt.system]
        n = sc.params.n
        params = sc.params.with_limits(np.full(n, pt.v_min), np.full(n, pt.v_max))
        spec = tuning.TuningSpec(delta_f_max=0.005, rocof_star=2.5,
                                 f_nom=sc.network.bases.f_nom, v_base=sc.network.bases.v_base)
        red = out("kron_reduce", network.kron_reduce(sc.network, np.array(pt.load_scale)))
        eq = out("solve_equilibrium", steady_state.solve_equilibrium(red, sc.graph, params))
        out("verify_properties", steady_state.verify_properties(eq, params))
        lin = out("jacobians", network.jacobians(red, eq.theta, eq.V))
        blocks = out("assemble_blocks", stability.assemble_blocks(lin, sc.graph, params))
        out("solve_lmi", stability.solve_lmi(blocks, params.beta))
        out("boundary_layer_check", stability.boundary_layer_check(blocks))
        out("epsilon_sweep",
            stability.epsilon_sweep(lin, sc.graph, params, eq.v, inputs.SWEEP_RATIOS))
        out("tune", tuning.tune(spec, sc.graph, params.v_min, params.v_max))
        out("validate", tuning.validate(params))
        out("analyze", stability.analyze(red, sc.graph, params, inputs.SWEEP_RATIOS))
    return {name: d.hexdigest() for name, d in h.items()}


def csv_digest(timeline: inputs.Timeline, path: Path) -> str:
    """SHA-256 of the CSV that the simulated timeline writes."""
    sc = scenario_io.parse_scenario_text(timeline.text)
    if timeline.initial_theta is not None:
        sc = dataclasses.replace(sc, initial_theta=np.array(timeline.initial_theta))
    sim.simulate(sc).to_csv(path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--points", type=int, default=None,
                    help="sweep points to hash, from the first (default: all)")
    args = ap.parse_args(argv)
    for name, digest in sweep_digests(args.seed, args.points).items():
        print(f"{name:<21} {digest}")
    with tempfile.TemporaryDirectory() as tmp:
        for workload in ("timeline-lv5", "export-droop"):
            path = Path(tmp) / f"{workload}.csv"
            print(f"{workload:<21} {csv_digest(inputs.make(workload, args.seed), path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
