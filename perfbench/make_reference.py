"""Regenerate reference/timeline-lv5.npz, the trajectories timeline-lv5 is checked against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Stores V and Q/S every 100 ms for each seed in REFERENCE_SEEDS and for the
held-out seed. Regenerate only from a commit whose trajectories are trusted:
the benchmark fails any later run that moves them by more than 1e-7.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import inputs  # noqa: E402
import workloads  # noqa: E402


def main():
    arrays = {}
    for seed in inputs.REFERENCE_SEEDS + (inputs.HELD_OUT_SEED,):
        sc = workloads.setup("timeline-lv5", inputs.timeline_lv5(seed))
        ts = workloads.sim.simulate(sc)
        arrays[f"seed{seed}_V"] = ts.V[::workloads.REFERENCE_STRIDE]
        arrays[f"seed{seed}_q_ratio"] = ts.q_ratio[::workloads.REFERENCE_STRIDE]
        print(f"seed {seed}: {ts.t.size} samples", flush=True)
    workloads.REFERENCE.parent.mkdir(exist_ok=True)
    np.savez_compressed(workloads.REFERENCE, **arrays)


if __name__ == "__main__":
    main()
