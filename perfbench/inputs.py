"""Seeded workload inputs, built with the standard library only.

The setup probe times ``import mgshare`` from a fresh interpreter, so this
module must not import numpy or mgshare: everything here is plain text and
plain floats. The program sees only what these functions return: scenario
texts in the bundled ``.scn`` format plus, for ``export-droop``, an initial
angle vector and, for ``analysis-sweep``, per-point load scales and limits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "mgshare" / "data"

WORKLOADS = ("timeline-lv5", "export-droop", "analysis-sweep")

# Seeds whose timeline-lv5 trajectory is stored in reference/; HELD_OUT is the
# seed a later performance claim must also hold on (never used for tuning).
REFERENCE_SEEDS = tuple(range(10))
HELD_OUT_SEED = 90001

SWEEP_POINTS = 1000           # p99 then has 10 samples beyond it per sweep
SWEEP_RATIOS = (0.5, 0.2, 0.1, 0.05, 0.01)
SWEEP_SYSTEMS = ("lv5", "mv9-template")
# nominal (v_min, v_max) of each bundled system; points draw bands around it
NOMINAL_BAND = {"lv5": (0.95, 1.05), "mv9-template": (0.98, 1.02)}


@dataclass(frozen=True)
class Timeline:
    text: str                              # scenario file contents
    initial_theta: tuple[float, ...] | None = None


@dataclass(frozen=True)
class SweepPoint:
    system: str                            # key into Sweep.texts
    load_scale: tuple[float, ...]          # per bus
    v_min: float
    v_max: float


@dataclass(frozen=True)
class Sweep:
    texts: dict[str, str]
    points: tuple[SweepPoint, ...]


def bundled_text(name: str) -> str:
    return (DATA / f"{name}.scn").read_text()


def replace_section(text: str, section: str, body: list[str]) -> str:
    """Swap the body of ``[section]`` for ``body``, keeping its header."""
    out: list[str] = []
    skipping = False
    for line in text.splitlines():
        if line.startswith("["):
            skipping = line[1:].split("]", 1)[0].strip() == section
            out.append(line)
            if skipping:
                out.extend(body)
            continue
        if not skipping:
            out.append(line)
    return "\n".join(out) + "\n"


def _timeline_text(events: list[str], t_end: float, sample_ms: float) -> str:
    text = replace_section(bundled_text("lv5"), "events", events)
    return replace_section(text, "simulation",
                           [f"t_end {t_end!r}", "rel_tol 1e-7", f"sample_ms {sample_ms!r}"])


def timeline_lv5(seed: int) -> Timeline:
    """Case-1: droop, activate at 10 s, load step at 25 s, restore at 40 s."""
    if seed == 0:
        bus, factor = 5, 0.2                 # the paper's step
    else:
        rng = random.Random(seed)
        bus, factor = rng.randint(1, 5), rng.uniform(0.2, 0.6)
    events = ["10 activate", f"25 scale-load {bus} {factor!r}", f"40 scale-load {bus} 1.0"]
    return Timeline(_timeline_text(events, 50.0, 10.0))


def export_droop(seed: int) -> Timeline:
    """Droop only, two load steps, 1 ms samples over 50 s (250k CSV rows)."""
    rng = random.Random(seed)
    theta0 = tuple(rng.gauss(0.0, 0.01) for _ in range(5))
    t1, t2 = round(rng.uniform(5.0, 20.0), 3), round(rng.uniform(25.0, 45.0), 3)
    events = [f"{t1!r} scale-load {rng.randint(1, 5)} {rng.uniform(0.3, 1.2)!r}",
              f"{t2!r} scale-load {rng.randint(1, 5)} {rng.uniform(0.3, 1.2)!r}"]
    return Timeline(_timeline_text(events, 50.0, 1.0), initial_theta=theta0)


def analysis_sweep(seed: int) -> Sweep:
    """SWEEP_POINTS operating points alternating lv5 and mv9-template."""
    rng = random.Random(seed)
    texts = {name: bundled_text(name) for name in SWEEP_SYSTEMS}
    n_bus = {"lv5": 5, "mv9-template": 9}
    points = []
    for i in range(SWEEP_POINTS):
        system = SWEEP_SYSTEMS[i % 2]
        lo, hi = NOMINAL_BAND[system]
        half = 0.5 * (hi - lo)
        points.append(SweepPoint(
            system=system,
            load_scale=tuple(rng.uniform(0.2, 1.2) for _ in range(n_bus[system])),
            v_min=lo + rng.uniform(-0.2, 0.2) * half,
            v_max=hi + rng.uniform(-0.2, 0.2) * half,
        ))
    return Sweep(texts, tuple(points))


def make(workload: str, seed: int):
    return {"timeline-lv5": timeline_lv5, "export-droop": export_droop,
            "analysis-sweep": analysis_sweep}[workload](seed)


def scenario_texts(inputs) -> list[str]:
    """The scenario files a workload parses during setup."""
    return list(inputs.texts.values()) if isinstance(inputs, Sweep) else [inputs.text]
