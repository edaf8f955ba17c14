"""Scenarios: the ``Event`` and ``Scenario`` types, file parsing and serialization.

``Scenario`` bundles everything one simulation run needs (per-unit network,
communication graph, controller parameters, timeline of ``Event``s, solver
and output settings) and validates it on construction. These types and the
parser depend on numpy only, so parsing a scenario never loads scipy; the
integrator loads with ``mgshare.simulate``.

The format is sectioned, line-oriented plain text chosen so the tables can
be transcribed by hand from a specification sheet: ``[section]`` headers
(optionally annotated ``unit=ohm`` / ``unit=pu`` / ``unit=va``), ``#``
comments, and whitespace-separated fields. Sections: bases, buses, lines,
connectors, loads, ibrs, graph, controller-gains, events, simulation,
outputs.

Two scenarios ship with the package: ``lv5`` (five-inverter low-voltage
ring) and ``mv9-template`` (nine-bus medium-voltage skeleton with
placeholder network data to be replaced by the user).
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .controller import IbrParams
from .errors import DisconnectedGraphError, NetworkDataError, ScenarioFormatError
from .graph import CommGraph, value_eq
from .network import Bases, Connector, Line, Load, NetworkData, to_per_unit

__all__ = ["Event", "Scenario", "parse_scenario", "parse_scenario_text",
           "serialize_scenario", "bundled_scenario_path", "BUNDLED"]

BUNDLED = ("lv5", "mv9-template")

_SECTIONS = {
    "bases", "buses", "lines", "connectors", "loads", "ibrs",
    "graph", "controller-gains", "events", "simulation", "outputs",
}

_GAIN_KEYS = {"m_omega", "m_v", "tau_omega", "tau_v", "tau_p", "tau_d", "beta", "k", "mode"}


@dataclass(frozen=True)
class Event:
    """Timeline event; ``kind`` is 'activate', 'scale-load', or 'set-limits'.

    ``scale-load`` carries (bus, factor) with factor relative to the nominal
    load; ``set-limits`` carries (v_min, v_max) and an optional 1-based
    ``ibr`` (None applies to all units).
    """

    time: float
    kind: str
    bus: int | None = None
    factor: float | None = None
    v_min: float | None = None
    v_max: float | None = None
    ibr: int | None = None

    def __post_init__(self):
        if self.kind not in ("activate", "scale-load", "set-limits"):
            raise ScenarioFormatError(f"unknown event kind {self.kind!r}")
        if self.kind == "scale-load" and (self.bus is None or self.factor is None):
            raise ScenarioFormatError("scale-load event needs bus and factor")
        if self.kind == "set-limits" and (self.v_min is None or self.v_max is None):
            raise ScenarioFormatError("set-limits event needs v_min and v_max")
        if self.kind == "set-limits" and not self.v_min < self.v_max:
            raise ScenarioFormatError(
                f"set-limits event at t={self.time} needs v_min < v_max, "
                f"got {self.v_min} and {self.v_max}")


@dataclass(frozen=True, eq=False)
class Scenario:
    """Everything one simulation run needs."""

    network: NetworkData          # per-unit
    graph: CommGraph
    params: IbrParams
    t_end: float
    events: tuple[Event, ...] = ()
    initial_mode: str = "droop"
    rel_tol: float = 1e-7
    sample_ms: float = 10.0
    initial_theta: np.ndarray | None = None
    initial_state: np.ndarray | None = None   # full state for initial_mode
    name: str = "scenario"
    out_dir: str = "out"

    __eq__ = value_eq
    __hash__ = None    # arrays compare by value; no hash agrees with that

    def __post_init__(self):
        if self.initial_mode not in ("droop", "proposed"):
            raise ScenarioFormatError(f"unknown mode {self.initial_mode!r}")
        for name in ("t_end", "sample_ms", "rel_tol"):
            if not (0 < getattr(self, name) < np.inf):
                raise ScenarioFormatError(f"{name} must be positive and finite")
        times = [e.time for e in self.events]
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ScenarioFormatError("event times must be strictly increasing")
        if times and (times[0] < 0 or times[-1] > self.t_end):
            raise ScenarioFormatError("event times must lie within [0, t_end]")
        n = self.network.n_ibr
        if self.graph.n != n or self.params.n != n:
            raise ScenarioFormatError(
                f"graph ({self.graph.n}) and params ({self.params.n}) must match "
                f"the {n} inverters in the network"
            )
        for e in self.events:
            if e.kind == "scale-load" and not (1 <= e.bus <= self.network.n_bus):
                raise ScenarioFormatError(f"event at t={e.time}: unknown bus {e.bus}")
            if e.kind == "set-limits" and e.ibr is not None and not (1 <= e.ibr <= n):
                raise ScenarioFormatError(f"event at t={e.time}: unknown IBR {e.ibr}")


def bundled_scenario_path(name: str) -> Path:
    if name not in BUNDLED:
        raise ScenarioFormatError(f"no bundled scenario named {name!r}; have {BUNDLED}")
    return Path(importlib.resources.files("mgshare.data") / f"{name}.scn")


def parse_scenario(path) -> Scenario:
    """Parse a scenario file (or bundled scenario name) into validated objects."""
    p = Path(path)
    if not p.exists() and str(path) in BUNDLED:
        p = bundled_scenario_path(str(path))
    if not p.exists():
        raise ScenarioFormatError(f"scenario file not found: {path}")
    return parse_scenario_text(p.read_text(), name=p.stem)


def _tokenize(text: str):
    """Yield (lineno, section, unit, tokens); each section header may appear once."""
    section = None
    unit = None
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if "]" not in line:
                raise ScenarioFormatError(f"line {lineno}: unterminated section header")
            name, _, rest = line.partition("]")
            section = name[1:].strip()
            unit = None
            for tok in rest.split():
                if tok.startswith("unit="):
                    unit = tok[5:]
                else:
                    raise ScenarioFormatError(
                        f"line {lineno}: unexpected token {tok!r} after section header"
                    )
            if section not in _SECTIONS:
                raise ScenarioFormatError(f"line {lineno}: unknown section [{section}]")
            if section in seen:
                raise ScenarioFormatError(f"line {lineno}: repeated section [{section}]")
            seen.add(section)
            continue
        if section is None:
            raise ScenarioFormatError(f"line {lineno}: data before any section header")
        yield lineno, section, unit, line.split()


def _num(tok, lineno, what):
    try:
        return float(tok)
    except ValueError:
        raise ScenarioFormatError(f"line {lineno}: {what} must be a number, got {tok!r}") from None


def _int(tok, lineno, what):
    try:
        return int(tok)
    except ValueError:
        raise ScenarioFormatError(f"line {lineno}: {what} must be an integer, got {tok!r}") from None


def parse_scenario_text(text: str, name: str = "scenario") -> Scenario:
    bases_kv: dict[str, float] = {}
    buses: list[tuple[int, str]] = []
    lines: list[Line] = []
    line_unit = None
    connectors: list[Connector] = []
    conn_unit = None
    loads: list[Load] = []
    load_unit = None
    ibr_rows: list[tuple[int, float, float, float]] = []
    graph_edges: list[tuple[int, int, float]] = []
    gains: dict[str, float | str] = {}
    events: list[Event] = []
    sim: dict[str, float] = {}
    out_dir = "out"
    semantic: list[str] = []

    for lineno, section, unit, toks in _tokenize(text):
        if section == "bases":
            if len(toks) < 2:
                raise ScenarioFormatError(f"line {lineno}: bases entries are 'key value [unit]'")
            bases_kv[toks[0]] = _num(toks[1], lineno, toks[0])
        elif section == "buses":
            if len(toks) != 2 or toks[1] not in ("load", "junction", "main"):
                raise ScenarioFormatError(
                    f"line {lineno}: bus rows are 'id load|junction|main'"
                )
            buses.append((_int(toks[0], lineno, "bus id"), toks[1]))
        elif section == "lines":
            line_unit = unit or "ohm"
            if len(toks) != 4:
                raise ScenarioFormatError(f"line {lineno}: line rows are 'from to r x'")
            lines.append(Line(
                _int(toks[0], lineno, "from bus"), _int(toks[1], lineno, "to bus"),
                _num(toks[2], lineno, "r"), _num(toks[3], lineno, "x"),
            ))
        elif section == "connectors":
            conn_unit = unit or "ohm"
            if len(toks) != 4:
                raise ScenarioFormatError(f"line {lineno}: connector rows are 'ibr bus r x'")
            connectors.append(Connector(
                _int(toks[0], lineno, "ibr id"), _int(toks[1], lineno, "bus"),
                _num(toks[2], lineno, "r"), _num(toks[3], lineno, "x"),
            ))
        elif section == "loads":
            load_unit = unit or "pu"
            if len(toks) != 3:
                raise ScenarioFormatError(f"line {lineno}: load rows are 'bus s pf'")
            loads.append(Load(
                _int(toks[0], lineno, "bus"),
                _num(toks[1], lineno, "s"), _num(toks[2], lineno, "pf"),
            ))
        elif section == "ibrs":
            if len(toks) != 4:
                raise ScenarioFormatError(
                    f"line {lineno}: ibr rows are 'id s_rated v_min v_max'"
                )
            ibr_rows.append((
                _int(toks[0], lineno, "ibr id"), _num(toks[1], lineno, "s_rated"),
                _num(toks[2], lineno, "v_min"), _num(toks[3], lineno, "v_max"),
            ))
        elif section == "graph":
            if len(toks) not in (2, 3):
                raise ScenarioFormatError(f"line {lineno}: graph rows are 'i j [weight]'")
            w = _num(toks[2], lineno, "weight") if len(toks) == 3 else 1.0
            graph_edges.append((_int(toks[0], lineno, "i"), _int(toks[1], lineno, "j"), w))
        elif section == "controller-gains":
            if len(toks) != 2 or toks[0] not in _GAIN_KEYS:
                raise ScenarioFormatError(
                    f"line {lineno}: controller-gains entries are 'key value' with key in "
                    f"{sorted(_GAIN_KEYS)}"
                )
            gains[toks[0]] = toks[1] if toks[0] == "mode" else _num(toks[1], lineno, toks[0])
        elif section == "events":
            events.append(_parse_event(lineno, toks))
        elif section == "simulation":
            if len(toks) != 2:
                raise ScenarioFormatError(f"line {lineno}: simulation entries are 'key value'")
            sim[toks[0]] = _num(toks[1], lineno, toks[0])
        elif section == "outputs":
            if len(toks) != 2 or toks[0] != "dir":
                raise ScenarioFormatError(f"line {lineno}: outputs entries are 'dir path'")
            out_dir = toks[1]

    for key in ("s_base", "v_base", "f_nom"):
        if key not in bases_kv:
            semantic.append(f"[bases] is missing {key}")
    if not buses:
        semantic.append("[buses] section is empty")
    if not ibr_rows:
        semantic.append("[ibrs] section is empty")
    if not graph_edges:
        semantic.append("[graph] section is empty")

    bus_ids = [b for b, _ in buses]
    if sorted(bus_ids) != list(range(1, len(buses) + 1)):
        semantic.append("bus ids must be 1..n_bus without duplicates or gaps")
    n_bus = len(buses)
    ibr_ids = [r[0] for r in ibr_rows]
    if sorted(ibr_ids) != list(range(1, len(ibr_rows) + 1)):
        semantic.append("ibr ids must be 1..n without duplicates or gaps")
    n = len(ibr_rows)

    for ln in lines:
        for b in (ln.from_bus, ln.to_bus):
            if not (1 <= b <= n_bus):
                semantic.append(f"line ({ln.from_bus},{ln.to_bus}) references unknown bus {b}")
    for c in connectors:
        if not (1 <= c.bus <= n_bus):
            semantic.append(f"connector of IBR {c.ibr} references unknown bus {c.bus}")
    for ld in loads:
        if not (1 <= ld.bus <= n_bus):
            semantic.append(f"load references unknown bus {ld.bus}")
    for i, j, _ in graph_edges:
        for b in (i, j):
            if not (1 <= b <= n):
                semantic.append(f"graph edge ({i},{j}) references unknown IBR {b}")
    for ev in events:
        if ev.kind == "scale-load" and not (1 <= (ev.bus or 0) <= n_bus):
            semantic.append(f"event at t={ev.time} references unknown bus {ev.bus}")
        if ev.kind == "set-limits" and ev.ibr is not None and not (1 <= ev.ibr <= n):
            semantic.append(f"event at t={ev.time} references unknown IBR {ev.ibr}")
    missing = _GAIN_KEYS - set(gains) - {"mode"}
    if missing:
        semantic.append(f"[controller-gains] is missing {sorted(missing)}")
    if "t_end" not in sim:
        semantic.append("[simulation] is missing t_end")
    if semantic:
        raise ScenarioFormatError(
            "scenario validation failed:\n  - " + "\n  - ".join(semantic)
        )

    if {line_unit, conn_unit} - {None} not in ({"ohm"}, {"pu"}, set()):
        raise ScenarioFormatError("lines and connectors must use the same impedance unit")
    rows = sorted(ibr_rows)
    try:
        data = to_per_unit(NetworkData(
            bases=Bases(bases_kv["s_base"], bases_kv["v_base"], bases_kv["f_nom"]),
            n_bus=n_bus,
            lines=tuple(lines),
            connectors=tuple(sorted(connectors, key=lambda c: c.ibr)),
            loads=tuple(loads),
            impedance_unit=line_unit or conn_unit or "ohm",
            load_unit=load_unit or "pu",
        ))
        graph = CommGraph.from_edges(n, [(i - 1, j - 1, w) for i, j, w in graph_edges])
        params = IbrParams(
            s_rated=np.array([r[1] for r in rows]),
            m_omega=np.full(n, gains["m_omega"]),
            m_v=np.full(n, gains["m_v"]),
            v_min=np.array([r[2] for r in rows]),
            v_max=np.array([r[3] for r in rows]),
            tau_omega=gains["tau_omega"],
            tau_v=gains["tau_v"],
            tau_p=gains["tau_p"],
            tau_d=gains["tau_d"],
            beta=gains["beta"],
            k=gains["k"],
        )
    except (ValueError, NetworkDataError, DisconnectedGraphError) as exc:
        raise ScenarioFormatError(str(exc)) from exc

    return Scenario(
        network=data,
        graph=graph,
        params=params,
        t_end=sim["t_end"],
        events=tuple(events),
        initial_mode=gains.get("mode", "droop"),
        rel_tol=sim.get("rel_tol", 1e-7),
        sample_ms=sim.get("sample_ms", 10.0),
        name=name,
        out_dir=out_dir,
    )


def _parse_event(lineno: int, toks) -> Event:
    t = _num(toks[0], lineno, "event time")
    kind = toks[1] if len(toks) > 1 else ""
    if kind == "activate":
        if len(toks) != 2:
            raise ScenarioFormatError(f"line {lineno}: activate takes no arguments")
        return Event(time=t, kind="activate")
    if kind == "scale-load":
        if len(toks) != 4:
            raise ScenarioFormatError(f"line {lineno}: scale-load rows are 't scale-load bus factor'")
        return Event(time=t, kind="scale-load",
                     bus=_int(toks[2], lineno, "bus"),
                     factor=_num(toks[3], lineno, "factor"))
    if kind == "set-limits":
        if len(toks) not in (4, 5):
            raise ScenarioFormatError(
                f"line {lineno}: set-limits rows are 't set-limits v_min v_max [ibr]'"
            )
        ibr = _int(toks[4], lineno, "ibr") if len(toks) == 5 else None
        return Event(time=t, kind="set-limits",
                     v_min=_num(toks[2], lineno, "v_min"),
                     v_max=_num(toks[3], lineno, "v_max"), ibr=ibr)
    raise ScenarioFormatError(f"line {lineno}: unknown event kind {kind!r}")


def _g(x: float) -> str:
    """Shortest decimal that round-trips the float exactly."""
    return repr(float(x))


def serialize_scenario(s: Scenario) -> str:
    """Canonical text form; parse(serialize(x)) reproduces x.

    Raises ``ScenarioFormatError`` for a scenario the format cannot express:
    ``m_omega`` or ``m_v`` that differ between units (the format has one
    shared value each), an ``initial_theta`` or ``initial_state``, or an
    ``out_dir`` that is not a single token free of '#'.
    """
    p = s.params
    for name in ("m_omega", "m_v"):
        gain = getattr(p, name)
        if np.any(gain != gain[0]):
            raise ScenarioFormatError(f"cannot serialize per-unit {name} {gain.tolist()}: "
                                      "the format has one value shared by all units")
    for name in ("initial_theta", "initial_state"):
        if getattr(s, name) is not None:
            raise ScenarioFormatError(f"cannot serialize {name}: the format has no field for it")
    if s.out_dir.split() != [s.out_dir] or "#" in s.out_dir:
        raise ScenarioFormatError(f"cannot serialize out_dir {s.out_dir!r}: "
                                  "it must be one token without '#'")
    b = s.network.bases
    out = [f"# {s.name}", "[bases]",
           f"s_base {_g(b.s_base)} VA",
           f"v_base {_g(b.v_base)} V",
           f"f_nom {_g(b.f_nom)} Hz",
           "", "[buses]"]
    load_buses = {ld.bus for ld in s.network.loads}
    for i in range(1, s.network.n_bus + 1):
        out.append(f"{i} {'load' if i in load_buses else 'junction'}")
    out += ["", "[lines] unit=pu"]
    for ln in s.network.lines:
        out.append(f"{ln.from_bus} {ln.to_bus} {_g(ln.r)} {_g(ln.x)}")
    out += ["", "[connectors] unit=pu"]
    for c in s.network.connectors:
        out.append(f"{c.ibr} {c.bus} {_g(c.r)} {_g(c.x)}")
    out += ["", "[loads] unit=pu"]
    for ld in s.network.loads:
        out.append(f"{ld.bus} {_g(ld.s)} {_g(ld.pf)}")
    out += ["", "[ibrs]"]
    for i in range(p.n):
        out.append(f"{i + 1} {_g(p.s_rated[i])} {_g(p.v_min[i])} {_g(p.v_max[i])}")
    out += ["", "[graph]"]
    for i, j, w in s.graph.edges:
        out.append(f"{i + 1} {j + 1} {_g(w)}")
    out += ["", "[controller-gains]",
            f"mode {s.initial_mode}",
            f"m_omega {_g(p.m_omega[0])}",
            f"m_v {_g(p.m_v[0])}",
            f"tau_omega {_g(p.tau_omega)}",
            f"tau_v {_g(p.tau_v)}",
            f"tau_p {_g(p.tau_p)}",
            f"tau_d {_g(p.tau_d)}",
            f"beta {_g(p.beta)}",
            f"k {_g(p.k)}"]
    out += ["", "[events]"]
    for ev in s.events:
        if ev.kind == "activate":
            out.append(f"{_g(ev.time)} activate")
        elif ev.kind == "scale-load":
            out.append(f"{_g(ev.time)} scale-load {ev.bus} {_g(ev.factor)}")
        else:
            tail = f" {ev.ibr}" if ev.ibr is not None else ""
            out.append(f"{_g(ev.time)} set-limits {_g(ev.v_min)} {_g(ev.v_max)}{tail}")
    out += ["", "[simulation]",
            f"t_end {_g(s.t_end)}",
            f"rel_tol {_g(s.rel_tol)}",
            f"sample_ms {_g(s.sample_ms)}",
            "", "[outputs]",
            f"dir {s.out_dir}",
            ""]
    return "\n".join(out)
