"""Scenarios: the ``Event`` and ``Scenario`` types, file parsing and serialization.

``Scenario`` bundles everything one simulation run needs (per-unit network,
communication graph, controller parameters, timeline of ``Event``s, solver
and output settings) and validates it on construction. These types and the
parser depend on numpy only, so parsing a scenario never loads scipy; the
integrator loads with ``mgshare.simulate``.

The format is sectioned, line-oriented plain text chosen so the tables can
be transcribed by hand from a specification sheet: ``[section]`` headers
(``[lines]``, ``[connectors]`` and ``[loads]`` may be annotated ``unit=``),
``#`` comments, and whitespace-separated fields. Each section's layout is
declared once, in the tables ``_ROWS``, ``_EVENTS``, ``_KEYS`` and
``_UNITS`` below; the parser, ``serialize_scenario`` and ``Event``'s field
check all read them. Every number must be finite. The parser converts
``unit=ohm`` and ``unit=va`` tables to per unit of ``[bases]`` as it reads them.

Two scenarios ship with the package: ``lv5`` (five-inverter low-voltage
ring) and ``mv9-template`` (nine-bus medium-voltage skeleton with
placeholder network data to be replaced by the user).
"""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import astuple, dataclass, fields
from pathlib import Path

import numpy as np

from .controller import STATE, IbrParams
from .errors import DisconnectedGraphError, NetworkDataError, ScenarioFormatError
from .graph import CommGraph, Record
from .network import Bases, Connector, Line, Load, NetworkData

__all__ = ["Event", "Scenario", "parse_scenario", "parse_scenario_text",
           "serialize_scenario", "bundled_scenario_path", "BUNDLED"]

BUNDLED = ("lv5", "mv9-template")
REL_TOL_FLOOR = 100 * np.finfo(float).eps    # solve_ivp's floor on rtol


def _num(tok, lineno, what):
    try:
        x = float(tok)
    except ValueError:
        raise ScenarioFormatError(f"line {lineno}: {what} must be a number, got {tok!r}") from None
    if not math.isfinite(x):
        raise ScenarioFormatError(f"line {lineno}: {what} must be a finite number, got {tok!r}")
    return x


def _int(tok, lineno, what):
    try:
        return int(tok)
    except ValueError:
        raise ScenarioFormatError(f"line {lineno}: {what} must be an integer, got {tok!r}") from None


def _bus_kind(tok, lineno, what):
    if tok not in ("load", "junction", "main"):
        raise ScenarioFormatError(f"line {lineno}: {what} must be load|junction|main, got {tok!r}")
    return tok


# Each row section's fields in order, as (name, reader), named after what they fill:
# the Line, Connector and Load fields, the IbrParams arrays, a graph edge. A last
# field given as (name, reader, default) may be left off a row.
_ROWS = {
    "buses": (("id", _int), ("kind", _bus_kind)),
    "lines": (("from_bus", _int), ("to_bus", _int), ("r", _num), ("x", _num)),
    "connectors": (("ibr", _int), ("bus", _int), ("r", _num), ("x", _num)),
    "loads": (("bus", _int), ("s", _num), ("pf", _num)),
    "ibrs": (("id", _int), ("s_rated", _num), ("v_min", _num), ("v_max", _num)),
    "graph": (("i", _int), ("j", _int), ("weight", _num, 1.0)),
}

# Each event kind's fields after 't kind', in the same form, named after Event's fields.
_EVENTS = {
    "activate": (),
    "scale-load": (("bus", _int), ("factor", _num)),
    "set-limits": (("v_min", _num), ("v_max", _num), ("ibr", _int, None)),
}

# Each 'key value [unit]' section's keys in file order, with the unit a [bases] entry may
# state. Keys but mode and dir are named after the Bases, IbrParams and Scenario fields
# they fill.
_KEYS = {
    "bases": {"s_base": "VA", "v_base": "V", "f_nom": "Hz"},
    "controller-gains": dict.fromkeys(["mode", "m_omega", "m_v", "tau_omega", "tau_v",
                                       "tau_p", "tau_d", "beta", "k"]),
    "simulation": dict.fromkeys(["t_end", "rel_tol", "sample_ms"]),
    "outputs": dict.fromkeys(["dir"]),
}
_TEXT_KEYS = {"mode", "dir"}                                # the others are numbers
_OPTIONAL_KEYS = {"mode", "rel_tol", "sample_ms", "dir"}    # Scenario has defaults for these

# The sections that take 'unit=', and its values, the default first.
_UNITS = {"lines": ("ohm", "pu"), "connectors": ("ohm", "pu"), "loads": ("pu", "va")}


@dataclass(frozen=True)
class Event:
    """Timeline event; ``kind`` is 'activate', 'scale-load', or 'set-limits'.

    ``scale-load`` carries (bus, factor) with factor >= 0 relative to the
    nominal load; ``set-limits`` carries (v_min, v_max) and an optional
    1-based ``ibr`` (None applies to all units). A kind's fields are
    required, and the other kinds' fields must stay None.
    """

    time: float
    kind: str
    bus: int | None = None
    factor: float | None = None
    v_min: float | None = None
    v_max: float | None = None
    ibr: int | None = None

    def __post_init__(self):
        if self.kind not in _EVENTS:
            raise ScenarioFormatError(f"unknown event kind {self.kind!r}")
        at = f"event at t={self.time}"
        takes = {f[0]: len(f) == 2 for f in _EVENTS[self.kind]}   # field -> required
        for f in fields(self)[2:]:
            given = getattr(self, f.name) is not None
            if given and f.name not in takes:
                raise ScenarioFormatError(f"{at}: {self.kind} takes no {f.name}")
            if not given and takes.get(f.name):
                raise ScenarioFormatError(f"{at}: {self.kind} needs {f.name}")
        if not 0 <= self.time < np.inf:
            raise ScenarioFormatError(f"{at}: time must be finite and nonnegative")
        if self.kind == "scale-load" and not 0 <= self.factor < np.inf:
            raise ScenarioFormatError(
                f"{at}: scale-load factor must be finite and nonnegative, got {self.factor}")
        if self.kind == "set-limits" and not self.v_min < self.v_max:
            raise ScenarioFormatError(
                f"{at}: set-limits needs v_min < v_max, got {self.v_min} and {self.v_max}")


@dataclass(frozen=True, eq=False)
class Scenario(Record):
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
    initial_state: np.ndarray | None = None   # full state for initial_mode, laid out as controller.STATE
    name: str = "scenario"
    out_dir: str = "out"

    def __post_init__(self):
        if self.initial_mode not in ("droop", "proposed"):
            raise ScenarioFormatError(f"unknown mode {self.initial_mode!r}")
        for name in ("t_end", "sample_ms", "rel_tol"):
            if not (0 < getattr(self, name) < np.inf):
                raise ScenarioFormatError(f"{name} must be positive and finite")
        if self.rel_tol < REL_TOL_FLOOR:
            raise ScenarioFormatError(f"rel_tol must be at least {REL_TOL_FLOOR:.3g}, got {self.rel_tol}")
        times = [e.time for e in self.events]
        if not all(t1 < t2 for t1, t2 in zip(times, times[1:])):
            raise ScenarioFormatError("event times must be strictly increasing")
        if times and not times[-1] <= self.t_end:    # Event holds each time >= 0
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
        if self.initial_theta is not None and self.initial_state is not None:
            raise ScenarioFormatError("set initial_theta or initial_state, not both: "
                                      "initial_state holds the angles too")
        for name, size, what in (("initial_theta", n, "one angle per inverter"),
                                 ("initial_state", STATE[self.initial_mode].dim(n),
                                  f"the {self.initial_mode}-mode state")):
            value = getattr(self, name)
            if value is None:
                continue
            x = np.array(value, dtype=float)
            if x.shape != (size,) or not np.all(np.isfinite(x)):
                raise ScenarioFormatError(
                    f"{name} needs {size} finite values ({what}), got shape {x.shape}")
            object.__setattr__(self, name, x)
        super().__post_init__()


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
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioFormatError(f"cannot read scenario file {path}: {exc}") from exc
    return parse_scenario_text(text, name=p.stem)


def _tokenize(text: str):
    """Yield (lineno, section, unit, tokens); each section header may appear once."""
    section = unit = None
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
            if section not in _ROWS and section not in _KEYS and section != "events":
                raise ScenarioFormatError(f"line {lineno}: unknown section [{section}]")
            if section in seen:
                raise ScenarioFormatError(f"line {lineno}: repeated section [{section}]")
            seen.add(section)
            units = _UNITS.get(section, ())
            unit = units[0] if units else None
            for tok in rest.split():
                unit = tok[5:] if tok.startswith("unit=") else None
                if unit not in units:
                    takes = " or ".join(f"unit={u}" for u in units) or "no unit"
                    raise ScenarioFormatError(
                        f"line {lineno}: [{section}] takes {takes}, got {tok!r}")
            continue
        if section is None:
            raise ScenarioFormatError(f"line {lineno}: data before any section header")
        yield lineno, section, unit, line.split()


def _read_row(layout, toks, lineno, what, lead=()):
    """Read a row's tokens by its fields; ``lead`` are the tokens shown before them."""
    n = len(toks)
    if n != len(layout) and (n > len(layout) or len(layout[n]) == 2):
        shape = " ".join([*lead, *(f[0] if len(f) == 2 else f"[{f[0]}]" for f in layout)])
        raise ScenarioFormatError(f"line {lineno}: {what} rows are '{shape}'")
    return [f[1](tok, lineno, f[0]) for f, tok in zip(layout, toks)] + [f[2] for f in layout[n:]]


def _read_entry(section, toks, lineno):
    keys = _KEYS[section]
    if len(toks) not in (2, 3) or toks[0] not in keys:
        raise ScenarioFormatError(f"line {lineno}: {section} entries are 'key value' with key in "
                                  f"{sorted(keys)}, got {' '.join(toks)!r}")
    key, value = toks[:2]
    if len(toks) == 3 and toks[2] != keys[key]:
        takes = f"unit {keys[key]}" if keys[key] else "no unit"
        raise ScenarioFormatError(f"line {lineno}: {key} takes {takes}, got {toks[2]!r}")
    return key, value if key in _TEXT_KEYS else _num(value, lineno, key)


def _read_event(toks, lineno) -> Event:
    time = _num(toks[0], lineno, "event time")
    kind = toks[1] if len(toks) > 1 else ""
    if kind not in _EVENTS:
        raise ScenarioFormatError(f"line {lineno}: unknown event kind {kind!r}")
    layout = _EVENTS[kind]
    args = _read_row(layout, toks[2:], lineno, kind, ("t", kind))
    return Event(time, kind, **{f[0]: a for f, a in zip(layout, args)})


def parse_scenario_text(text: str, name: str = "scenario") -> Scenario:
    rows: dict[str, list] = {section: [] for section in _ROWS}
    kv: dict[str, dict] = {section: {} for section in _KEYS}
    units: dict[str, str] = {}
    events: list[Event] = []
    for lineno, section, unit, toks in _tokenize(text):
        if section in _KEYS:
            key, value = _read_entry(section, toks, lineno)
            if key in kv[section]:
                raise ScenarioFormatError(f"line {lineno}: repeated key {key} in [{section}]")
            kv[section][key] = value
        elif section == "events":
            events.append(_read_event(toks, lineno))
        else:
            rows[section].append(_read_row(_ROWS[section], toks, lineno, section))
            units[section] = unit

    semantic = [f"[{section}] is missing {key}" for section, keys in _KEYS.items()
                for key in keys if key not in kv[section] and key not in _OPTIONAL_KEYS]
    semantic += [f"[{section}] section is empty" for section in ("buses", "ibrs", "graph")
                 if not rows[section]]
    n_bus, n = len(rows["buses"]), len(rows["ibrs"])
    if sorted(r[0] for r in rows["buses"]) != list(range(1, n_bus + 1)):
        semantic.append("bus ids must be 1..n_bus without duplicates or gaps")
    if sorted(r[0] for r in rows["ibrs"]) != list(range(1, n + 1)):
        semantic.append("ibr ids must be 1..n without duplicates or gaps")

    for i, j, *_ in rows["lines"]:
        for b in (i, j):
            if not (1 <= b <= n_bus):
                semantic.append(f"line ({i},{j}) references unknown bus {b}")
    for ibr, bus, *_ in rows["connectors"]:
        if not (1 <= bus <= n_bus):
            semantic.append(f"connector of IBR {ibr} references unknown bus {bus}")
    for bus, *_ in rows["loads"]:
        if not (1 <= bus <= n_bus):
            semantic.append(f"load references unknown bus {bus}")
    edges = set()
    for i, j, _ in rows["graph"]:
        for b in (i, j):
            if not (1 <= b <= n):
                semantic.append(f"graph edge ({i},{j}) references unknown IBR {b}")
        i, j = sorted((i, j))
        if (i, j) in edges:
            semantic.append(f"graph edge ({i},{j}) listed twice")
        edges.add((i, j))
    for ev in events:
        if ev.kind == "scale-load" and not (1 <= ev.bus <= n_bus):
            semantic.append(f"event at t={ev.time} references unknown bus {ev.bus}")
        if ev.kind == "set-limits" and ev.ibr is not None and not (1 <= ev.ibr <= n):
            semantic.append(f"event at t={ev.time} references unknown IBR {ev.ibr}")
    if semantic:
        raise ScenarioFormatError(
            "scenario validation failed:\n  - " + "\n  - ".join(semantic)
        )

    if len({units[s] for s in ("lines", "connectors") if s in units}) > 1:
        raise ScenarioFormatError("lines and connectors must use the same impedance unit")
    gains = kv["controller-gains"]
    initial_mode = gains.pop("mode", "droop")
    _, s_rated, v_min, v_max = zip(*sorted(rows["ibrs"]))
    try:
        bases = Bases(**kv["bases"])
        # the tables' bases: ohm and VA convert to per unit here; 1.0 divides exactly
        z_base = bases.z_base if units.get("lines", units.get("connectors")) == "ohm" else 1.0
        s_base = bases.s_base if units.get("loads") == "va" else 1.0
        data = NetworkData(
            bases=bases,
            n_bus=n_bus,
            lines=tuple(Line(i, j, r / z_base, x / z_base) for i, j, r, x in rows["lines"]),
            connectors=tuple(Connector(i, b, r / z_base, x / z_base)
                             for i, b, r, x in sorted(rows["connectors"])),
            loads=tuple(Load(b, s / s_base, pf) for b, s, pf in rows["loads"]),
        )
        graph = CommGraph.from_edges(n, [(i - 1, j - 1, w) for i, j, w in rows["graph"]])
        params = IbrParams(s_rated=s_rated, v_min=v_min, v_max=v_max, **gains)
    except (ValueError, NetworkDataError, DisconnectedGraphError) as exc:
        raise ScenarioFormatError(str(exc)) from exc

    return Scenario(
        network=data,
        graph=graph,
        params=params,
        events=tuple(events),
        initial_mode=initial_mode,
        name=name,
        out_dir=kv["outputs"].get("dir", "out"),
        **kv["simulation"],
    )


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
    net = s.network
    load_buses = {ld.bus for ld in net.loads}
    gains = {**vars(p), "mode": s.initial_mode, "m_omega": p.m_omega[0], "m_v": p.m_v[0]}

    def row(layout, values, lead=()):
        """Join a row's tokens; a None value (an omitted optional field) writes nothing."""
        cells = (_g(v) if f[1] is _num else str(v)
                 for f, v in zip(layout, values) if v is not None)
        return " ".join([*lead, *cells])

    def entries(section, values):
        out = []
        for key, unit in _KEYS[section].items():
            value = values[key] if key in _TEXT_KEYS else _g(values[key])
            out.append(f"{key} {value} {unit}" if unit else f"{key} {value}")
        return out

    body = {    # in file order
        "bases": entries("bases", vars(net.bases)),
        "buses": [row(_ROWS["buses"], (i, "load" if i in load_buses else "junction"))
                  for i in range(1, net.n_bus + 1)],
        "lines": [row(_ROWS["lines"], astuple(ln)) for ln in net.lines],
        "connectors": [row(_ROWS["connectors"], astuple(c)) for c in net.connectors],
        "loads": [row(_ROWS["loads"], astuple(ld)) for ld in net.loads],
        "ibrs": [row(_ROWS["ibrs"], (i + 1, p.s_rated[i], p.v_min[i], p.v_max[i]))
                 for i in range(p.n)],
        "graph": [row(_ROWS["graph"], (i + 1, j + 1, w)) for i, j, w in s.graph.edges],
        "controller-gains": entries("controller-gains", gains),
        "events": [row(_EVENTS[ev.kind], [getattr(ev, f[0]) for f in _EVENTS[ev.kind]],
                       lead=(_g(ev.time), ev.kind)) for ev in s.events],
        "simulation": entries("simulation", vars(s)),
        "outputs": entries("outputs", {"dir": s.out_dir}),
    }
    return f"# {s.name}\n" + "\n\n".join(
        "\n".join([f"[{section}]" + (" unit=pu" if section in _UNITS else ""), *lines])
        for section, lines in body.items()) + "\n"
