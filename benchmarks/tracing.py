"""Span recording around dradder's public functions, from outside the library.

`Tracer` rebinds module attributes and `Netlist` methods to wrappers that
record one span per call: name, start, end, parent span and the benchmark
round it belongs to. Spans stay in memory; `chrome_trace` writes them out at
the end in the Chrome trace-event format (viewable in Perfetto).

The tool is single-threaded and has no queues, so spans nest strictly and a
span's self time is its duration minus the summed durations of its direct
children. No layer has waiting time.
"""

from __future__ import annotations

import functools
import statistics
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    round: int
    count: int = 0  # work done by the call: events, gates or vectors

    @property
    def dur(self) -> float:
        return self.end - self.start


def _events(args, kwargs, result) -> int:
    return result.events


def _gates(args, kwargs, result) -> int:
    return len(args[0].gates)


def _checked(args, kwargs, result) -> int:
    return result.checked


def trace_points(dr):
    """(owner, attribute, span name, counter) for every wrapped binding.

    `verification` imports `simulate_transaction` under its own name, so
    that binding is wrapped too; both record the same span name.
    """
    gen, net, tim, sim, ver = (dr.generators, dr.netlist.Netlist, dr.timing,
                               dr.simulator, dr.verification)
    return [
        (gen, "gen_hybrid_rca", "generators.gen_hybrid_rca", None),
        (gen, "gen_stage", "generators.gen_stage", None),
        (net, "validate", "netlist.validate", None),
        (net, "topo_gates", "netlist.topo_gates", None),
        (tim, "critical_path", "timing.critical_path", _gates),
        (sim, "run_protocol", "simulator.run_protocol", None),
        (sim, "simulate_transaction", "simulator.simulate_transaction", _events),
        (ver, "simulate_transaction", "simulator.simulate_transaction", _events),
        (sim, "classify_indication", "simulator.classify_indication", None),
        (ver, "steady_set_levels", "verification.steady_set_levels", None),
        (ver, "steady_reset_levels", "verification.steady_reset_levels", None),
        (ver, "exhaustive_verify", "verification.exhaustive_verify", _checked),
    ]


class Tracer:
    """Records spans while installed; `remove` restores the original bindings."""

    def __init__(self, dr):
        self.spans: list[Span | None] = []
        self.round = -1
        self._stack: list[int] = []
        self._patches = [(owner, attr, getattr(owner, attr),
                          self._wrap(getattr(owner, attr), name, counter))
                         for owner, attr, name, counter in trace_points(dr)]

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named `name` and return its result."""
        return self._wrap(fn, name, None)(*args, **kwargs)

    def _wrap(self, fn, name: str, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[idx] = Span(name, start, end, parent, self.round)
            if counter is not None:
                self.spans[idx].count = counter(args, kwargs, result)
            return result

        return wrapper

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.dur
        return [s.dur - c for s, c in zip(self.spans, child)]

    def chrome_trace(self) -> list[dict]:
        t0 = self.spans[0].start if self.spans else 0.0
        return [{"name": s.name, "ph": "X", "pid": 0, "tid": 0,
                 "ts": (s.start - t0) * 1e6, "dur": s.dur * 1e6,
                 "args": {"round": s.round, "count": s.count}}
                for s in self.spans]


SELF_TIMED = (
    "generators.gen_hybrid_rca", "generators.gen_stage",
    "netlist.validate", "netlist.topo_gates",
    "timing.critical_path",
    "simulator.simulate_transaction", "simulator.run_protocol",
    "simulator.classify_indication",
    "verification.steady_set_levels", "verification.steady_reset_levels",
    "verification.exhaustive_verify",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer, scale: dict[int, float]) -> dict[str, float]:
    """Per-layer metrics over the traced rounds.

    `scale` maps each traced round that completed to its host-speed factor,
    by which every span time of that round is multiplied. Self times, call
    and event counts are medians per round, so they do not depend on how
    many rounds fit in the run; rates and percentiles pool all spans. A
    layer the workload never calls reports 0.
    """
    rows = [(i, s, s.dur * scale[s.round], st * scale[s.round])
            for i, (s, st) in enumerate(zip(tracer.spans, tracer.self_times()))
            if s.round in scale]
    per_round: dict[str, dict[int, float]] = {}

    def add(key: str, rnd: int, value: float) -> None:
        per_round.setdefault(key, dict.fromkeys(scale, 0.0))[rnd] += value

    for _, s, _, st in rows:
        add(f"{s.name}.self_s", s.round, st)
        add(f"{s.name}.calls", s.round, 1)
        add(f"{s.name}.count", s.round, s.count)

    def pooled(name: str, parents=None) -> tuple[float, float, list[float]]:
        picked = [(s.count, d) for _, s, d, _ in rows
                  if s.name == name and (parents is None or s.parent in parents)]
        return (sum(c for c, _ in picked), sum(d for _, d in picked),
                [d for _, d in picked])

    def median_of(key: str) -> float:
        vals = per_round.get(key)
        return statistics.median(vals.values()) if vals else 0.0

    sim_events, sim_time, sim_durs = pooled("simulator.simulate_transaction")
    sim_ms = [d * 1e3 for d in sim_durs]
    if len(sim_ms) >= 2:
        q = statistics.quantiles(sim_ms, n=100, method="inclusive")
        p50, p99 = q[49], q[98]
    else:
        p50 = p99 = sim_ms[0] if sim_ms else 0.0
    verify_ids = {i for i, s, _, _ in rows if s.name == "verification.exhaustive_verify"}
    _, crosscheck, _ = pooled("simulator.simulate_transaction", verify_ids)
    checked, verify_time, _ = pooled("verification.exhaustive_verify")
    sta_gates, sta_time, _ = pooled("timing.critical_path")

    out = {f"{n}.self_s": median_of(f"{n}.self_s") for n in SELF_TIMED}
    out.update({
        "netlist.topo_gates.calls": median_of("netlist.topo_gates.calls"),
        "timing.critical_path.gates_per_s": _ratio(sta_gates, sta_time),
        "simulator.simulate_transaction.calls": median_of("simulator.simulate_transaction.calls"),
        "simulator.simulate_transaction.p50_ms": p50,
        "simulator.simulate_transaction.p99_ms": p99,
        "simulator.events": median_of("simulator.simulate_transaction.count"),
        "simulator.events_per_s": _ratio(sim_events, sim_time),
        "verification.crosscheck_share": _ratio(crosscheck, verify_time),
        "verification.vectors_per_s": _ratio(checked, verify_time - crosscheck),
    })
    return out
