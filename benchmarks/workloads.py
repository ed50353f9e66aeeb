"""The benchmark's three workloads.

Each workload builds its inputs from the seed in its constructor (the
benchmark's set-up) and then runs rounds. A round times only the calls into
dradder's public functions, each group of them as one `Clock` section, then
checks every result. All calls go through module attributes at call time,
so the tracer's rebinding sees them.

All workloads use unit gate delays (`DelayTable.unit()`). Simulated
statistics of round 0 are digested so that a simulator-only speed-up can be
shown to leave them identical.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field


def round_seed(seed: int, r: int) -> int:
    """Inputs of round r depend only on the workload seed and r."""
    return seed * 1000 + r


def digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


class Ops:
    """Counts checked public calls and keeps the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, label: str, ok: bool, detail="") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{label}: {detail}")


@dataclass
class RoundResult:
    items: int = 0          # work items completed: transactions, vectors or gates
    wall: float = 0.0       # scaled seconds inside the round's timed sections
    raw_wall: float = 0.0   # the same, unscaled
    item_wall: float = 0.0  # scaled seconds of the sections that produce the items
    digest: str | None = None                 # round 0 only
    info: dict = field(default_factory=dict)  # round 0 only

    def time(self, clock, fn, *args, counts_items: bool = True, **kwargs):
        """Run fn as a timed section of this round and return its result."""
        result, raw, scaled = clock.time(fn, *args, **kwargs)
        self.raw_wall += raw
        self.wall += scaled
        if counts_items:
            self.item_wall += scaled
        return result


class Handshake:
    name = "handshake"
    rate_metric = "txn_per_s"
    numpy_share = 0.0  # of the host-speed reference, see clock.py
    # Closed loop, one client: each 4-phase cycle starts only after the
    # previous one has returned to zero.

    def __init__(self, dr, seed: int, smoke: bool):
        g = dr.generators
        self.dr, self.seed = dr, seed
        self.count = 8 if smoke else 25
        width = 8 if smoke else 32
        self.stage = g.gen_stage(g.gen_hybrid_rca(g.AdderSpec(width, 2, redundant_carry=True)))
        self.delays = dr.simulator.DelayTable.unit()
        self.first = self.vectors(0)

    def vectors(self, r: int) -> list[dict[str, int]]:
        rng = random.Random(round_seed(self.seed, r))
        names = [grp.name for grp in self.stage.inputs]
        return [{n: rng.getrandbits(1) for n in names} for _ in range(self.count)]

    def run_round(self, r: int, ops: Ops, clock) -> RoundResult:
        vectors = self.first if r == 0 else self.vectors(r)
        res = RoundResult()
        logs, summary = res.time(clock, self.dr.simulator.run_protocol,
                                 self.stage, self.delays, vectors)
        res.items = summary.completed
        ops.check("run_protocol",
                  summary.transactions == summary.completed == len(vectors)
                  and not summary.illegal_states and not summary.rtz_failures,
                  f"{summary}")
        if r == 0:
            res.digest = digest([[log.latency, log.events] for log in logs])
            lat = [log.latency for log in logs if log.latency is not None]
            res.info["sim_latency_mean_tu"] = sum(lat) / len(lat) if lat else 0.0
        return res


class Oracle:
    name = "oracle"
    rate_metric = "vectors_per_s"
    numpy_share = 0.5

    def __init__(self, dr, seed: int, smoke: bool):
        g = dr.generators
        self.dr, self.seed = dr, seed
        self.small = 4 if smoke else 8
        self.wide = 8 if smoke else 32
        self.count = 1_000 if smoke else 200_000
        self.exhaustive = [g.gen_hybrid_rca(g.AdderSpec(self.small, s, red))
                           for s, red in ((2, True), (0, False))]
        self.random = [g.gen_hybrid_rca(g.AdderSpec(self.wide, s, red))
                       for s, red in ((2, True), (0, False))]

    def run_round(self, r: int, ops: Ops, clock) -> RoundResult:
        calls = [(n, self.small, {}, 2 ** (2 * self.small + 1)) for n in self.exhaustive]
        calls += [(n, self.wide, {"mode": "random", "count": self.count,
                                  "seed": round_seed(self.seed, r)}, self.count)
                  for n in self.random]
        res = RoundResult()
        for n, width, kwargs, expected in calls:
            out = res.time(clock, self.dr.verification.exhaustive_verify, n, width, **kwargs)
            res.items += out.checked
            ops.check(f"exhaustive_verify {n.name} {kwargs.get('mode', 'exhaustive')}",
                      out.passed and out.checked == expected,
                      f"passed={out.passed} checked={out.checked} "
                      f"counterexample={out.first_counterexample}")
        return res

    def probe(self) -> tuple[bool, str]:
        """Random mode at width 64, attempted once outside the timed rounds."""
        g = self.dr.generators
        try:
            out = self.dr.verification.exhaustive_verify(
                g.gen_hybrid_rca(g.AdderSpec(64, 2, True)), 64, mode="random",
                count=1_000, seed=self.seed)
        except Exception as exc:  # the probe records whatever the library raises
            return False, f"{type(exc).__name__}: {exc}"
        return out.passed, f"passed={out.passed} checked={out.checked}"


class Explore:
    name = "explore"
    rate_metric = "gates_per_s"
    numpy_share = 0.5
    # Each generated netlist is used once, so any per-netlist precompute
    # pays its full cost here.

    def __init__(self, dr, seed: int, smoke: bool):
        g = dr.generators
        self.dr, self.seed = dr, seed
        self.widths = (8, 16) if smoke else (32, 128, 1024)
        self.trials = 8 if smoke else 64
        self.delays = dr.simulator.DelayTable.unit()
        self.blocks = [g.gen_safa(), g.gen_dafa(True), g.gen_dafa(False)]

    def _design_point(self, width: int, s: int):
        g = self.dr.generators
        stage = g.gen_stage(g.gen_hybrid_rca(g.AdderSpec(width, s, True)))
        return len(stage.gates), stage.validate(), self.dr.timing.critical_path(stage, self.delays)

    def _survey(self, r: int):
        sweeps = [self.dr.timing.sweep_hybrid(w, self.delays) for w in self.widths]
        reports = [self.dr.simulator.classify_indication(fb, self.delays, self.trials,
                                                         seed=round_seed(self.seed, r))
                   for fb in self.blocks]
        return sweeps, reports

    def run_round(self, r: int, ops: Ops, clock) -> RoundResult:
        res = RoundResult()
        sta: dict[int, dict[int, int]] = {}
        paths = []
        for width in self.widths:
            sta[width] = {}
            for s in (0, 2, width):
                gates, problems, cp = res.time(clock, self._design_point, width, s)
                res.items += gates
                ops.check(f"validate w={width} s={s}", not problems, problems[:3])
                expect = self.dr.timing.hybrid_latency(width, s, self.delays)
                ops.check(f"critical_path w={width} s={s}", cp.value == expect,
                          f"{cp.value} != hybrid_latency {expect}")
                sta[width][s] = cp.value
                paths.append([width, s, cp.value, list(cp.path)])
        sweeps, reports = res.time(clock, self._survey, r, counts_items=False)
        for width, sweep in zip(self.widths, sweeps):
            best = min(sta[width].values())
            ours = {s for s, v in sta[width].items() if v == best}
            ops.check(f"sweep_hybrid w={width}",
                      ours == set(sweep.argmin) & set(sta[width])
                      and best == min(v for _, v in sweep.curve),
                      f"sta argmin {sorted(ours)} vs sweep {sweep.argmin}")
        for fb, rep in zip(self.blocks, reports):
            ops.check(f"classify_indication {fb.name}", rep.classification == "early",
                      rep.classification)
        if r == 0:
            res.digest = digest(paths)
        return res


WORKLOADS = {w.name: w for w in (Handshake, Oracle, Explore)}
