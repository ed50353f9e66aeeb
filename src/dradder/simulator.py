"""Deterministic event-driven simulation under a per-gate-kind delay table.

The model is transport delay with integer time units: an input change
re-evaluates the gates it drives, each by its `netlist.GATE_AT` entry over
the levels at its input positions, and a gate schedules its new output value
one gate delay later. A drive is queued only when it differs from its net's
pending value, and a net's drives come in time order, so each queued event
changes its net. Every gate kind is positive unate and outputs 0 from
all-zero inputs, so between events a gate's pending output equals its
function of the current levels and that output; an input changing to the
value the output already has cannot move it, and that evaluation is
skipped. The skip holds for any netlist, cyclic ones included, and under
any delay table. The generated circuits are monotone per handshake phase,
so no inertial filtering is needed; a monitor asserts the monotonicity
instead.

A run carries `lanes` transactions, lane j at bit j of every level and
pending value, as the steady-state walk does. An event is the int
`net << lanes | level`, the net's new level on every lane (`net << 1 |
value` on one lane), and applying it stores that level. Lane j replays its
one-lane run exactly: where its input did not change, the pending value
already equals the gate's function, and where `held == value` every lane
that changed moved to the output's own value. The monitors are lane masks.
`run_protocol` runs its vectors as the lanes of one run per chunk, counting
each lane's events from net levels and its latency from output-rail events.

Nets are the structure pass's ids, as STA and the steady walk number them:
the input nets first, then gate k's output at base + k. Each event reads
its net's entries in `Netlist._fanout`, built once per netlist beside the
structure pass: the gates that read the net and its dual-rail partner.
Pending events wait in one bucket per time, in drive order, under a heap
of the distinct times; a zero-delay drive joins the bucket being drained.
The stage environment drives and reads ports by the ids of their rails,
and a transaction applies its inputs in time order. A log, the one record
of a run, keeps its events as one flat trace with a parallel list of
times, so it holds no per-event object; it shares the structure pass's
`ids` and the netlist's output groups, and derives its named and timed
readings (`transitions`, `set_levels`, `output_valid`, `latency`) on first read.
"""

from __future__ import annotations

import heapq
import json
import random
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import compress
from operator import and_, itemgetter, or_, xor
from typing import Sequence, TextIO

from .netlist import GateKind, Netlist, PortGroup

DEFAULT_SEED = 1011
DEFAULT_MAX_EVENTS = 10_000_000


class SimulationLimitError(RuntimeError):
    """Event budget exceeded; indicates a runaway oscillation."""


@dataclass
class DelayTable:
    """Propagation delay per gate kind, in integer time units."""

    delays: dict[GateKind, int]
    time_unit: str = "ps"

    def __post_init__(self):
        for kind in GateKind:
            if kind not in self.delays:
                raise ValueError(f"delay table is missing {kind.value}")
            d = self.delays[kind]
            if not isinstance(d, int) or isinstance(d, bool):
                raise ValueError(f"delay for {kind.value} must be an integer, got {d!r}")
            if d < 0 or (d < 1 and kind is not GateKind.BUF):
                raise ValueError(f"bad delay for {kind.value}: {d}")
        if not isinstance(self.time_unit, str):
            raise ValueError(f"time_unit must be a string, got {self.time_unit!r}")

    def __getitem__(self, kind: GateKind) -> int:
        return self.delays[kind]

    @classmethod
    def unit(cls) -> "DelayTable":
        """All gates one time unit, buffers zero."""
        return cls({k: (0 if k is GateKind.BUF else 1) for k in GateKind})

    @classmethod
    def from_mapping(cls, doc: dict) -> "DelayTable":
        unit = doc.get("time_unit", "ps")
        delays = {GateKind(k): v for k, v in doc.items() if k != "time_unit"}
        return cls(delays, unit)

    def to_mapping(self) -> dict:
        doc: dict = {k.value: v for k, v in self.delays.items()}
        doc["time_unit"] = self.time_unit
        return doc

    @classmethod
    def load(cls, path) -> "DelayTable":
        with open(path) as fh:
            return cls.from_mapping(json.load(fh))

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_mapping(), fh, indent=2)
            fh.write("\n")


@dataclass
class TransactionLog:
    """Record of one 4-phase data transaction on a netlist, on `lanes` lanes.

    Every event the transaction applied is one int, `net << lanes | level`,
    in `trace`, in the order it applied; `trace_times` holds its time. The
    first `set_events` of them make up the set phase. The cached properties
    are derived from them on first read. The monitors are lane masks, and
    `illegal_seen`, `monotonic` and `rtz_complete` read them over every lane."""

    input_apply: dict[str, int]
    illegal: int  # lanes on which both rails of a pair were high at once
    nonmonotone: int  # lanes on which a net fell in the set phase or rose in the reset phase
    end_high: dict[int, int]  # net id -> the lanes it was still high on after the reset phase
    events: int
    set_end: int
    ids: dict[str, int]  # every net's id: the netlist's `_structure.ids` itself
    outputs: tuple[PortGroup, ...]  # the netlist's output groups themselves
    trace: list[int]  # net id << lanes | new level, one per event, in applied order
    trace_times: list[int]  # the time of each event in `trace`
    set_events: int  # how many of `trace` applied by set_end
    set_net_levels: list[int]  # every net's level at set_end, by net id
    lanes: int = 1

    @property
    def names(self) -> tuple[str, ...]:
        """Net names by net id."""
        return tuple(self.ids)

    @property
    def illegal_seen(self) -> bool:
        return bool(self.illegal)

    @property
    def monotonic(self) -> bool:
        return not self.nonmonotone

    @property
    def unreturned(self) -> int:  # lanes on which a net was still high after the reset phase
        return reduce(or_, self.end_high.values(), 0)

    @property
    def rtz_complete(self) -> bool:
        return not self.end_high

    @cached_property
    def transitions(self) -> dict[str, list[tuple[int, int]]]:
        """(time, level) changes of every net that switched, by net name, in
        order of each net's first transition."""
        lanes, every = self.lanes, (1 << self.lanes) - 1
        by_net: dict[int, list[tuple[int, int]]] = {}
        for ev, time in zip(self.trace, self.trace_times):
            by_net.setdefault(ev >> lanes, []).append((time, ev & every))
        names = self.names
        return {names[k]: trans for k, trans in by_net.items()}

    @cached_property
    def set_levels(self) -> dict[str, int]:
        """Level at set_end of every net that had switched by then, by net name."""
        names, levels, lanes = self.names, self.set_net_levels, self.lanes
        first = dict.fromkeys(ev >> lanes for ev in self.trace[:self.set_events])
        return {names[k]: levels[k] for k in first}

    @cached_property
    def output_valid(self) -> dict[str, int | None]:
        """Per output group, its rails' last set-phase time (0 if none), or `None`
        unless its set-end levels are a valid codeword on every lane: on more
        lanes, the latest time over the lanes, so `latency` is the slowest lane's."""
        ids, levels, lanes, every = self.ids, self.set_net_levels, self.lanes, (1 << self.lanes) - 1
        last = {ev >> lanes: t for ev, t in zip(self.trace[:self.set_events], self.trace_times)}
        valid: dict[str, int | None] = {}
        for grp in self.outputs:
            rails = [ids[rail] for rail in grp.rails()]
            code = reduce(xor, [levels[k] for k in rails])  # rail 1, or rail 1 ^ rail 0
            valid[grp.name] = max(last.get(k, 0) for k in rails) if code == every else None
        return valid

    @cached_property
    def latency(self) -> int | None:
        """Latest `output_valid` minus earliest apply, or `None` if either is empty or any is `None`."""
        valid = self.output_valid.values()
        if not self.input_apply or not valid or None in valid:
            return None
        return max(valid) - min(self.input_apply.values())


class _Sim:
    """Simulator core on `lanes` int lanes, lane j at bit j: a time-bucketed
    event queue over the structure pass's net ids, plus the 4-phase stage
    environment that drives and reads its ports. An event is
    `net << lanes | level`, the net's new level on every lane. The monitors
    are lane masks: `illegal` holds the lanes on which both rails of a port
    pair were high at once, `nonmonotone` those on which an event moved a
    net away from `goal`, the level every net moves toward in the phase
    being run: all lanes high in the set phase, 0 in the reset phase."""

    def __init__(self, netlist: Netlist, delays: DelayTable, lanes: int = 1):
        self.fanout = netlist._fanout
        self.ids = ids = netlist._structure.ids
        self.delays = delays.delays
        self.lanes, self.every = lanes, (1 << lanes) - 1
        self.levels = [0] * len(ids)
        self.pending = [0] * len(ids)
        self.buckets: dict[int, list[int]] = {}  # time -> [net id << lanes | value]
        self.times: list[int] = []  # heap of the bucket times
        self.now = 0
        self.events = 0
        self.trace: list[int] = []  # every applied event, net id << lanes | value
        self.trace_times: list[int] = []  # the time of each
        self.illegal = self.nonmonotone = 0  # lane masks of the monitors
        self.goal = self.every
        self.ackin = None if netlist.ackin is None else ids[netlist.ackin]
        if self.ackin is not None:
            self.drive(self.ackin, self.every, 0)

    def drive(self, k: int, value: int, time: int) -> None:
        """Queue net `k` to change to `value` at `time`, unless that is already
        its pending value. A net's drives must come in time order: `run`
        applies every event it pops without comparing it with the net's level."""
        if self.pending[k] != value:
            bucket = self.buckets.get(time)
            if bucket is None:
                bucket = self.buckets[time] = []
                heapq.heappush(self.times, time)
            bucket.append(k << self.lanes | value)
            self.pending[k] = value

    def run(self) -> int:
        """Process events until the queue is empty; returns the last event time."""
        levels, pending, buckets, times = self.levels, self.pending, self.buckets, self.times
        trace, trace_times = self.trace, self.trace_times
        (fanout, partner), delays = self.fanout, self.delays
        pop, push = heapq.heappop, heapq.heappush
        lanes, every, goal = self.lanes, self.every, self.goal
        illegal, nonmonotone = self.illegal, self.nonmonotone
        events, max_events, now = self.events, DEFAULT_MAX_EVENTS, self.now
        while times:
            time = pop(times)
            bucket = buckets[time]
            for ev in bucket:  # also visits what is appended on the way
                net, value = ev >> lanes, ev & every
                events += 1
                if events > max_events:
                    raise SimulationLimitError(
                        f"{events} events exceed the {max_events} budget")
                now = time
                if value != goal:  # the lanes that changed away from the goal
                    nonmonotone |= (levels[net] ^ value) & (value ^ goal)
                levels[net] = value
                trace.append(ev)
                trace_times.append(time)
                if value:
                    other = partner[net]
                    if other is not None and (both := value & levels[other]):
                        illegal |= both
                for fn, pos, out, kind in fanout[net]:
                    held = pending[out]
                    if held == value:
                        continue  # moved to the output's own value: a unate gate stays
                    new = fn(levels, pos, held)
                    if new != held:
                        due = time + delays[kind]
                        later = buckets.get(due)
                        if later is None:
                            later = buckets[due] = []
                            push(times, due)
                        later.append(out << lanes | new)
                        pending[out] = new
            del buckets[time]
        self.events, self.now = events, now
        self.illegal, self.nonmonotone = illegal, nonmonotone
        return now

    # -- the stage environment ---------------------------------------------

    def put(self, grp, bits: int | None, time: int) -> None:
        """Drive the group's codeword for `bits`, a level per lane, at `time`;
        `None` drives the spacer."""
        self.drive(self.ids[grp.rail1], 0 if bits is None else bits, time)
        if grp.rail0 is not None:
            self.drive(self.ids[grp.rail0], 0 if bits is None else self.every ^ bits, time)


def simulate_transaction(
    netlist: Netlist,
    delays: DelayTable,
    inputs: Sequence[tuple[str, int, int]],
    lanes: int = 1,
) -> TransactionLog:
    """Run one full 4-phase transaction: apply the given input values at
    their apply times, run to quiescence, then apply the spacer everywhere
    and run the return-to-zero phase to quiescence.

    `inputs` is a list of (group name, bits, apply time), applied in time
    order (a stable sort). On one lane the bits are a bit, 0 or 1; on more,
    an int in [0, 2**lanes) whose bit j is the group's bit on lane j, which
    runs lane j's transaction beside the others (module doc). Bits that are
    not an int or bool in range, or an apply time that is not an int >= 0
    (a bool is not), raise ValueError. Input groups not listed stay at
    spacer. The netlist starts all-zero; for a handshake stage the ackin
    net is driven high at t=0 and low with the spacer.
    """
    if not (type(lanes) is int and lanes >= 1):
        raise ValueError(f"lanes must be an int >= 1, got {lanes!r}")
    sim = _Sim(netlist, delays, lanes)
    every = sim.every
    inputs = list(inputs)  # read twice: all are checked before the time sort
    for name, bits, t in inputs:
        if not (type(bits) in (int, bool) and 0 <= bits <= every):
            raise ValueError(f"input group {name!r} drives bit {bits!r}; bits are 0 or 1"
                             if lanes == 1 else
                             f"input group {name!r} drives {bits!r}; bits on {lanes} "
                             f"lanes are an int in [0, 2**{lanes})")
        if type(t) is not int:  # a bool is not a time
            raise ValueError(f"input group {name!r} applies at t={t!r}; apply times are ints")
        if t < 0:
            raise ValueError(f"input group {name!r} applies at t={t}; apply times start at 0")
    input_apply: dict[str, int] = {}
    for name, bits, t in sorted(inputs, key=itemgetter(2)):
        sim.put(netlist.group(name), bits, t)
        input_apply[name] = t
    set_end = sim.run()
    set_net_levels, set_events = list(sim.levels), len(sim.trace)

    sim.goal = 0  # every input back to spacer and, on a stage, ackin low
    for grp in netlist.inputs:
        sim.put(grp, None, set_end + 1)
    if sim.ackin is not None:
        sim.drive(sim.ackin, 0, set_end + 1)
    sim.run()

    return TransactionLog(
        input_apply=input_apply,
        illegal=sim.illegal,
        nonmonotone=sim.nonmonotone,
        end_high={k: v for k, v in enumerate(sim.levels) if v} if any(sim.levels) else {},
        events=sim.events,
        set_end=set_end,
        ids=sim.ids,
        outputs=netlist.outputs,
        trace=sim.trace,
        trace_times=sim.trace_times,
        set_events=set_events,
        set_net_levels=set_net_levels,
        lanes=lanes,
    )


def random_vectors(netlist: Netlist, count: int, seed: int = DEFAULT_SEED) -> list[dict[str, int]]:
    if type(count) is not int:  # a bool is not a count
        raise ValueError(f"count must be an int, got {count!r}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if type(seed) is not int:  # None would seed from the OS
        raise ValueError(f"seed must be an int, got {seed!r}")
    rng = random.Random(seed)
    groups = [grp.name for grp in netlist.inputs]
    return [{g: rng.randint(0, 1) for g in groups} for _ in range(count)]


@dataclass
class TransactionView:
    """One `run_protocol` transaction, decoded from its chunk's lane run.
    Its full log is `simulate_transaction` of its own vector: every
    transaction starts from all-zero."""

    latency: int | None
    events: int
    illegal_seen: bool
    monotonic: bool
    rtz_complete: bool


@dataclass
class ProtocolSummary:
    transactions: int = 0
    completed: int = 0
    illegal_states: int = 0
    rtz_failures: int = 0
    deadlocks: list[tuple[int, tuple[str, ...]]] = field(default_factory=list)


_PROTOCOL_LANES = 1024  # vectors per lane run: its lane ints and trace grow with them


def run_protocol(
    stage: Netlist,
    delays: DelayTable,
    vectors: Sequence[dict[str, int]],
) -> tuple[list[TransactionView], ProtocolSummary]:
    """Drive a handshake stage through one 4-phase cycle per vector.

    Each cycle is one transaction from all-zero: data in at t=0, the set
    phase run until no event is pending, then spacer in and the reset phase
    run to quiescence too; the environment never waits on ackout. So the
    vectors run as the lanes of one `simulate_transaction` per chunk of up
    to 1 024 of them, vector j of a chunk on lane j, and the event budget
    bounds a chunk, not a transaction. Each lane's `events` comes from net
    levels, its `latency` from output-rail events, and its monitors and the
    summary from the run's lane masks, all within this call.

    A deadlock is a set phase in which ackout never rose, reporting the
    output pairs not valid at its end, or ackout still high after the reset
    phase, reporting the output pairs with a rail still high. Every vector
    must give each input group a bit, 0 or 1, and name no other group: any
    other vector is a `ValueError` naming its index, raised before any run.
    """
    if stage.ackout is None or stage.ackin is None:
        raise ValueError(f"{stage.name!r} has no handshake ports; wrap it with gen_stage")
    stage._fanout  # a malformed stage raises here, as topo_gates() does, also with no vectors
    vectors, names = list(vectors), [grp.name for grp in stage.inputs]
    wanted = set(names)
    for idx, vec in enumerate(vectors):
        if vec.keys() != wanted:
            if (missing := next((name for name in names if name not in vec), None)) is not None:
                raise ValueError(f"transaction {idx} has no bit for input group {missing!r}")
            extra = next(name for name in vec if name not in wanted)
            raise ValueError(f"transaction {idx} names input group {extra!r}, "
                             f"which {stage.name!r} does not have")
        for name in names:
            if not (type(bit := vec[name]) in (int, bool) and bit in (0, 1)):
                raise ValueError(f"transaction {idx}: input group {name!r} drives bit "
                                 f"{bit!r}; bits are 0 or 1")
    logs: list[TransactionView] = []
    summary = ProtocolSummary()
    for start in range(0, len(vectors), _PROTOCOL_LANES):
        chunk = vectors[start:start + _PROTOCOL_LANES]
        inputs = [(name, int("".join("01"[vec[name]] for vec in reversed(chunk)), 2), 0)
                  for name in names]  # lane j at bit j
        run = simulate_transaction(stage, delays, inputs, lanes=len(chunk))
        logs += _decode_protocol(stage, run, start, summary)
    return logs, summary


def _lane_sums(masks: list[int], lanes: int) -> list[int]:
    """Per lane j, how many of `masks` have bit j set. Carry-save adders fold
    each weight's masks, two at a time, into one bit plane and carries of the
    next weight; then lane j's count reads bit j across the planes."""
    planes = []
    while masks:
        carries, rest = [], iter(masks)
        plane = next(rest)
        for a, b in zip(rest, rest):
            ab = plane ^ a
            carries.append(plane & a | ab & b)
            plane = ab ^ b
        if not len(masks) % 2:  # the last mask had no partner
            carries.append(plane & masks[-1])
            plane ^= masks[-1]
        planes.append(plane)
        masks = [c for c in carries if c]
    # one digit string per plane, top plane first: lane j is column lanes - 1 - j
    columns = zip(*(f"{plane:0{lanes}b}" for plane in reversed(planes)))
    return [int("".join(col), 2) for col in columns][::-1] or [0] * lanes


def _decode_protocol(stage: Netlist, run: TransactionLog, start: int,
                     summary: ProtocolSummary) -> list[TransactionView]:
    """Each lane's view of a `run_protocol` lane run whose lane j is
    transaction `start + j`, each verdict added to `summary`. Every input
    rises once from all-zero and every gate kind is positive unate, so on
    every lane each net rises at most once in the set phase and falls at most
    once in the reset phase. So a lane's `events` is twice the nets high on it
    at the set end less those still high after the reset phase, and ackout
    rose iff it ends the set phase high. A lane's latency is the last
    set-phase time an output rail rose on it, read from those rails' events
    alone, when every output group is valid there at the set end."""
    ids, lanes, every = stage._structure.ids, run.lanes, (1 << run.lanes) - 1
    levels, high = run.set_net_levels, run.end_high
    events = [2 * s - e for s, e in zip(_lane_sums([v for v in levels if v], lanes),
                                         _lane_sums(list(high.values()), lanes))]
    rails = {ids[rail] for grp in stage.outputs for rail in grp.rails()}
    set_trace = run.trace[:run.set_events]
    on_rails = [ev >> lanes in rails for ev in set_trace]
    prev, rises = {}, []  # each output-rail event's lanes that rose
    for ev in compress(set_trace, on_rails):
        net, value = ev >> lanes, ev & every
        rises.append(value ^ prev.get(net, 0))
        prev[net] = value
    last, todo = [0] * lanes, every  # each lane's last output-rail rise; lanes not yet seen
    for up, time in zip(reversed(rises), reversed(list(compress(run.trace_times, on_rails)))):
        if not todo:
            break
        if seen := up & todo:
            todo ^= seen
            while seen:
                low = seen & -seen
                last[low.bit_length() - 1] = time
                seen ^= low

    codes = [reduce(xor, [levels[ids[rail]] for rail in grp.rails()])  # rail 1, or rail 1 ^ rail 0
             for grp in stage.outputs]
    valid = reduce(and_, codes, every) if stage.inputs and codes else 0
    ackout = ids[stage.ackout]
    rose, stuck, unreturned = levels[ackout], high.get(ackout, 0), run.unreturned
    views = []
    for j in range(lanes):
        illegal, returned = run.illegal >> j & 1, not unreturned >> j & 1
        views.append(TransactionView(last[j] if valid >> j & 1 else None, events[j],
                                     bool(illegal), not run.nonmonotone >> j & 1, returned))
        summary.transactions += 1
        if not rose >> j & 1:
            blocking = tuple(grp.name for grp, code in zip(stage.outputs, codes)
                             if not code >> j & 1)
            summary.deadlocks.append((start + j, blocking))
        elif stuck >> j & 1:
            blocking = tuple(grp.name for grp in stage.outputs
                             if any(high.get(ids[rail], 0) >> j & 1 for rail in grp.rails()))
            summary.deadlocks.append((start + j, blocking))
        else:
            summary.completed += 1
            summary.illegal_states += illegal
            summary.rtz_failures += not returned
    return views


@dataclass
class IndicationReport:
    classification: str  # "strong" | "weak" | "early"
    trials: int  # input vectors checked, each with every pair delayed in turn
    early_set_witnesses: list[dict]
    full_early_set_witnesses: list[dict]
    early_reset_witnesses: list[dict]
    note: str


def classify_indication(fb: Netlist, delays: DelayTable, trials: int,
                        seed: int = DEFAULT_SEED) -> IndicationReport:
    """The input-output timing class of a function block, decided exactly on
    lanes: one input vector with one pair delayed, over every vector when
    2**pairs <= `trials`, else `trials` seeded random ones, each with every
    pair delayed in turn. Three `Netlist._settle` walks on ints, a bit per
    lane, settle the set phase with the delayed pair at spacer (an early-set
    witness if an output is valid), the full set phase, and the reset phase
    with only the delayed pair's data left, ackin high and each C2 holding its
    full-set level (an early-reset witness if every output rail is low).
    Each phase moves its inputs one way, so any delays settle there:
    `delays` never changes the verdict. "early" if a lane has every output
    valid early, or both witness kinds occur; "strong" if neither; else "weak".
    Every input group must be a rail pair; outputs may be single wires. A
    `seed` that is not an int (a bool is not) is a `ValueError`."""
    if type(seed) is not int:
        raise ValueError(f"seed must be an int, got {seed!r}")
    if type(trials) is not int:  # a bool is not a count
        raise ValueError(f"trials must be an int, got {trials!r}")
    if trials < 1:
        raise ValueError("need at least one trial")
    groups, pairs = fb.inputs, len(fb.inputs)
    if pairs < 2:
        raise ValueError("classification needs at least two input pairs")
    fb.topo_gates()  # a malformed, two-driver or cyclic netlist raises here
    if wire := next((g.name for g in groups if g.scalar), None):
        # on one wire, bit 0 and spacer are the same level
        raise ValueError(f"input group {wire!r} is a single wire; "
                         "classification needs rail pairs")
    exhaustive = 2 ** pairs <= trials
    vectors = ([{g.name: i >> q & 1 for q, g in enumerate(groups)} for i in range(2 ** pairs)]
               if exhaustive else random_vectors(fb, trials, seed))
    lanes = len(vectors) * pairs  # lane v * pairs + p: vector v with pair p delayed
    every, ids = (1 << lanes) - 1, fb._structure.ids
    first = int(("0" * (pairs - 1) + "1") * len(vectors), 2)  # the lanes delaying pair 0
    # per pair, the lanes its bit is 1 on: one binary digit per lane, parsed once
    ones = [int("".join(str(vec[g.name]) * pairs for vec in reversed(vectors)), 2) for g in groups]

    def settle(phase: int, held=None) -> list:
        rails = {}
        for q, grp in enumerate(groups):  # data: all lanes but, all, or only those delaying it
            data = (every ^ first << q, every, first << q)[phase]
            rails.update(zip(grp.rails(), (rail1 := ones[q] & data, data ^ rail1)))
        return fb._settle(rails, every, held)

    set_early, reset = settle(0), settle(2, held=settle(1))
    valid, high = [], 0  # per output, the lanes it is valid on early; any rail high on reset
    for grp in fb.outputs:
        r = [ids[rail] for rail in grp.rails()]
        valid.append(set_early[r[0]] ^ set_early[r[1]] if r[1:] else set_early[r[0]])
        high |= reset[r[0]] | reset[r[-1]]
    names = [g.name for g in fb.outputs]
    early_set, early_reset = [], []
    lane_bits = [f"{m:0{lanes}b}"[::-1] for m in (every ^ high, *valid)]
    for lane, (spacer, *col) in enumerate(zip(*lane_bits)):
        v, p = divmod(lane, pairs)
        witness = {"trial": v, "delayed": groups[p].name, "vector": vectors[v]}
        if valid_early := [name for name, bit in zip(names, col) if bit == "1"]:
            early_set.append({**witness, "outputs_valid_early": valid_early})
        if spacer == "1":
            early_reset.append(witness)
    full_early_set = [w for w in early_set if len(w["outputs_valid_early"]) == len(names)]
    cls = ("early" if full_early_set or (early_set and early_reset)
           else "weak" if early_set or early_reset else "strong")
    note = (f"exact on {len(vectors)} {'' if exhaustive else 'seeded random '}input vectors x "
            f"{pairs} delayed pairs = {lanes} lanes; delays do not change the verdict")
    return IndicationReport(cls, len(vectors), early_set, full_early_set, early_reset, note)


def dump_waveform(log: TransactionLog, fh: TextIO, *,
                  header: str | None = None) -> None:
    """Write each event of the log's trace as a 'time net level' line, sorted
    by time and net; one net's events at one time keep their applied order."""
    if header:
        fh.write(f"# {header}\n")
    rows = ((t, net, v) for net, trans in log.transitions.items() for t, v in trans)
    for t, net, v in sorted(rows, key=itemgetter(0, 1)):
        fh.write(f"{t} {net} {v}\n")
