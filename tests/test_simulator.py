import gc
import hashlib
import io
import json
import platform
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dradder.generators import (
    AdderSpec,
    gen_completion_detector,
    gen_dafa,
    gen_hybrid_rca,
    gen_safa,
    gen_stage,
)
from dradder import simulator
from dradder.netlist import ARITY, Gate, GateKind, Netlist, PortGroup
from dradder.simulator import (
    DEFAULT_SEED,
    DelayTable,
    ProtocolSummary,
    SimulationLimitError,
    classify_indication,
    dump_waveform,
    random_vectors,
    run_protocol,
    simulate_transaction,
)
from dradder.verification import oracle_add


def test_delay_table_requires_every_kind():
    with pytest.raises(ValueError):
        DelayTable({GateKind.AND2: 1})


def test_delay_table_bounds():
    good = {k: (0 if k is GateKind.BUF else 1) for k in GateKind}
    DelayTable(good)
    for kind, d in [(GateKind.OR2, 0),  # only buffers may be zero-delay
                    (GateKind.AO21, 1.7), (GateKind.AO21, 2.0), (GateKind.AO21, True),
                    (GateKind.BUF, False), (GateKind.C2, "2")]:
        bad = dict(good)
        bad[kind] = d
        with pytest.raises(ValueError):
            DelayTable(bad)
    doc = DelayTable.unit().to_mapping()
    doc["AO21"] = 1.7
    with pytest.raises(ValueError, match="AO21 must be an integer"):
        DelayTable.from_mapping(doc)


def test_delay_table_json_roundtrip(tmp_path):
    d = DelayTable.unit()
    path = tmp_path / "delays.json"
    d.save(path)
    back = DelayTable.load(path)
    assert back.delays == d.delays
    assert back.time_unit == d.time_unit


def _decode(log, netlist, names):
    return {grp.name: log.set_levels.get(grp.rail1, 0)
            for grp in netlist.outputs if grp.name in names}


@pytest.mark.parametrize("a", [0, 1])
@pytest.mark.parametrize("b", [0, 1])
@pytest.mark.parametrize("cin", [0, 1])
def test_single_bit_adder_truth_table(a, b, cin):
    n = gen_safa()
    d = DelayTable.unit()
    log = simulate_transaction(n, d, [("A", a, 0), ("B", b, 0), ("CIN", cin, 0)])
    want_sum, want_cout = oracle_add(a, b, cin, 1)
    got = _decode(log, n, ("SUM", "COUT"))
    assert got == {"SUM": want_sum, "COUT": want_cout}
    assert not log.illegal_seen
    assert log.monotonic
    assert log.rtz_complete


def test_transaction_is_two_phase():
    n = gen_safa()
    log = simulate_transaction(n, DelayTable.unit(), [("A", 1, 0), ("B", 0, 0), ("CIN", 0, 0)])
    # every output rail that rose in the set phase falls again in the reset phase
    for grp in n.outputs:
        for rail in grp.rails():
            trans = log.transitions.get(rail, [])
            if any(v for _, v in trans):
                assert trans[-1][1] == 0
                assert trans[-1][0] > log.set_end


def test_latency_measures_last_output_codeword():
    n = gen_safa()
    d = DelayTable.unit()
    log = simulate_transaction(n, d, [("A", 1, 0), ("B", 0, 0), ("CIN", 1, 0)])
    assert log.latency is not None
    valid_times = [t for t in log.output_valid.values() if t is not None]
    assert log.latency == max(valid_times) - min(log.input_apply.values())


def test_partial_vector_leaves_outputs_undetermined():
    n = gen_safa()
    # a=b=0 kills the carry without cin (early output), but the sum is cin
    log = simulate_transaction(n, DelayTable.unit(), [("A", 0, 0), ("B", 0, 0)])
    assert log.output_valid["COUT"] is not None
    assert log.output_valid["SUM"] is None
    # a=1, b=0 propagates: neither output can resolve without cin
    log = simulate_transaction(n, DelayTable.unit(), [("A", 1, 0), ("B", 0, 0)])
    assert log.output_valid["COUT"] is None
    assert log.output_valid["SUM"] is None


def test_latency_is_none_without_output_groups():
    n = Netlist(name="buf", gates=[Gate("g", GateKind.BUF, ("a",), "y")],
                inputs=[PortGroup("A", "a")], outputs=[])
    log = simulate_transaction(n, DelayTable.unit(), [("A", 1, 0)])
    assert log.output_valid == {} and log.latency is None
    assert log.rtz_complete and log.transitions["y"] == [(0, 1), (1, 0)]


def test_c_element_holds_between_agreements():
    n = Netlist(
        name="c2",
        gates=[Gate("c", GateKind.C2, ("a", "b"), "y")],
        inputs=[PortGroup("A", "a"), PortGroup("B", "b")],
        outputs=[PortGroup("Y", "y")],
    )
    d = DelayTable.unit()
    log = simulate_transaction(n, d, [("A", 1, 0), ("B", 1, 5)])
    trans = log.transitions["y"]
    # rises only once both inputs are high, falls only after both drop
    assert trans[0] == (6, 1)
    assert trans[-1][1] == 0


def test_event_budget_enforced(monkeypatch):
    n = gen_stage(gen_hybrid_rca(AdderSpec(8, 2, True)))
    monkeypatch.setattr(simulator, "DEFAULT_MAX_EVENTS", 10)
    with pytest.raises(SimulationLimitError):
        simulate_transaction(n, DelayTable.unit(), [("A0", 1, 0), ("B0", 1, 0), ("CIN", 1, 0)])


def test_inputs_apply_in_time_order_whatever_their_listed_order():
    listed = [("A", 1, 5), ("A", 0, 3), ("B", 1, 0), ("CIN", 0, 0)]
    seen = set()
    for inputs in (listed, sorted(listed, key=lambda inp: inp[2]), listed[::-1]):
        log = simulate_transaction(gen_safa(), DelayTable.unit(), inputs)
        assert log.rtz_complete  # a1 rises last, so the spacer must lower it
        seen.add(json.dumps([log.input_apply, log.output_valid, log.latency, log.events,
                             log.transitions, log.set_levels, log.illegal_seen, log.monotonic],
                            sort_keys=True))
    assert len(seen) == 1


def test_random_vectors_deterministic():
    n = gen_safa()
    assert random_vectors(n, 5, seed=DEFAULT_SEED) == random_vectors(n, 5, seed=DEFAULT_SEED)
    assert random_vectors(n, 5, seed=1) != random_vectors(n, 5, seed=2)


def test_protocol_cycles_complete_on_stage():
    stage = gen_stage(gen_hybrid_rca(AdderSpec(4, 2, True)))
    vectors = random_vectors(stage, 20, DEFAULT_SEED)
    logs, summary = run_protocol(stage, DelayTable.unit(), vectors)
    assert summary.transactions == 20
    assert summary.completed == 20
    assert summary.illegal_states == 0
    assert summary.rtz_failures == 0
    assert summary.deadlocks == []
    assert all(log.monotonic for log in logs)


def test_protocol_requires_handshake_ports():
    with pytest.raises(ValueError):
        run_protocol(gen_safa(), DelayTable.unit(), [{}])


def test_protocol_reports_deadlock_on_broken_stage():
    stage = gen_stage(gen_hybrid_rca(AdderSpec(4, 2, True)))
    # sever the carry-in register so COUT can never become valid
    gates = [g for g in stage.gates if g.id not in ("reg/cin_1", "reg/cin_0")]
    assert len(gates) == len(stage.gates) - 2
    broken = Netlist(name="broken", gates=gates, inputs=stage.inputs,
                     outputs=stage.outputs, ackin=stage.ackin, ackout=stage.ackout)
    vec = {g.name: 1 for g in stage.inputs}
    _, summary = run_protocol(broken, DelayTable.unit(), [vec])
    assert len(summary.deadlocks) == 1
    idx, blocking = summary.deadlocks[0]
    assert idx == 0 and blocking


def test_monitor_flags_an_input_falling_in_the_set_phase():
    log = simulate_transaction(gen_safa(), DelayTable.unit(),
                               [("A", 1, 0), ("B", 1, 0), ("CIN", 0, 0), ("A", 0, 5)])
    assert log.monotonic is False


# A's rail 0 is the ackin net, which the environment raises at t=0 before
# it applies any input: an earlier apply time would queue that net's events
# out of time order, so the netlist is rejected before any input applies
_ACKIN_AS_RAIL = Netlist("ackin_as_rail", [Gate("g1", GateKind.BUF, ("a1",), "y1"),
                                           Gate("g0", GateKind.BUF, ("ack",), "y0")],
                         [PortGroup("A", "a1", "ack")], [PortGroup("Y", "y1", "y0")],
                         ackin="ack")


@pytest.mark.parametrize("netlist, inputs, message", [
    (gen_safa(), [("A", 1, 0), ("A", 1, -1)],
     "input group 'A' applies at t=-1; apply times start at 0"),
    (_ACKIN_AS_RAIL, [("A", 1, -1)], "net 'ack' is named twice among the input rails and ackin"),
    # an event is net << 1 | bit, so bit 2 (and 1 - 2 on rail 0) would drive other nets
    (gen_safa(), [("B", 1, 0), ("A", 2, 0)], "input group 'A' drives bit 2; bits are 0 or 1"),
    (gen_safa(), [("B", 1, 0), ("A", 1.0, 0)], "input group 'A' drives bit 1.0; bits are 0 or 1"),
    # the model's times are integer units
    (gen_safa(), [("B", 1, 0), ("A", 1, 0.5)],
     "input group 'A' applies at t=0.5; apply times are ints"),
    (gen_safa(), [("B", 1, 0), ("A", 1, True)],
     "input group 'A' applies at t=True; apply times are ints"),
    # refused before the time sort, which cannot order it among ints
    (gen_safa(), [("B", 1, 0), ("A", 1, "1")],
     "input group 'A' applies at t='1'; apply times are ints"),
], ids=["safa-before-zero", "ackin-as-rail-before-zero", "safa-bit-2", "safa-float-bit",
        "safa-float-time", "safa-bool-time", "safa-str-time"])
def test_inputs_outside_the_protocol_are_rejected(netlist, inputs, message):
    with pytest.raises(ValueError) as exc:
        simulate_transaction(netlist, DelayTable.unit(), inputs)
    assert exc.value.args == (message,)
    if netlist.validate() == []:
        log = simulate_transaction(netlist, DelayTable.unit(), [("A", 1, 0)])
        assert log.input_apply == {"A": 0} and log.rtz_complete


@pytest.mark.parametrize("lanes, bits, message", [
    (4, 16, "input group 'A' drives 16; bits on 4 lanes are an int in [0, 2**4)"),
    (4, -1, "input group 'A' drives -1; bits on 4 lanes are an int in [0, 2**4)"),
    (4, 1.5, "input group 'A' drives 1.5; bits on 4 lanes are an int in [0, 2**4)"),
    (4, 1.0, "input group 'A' drives 1.0; bits on 4 lanes are an int in [0, 2**4)"),
    (0, 1, "lanes must be an int >= 1, got 0"),
    (True, 1, "lanes must be an int >= 1, got True"),
])
def test_lane_inputs_outside_their_range_are_rejected(lanes, bits, message):
    with pytest.raises(ValueError) as exc:
        simulate_transaction(gen_safa(), DelayTable.unit(), [("A", bits, 0)], lanes=lanes)
    assert exc.value.args == (message,)


_A = PortGroup("A", "a1", "a0")
_Y = PortGroup("Y", "y1", "y0")
_Y_COPIES_A = [Gate("g1", GateKind.BUF, ("a1",), "y1"), Gate("g0", GateKind.BUF, ("a0",), "y0")]
# Y's rail 1 latches once A is 1, so it never returns to zero
_LATCH = Netlist("latch", [Gate("g1", GateKind.OR2, ("a1", "y1"), "y1"),
                           Gate("g0", GateKind.BUF, ("a0",), "y0")], [_A], [_Y])


@pytest.mark.parametrize("apply", [0, 2])
def test_a_rail_that_never_switched_reads_as_time_0(apply):
    # zero-delay buffers: Y's rail 1 rises as A is applied, and its rail 0,
    # never switched, does not make Y valid any later
    copy = Netlist("copy", _Y_COPIES_A, [_A], [_Y])
    log = simulate_transaction(copy, DelayTable.unit(), [("A", 1, apply)])
    assert (log.output_valid, log.latency) == ({"Y": apply}, 0)


@pytest.mark.parametrize("gates, illegal, rtz_failures", [
    # both rails follow the same OR, so every valid input drives Y to (1, 1)
    ([Gate("g1", GateKind.OR2, ("a1", "a0"), "y1"),
      Gate("g0", GateKind.OR2, ("a1", "a0"), "y0")], 2, 0),
    # a dangling latch holds itself high once A=1 arrives
    (_Y_COPIES_A + [Gate("z", GateKind.OR2, ("a1", "z"), "z")], 0, 1),
], ids=["illegal-output", "latch"])
def test_protocol_counts_illegal_states_and_rtz_failures(gates, illegal, rtz_failures):
    stage = gen_stage(Netlist("block", gates, [_A], [_Y]))
    _, summary = run_protocol(stage, DelayTable.unit(), [{"A": 1}, {"A": 0}])
    assert (summary.completed, summary.illegal_states, summary.rtz_failures,
            summary.deadlocks) == (2, illegal, rtz_failures, [])


def test_classification_counts_all_outputs_early_witnesses():
    # Y copies A and nothing reads B, so Y is valid whenever B is the delayed pair
    block = Netlist("copy", _Y_COPIES_A, [_A, PortGroup("B", "b1", "b0")], [_Y])
    rep = classify_indication(block, DelayTable.unit(), trials=8)
    assert rep.classification == "early"
    assert len(rep.full_early_set_witnesses) == 4


def test_classification_single_bit_adder_is_early():
    rep = classify_indication(gen_safa(), DelayTable.unit(), trials=64)
    assert rep.classification == "early"
    assert rep.early_set_witnesses
    assert rep.early_reset_witnesses


def test_classification_completion_detector_is_strong():
    rep = classify_indication(gen_completion_detector(4), DelayTable.unit(), trials=64)
    assert rep.classification == "strong"
    assert not rep.early_set_witnesses
    assert not rep.early_reset_witnesses


def test_waveform_dump_format():
    n = gen_safa()
    log = simulate_transaction(n, DelayTable.unit(), [("A", 1, 0), ("B", 1, 0), ("CIN", 0, 0)])
    buf = io.StringIO()
    dump_waveform(log, buf, header="safa a=1 b=1 cin=0")
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# safa a=1 b=1 cin=0"
    times = []
    for line in lines[1:]:
        t, net, lvl = line.split()
        times.append(int(t))
        assert lvl in ("0", "1")
    assert times == sorted(times)


def test_waveform_dump_keeps_a_zero_width_pulse_in_order():
    # B rises and falls at time 0, so g = a1 & b1 rises and falls at time 1:
    # each net's lines at one time come in the order the events applied
    n = Netlist("pulse", [Gate("g", GateKind.AND2, ("a1", "b1"), "g")],
                [_A, PortGroup("B", "b1", "b0")], [PortGroup("Y", "g")])
    log = simulate_transaction(n, DelayTable.unit(), [("A", 1, 0), ("B", 1, 0), ("B", 0, 0)])
    assert log.transitions["g"] == [(1, 1), (1, 0)]
    buf = io.StringIO()
    dump_waveform(log, buf)
    lines = buf.getvalue().splitlines()
    assert [line for line in lines if line.split()[1] == "g"] == ["1 g 1", "1 g 0"]
    assert [line for line in lines if line.split()[1] == "b1"] == ["0 b1 1", "0 b1 0"]
    assert lines == sorted(lines, key=lambda line: (int(line.split()[0]), line.split()[1]))


def _one_lane_runs(stage: Netlist, delays: DelayTable, vectors) -> list:
    """Each vector's full log: its own one-lane `simulate_transaction`."""
    return [simulate_transaction(stage, delays, [(grp.name, vec[grp.name], 0)
                                                 for grp in stage.inputs]) for vec in vectors]


def test_simulator_event_trace_is_pinned():
    # recorded before the simulator moved onto the integer netlist form
    stage = gen_stage(gen_hybrid_rca(AdderSpec(8, 2, redundant_carry=True)))
    vectors = random_vectors(stage, 12, 7)
    logs, summary = run_protocol(stage, DelayTable.unit(), vectors)
    runs = _one_lane_runs(stage, DelayTable.unit(), vectors)
    assert summary.completed == 12
    assert sum(log.events for log in logs) == 2108
    trace = json.dumps([[log.latency, log.events, run.set_end,
                         sorted((net, t, v) for net, tr in run.transitions.items()
                                for t, v in tr)]
                        for log, run in zip(logs, runs)])
    assert hashlib.sha256(trace.encode()).hexdigest() == \
        "9b950ddd072a992c8e41745e4fae220e8e434d729d4fc1512ce7469e5c53a223"


def test_simulator_rejects_wrong_arity_gate():
    # the constructor does not check arity; the simulator's netlist form does
    n = Netlist(
        name="bad",
        gates=[Gate("g3", GateKind.AND2, ("a", "b", "a"), "y")],
        inputs=[PortGroup("A", "a"), PortGroup("B", "b")],
        outputs=[PortGroup("Y", "y")],
    )
    with pytest.raises(ValueError, match="gate 'g3': AND2 takes 2 inputs, got 3"):
        simulate_transaction(n, DelayTable.unit(), [("A", 1, 0), ("B", 1, 0)])
    with pytest.raises(ValueError, match="gate 'g3': AND2 takes 2 inputs, got 3"):
        classify_indication(n, DelayTable.unit(), trials=4)


_SKEWED = DelayTable({GateKind.BUF: 1, GateKind.AND2: 2, GateKind.AND4: 3,
                      GateKind.OR2: 2, GateKind.OR3: 3, GateKind.OR4: 4,
                      GateKind.AO21: 4, GateKind.AO22: 5, GateKind.AO222: 7,
                      GateKind.C2: 4})


def test_classify_indication_reports_are_pinned():
    # re-recorded when the exact lane check replaced 64 sampled event-simulator
    # trials: the verdicts are the sampled ones, the witnesses are every lane's
    blocks = [gen_safa(), gen_dafa(True), gen_dafa(False), gen_completion_detector(4),
              gen_hybrid_rca(AdderSpec(8, 2, True)), gen_stage(gen_safa())]
    reports, counts = [], {}
    for block in blocks:
        for delays in (DelayTable.unit(), _SKEWED):
            rep = classify_indication(block, delays, trials=64, seed=1011)
            reports.append([block.name, rep.classification, rep.early_set_witnesses,
                            rep.full_early_set_witnesses, rep.early_reset_witnesses])
            counts[block.name] = (rep.trials * len(block.inputs), len(rep.early_set_witnesses),
                                  len(rep.full_early_set_witnesses),
                                  len(rep.early_reset_witnesses))
    assert reports[0::2] == reports[1::2]  # the delay table never matters
    assert [r[1] for r in reports] == ["early"] * 6 + ["strong"] * 2 + ["early"] * 2 \
        + ["weak", "weak"]
    assert counts["safa"] == (24, 4, 0, 16)
    assert counts["dafa_redundant"] == counts["dafa_nonredundant"] == (160, 120, 0, 128)
    digest = hashlib.sha256(json.dumps(reports).encode()).hexdigest()
    assert digest == \
        "1ab4ac83c9a22e3c9394927d12be3bf10ee6be37f0f0f32cb9b1f49de8ea890d"


def _replayed_lanes(block: Netlist, delays: DelayTable, trials: int, seed: int = DEFAULT_SEED):
    """Every lane of `classify_indication(block, delays, trials, seed)` replayed
    on the event simulator: the other pairs driven at t=0 and run, the delayed
    pair driven later and run, the others sent to spacer and run. Returns the
    early-set, all-outputs-early and early-reset lanes as the report's
    witness lists name them."""
    groups = block.inputs
    vectors = ([{g.name: i >> q & 1 for q, g in enumerate(groups)}
                for i in range(2 ** len(groups))]
               if 2 ** len(groups) <= trials else random_vectors(block, trials, seed))
    early, full, reset = [], [], []
    for v, vec in enumerate(vectors):
        for delayed in groups:
            others = [g for g in groups if g is not delayed]
            sim = simulator._Sim(block, delays)
            for grp in others:
                sim.put(grp, vec[grp.name], 0)
            sim.run()
            # a valid codeword: exactly one rail high, or a wire high
            valid = [g.name for g in block.outputs
                     if sum(sim.levels[sim.ids[r]] for r in g.rails()) == 1]
            sim.put(delayed, vec[delayed.name], sim.now + 1)
            sim.run()
            for grp in others:
                sim.put(grp, None, sim.now + 1)
            sim.run()
            lane = {"trial": v, "delayed": delayed.name, "vector": vec}
            if valid:
                early.append({**lane, "outputs_valid_early": valid})
                if len(valid) == len(block.outputs):
                    full.append(early[-1])
            if not any(sim.levels[sim.ids[r]] for g in block.outputs for r in g.rails()):
                reset.append(lane)
    return len(vectors), early, full, reset


@pytest.mark.parametrize("delays", [DelayTable.unit(), _SKEWED], ids=["unit", "skewed"])
@pytest.mark.parametrize("block", [gen_safa(), gen_dafa(True), gen_dafa(False),
                                   gen_completion_detector(4), gen_stage(gen_safa())],
                         ids=lambda n: n.name)
def test_classify_indication_equals_the_event_simulator_on_every_lane(block, delays):
    rep = classify_indication(block, delays, trials=64)
    assert (rep.trials, rep.early_set_witnesses, rep.full_early_set_witnesses,
            rep.early_reset_witnesses) == _replayed_lanes(block, delays, 64)


@st.composite
def _random_blocks(draw, wire=True):
    """A small DAG block over 2-4 dual-rail input pairs, of every gate kind
    reading any earlier net, with one or two dual-rail outputs and, if
    `wire`, maybe a single-wire output."""
    inputs = [PortGroup(f"I{q}", f"i{q}_1", f"i{q}_0") for q in range(draw(st.integers(2, 4)))]
    nets = [r for grp in inputs for r in grp.rails()]
    gates = []
    for k in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(list(GateKind)))
        ins = tuple(draw(st.sampled_from(nets)) for _ in range(ARITY[kind]))
        gates.append(Gate(f"g{k}", kind, ins, f"n{k}"))
        nets.append(f"n{k}")
    pick = st.sampled_from(nets)
    outputs = [PortGroup(f"Y{j}", draw(pick), draw(pick))
               for j in range(draw(st.integers(1, 2)))]
    if wire and draw(st.booleans()):
        outputs.append(PortGroup("W", draw(pick)))
    return Netlist("random_block", gates, inputs, outputs)


_DELAY_TABLES = st.builds(DelayTable, st.fixed_dictionaries(
    {k: st.integers(0 if k is GateKind.BUF else 1, 6) for k in GateKind}))


@settings(max_examples=60, deadline=None)
@given(_random_blocks(), _DELAY_TABLES, st.integers(1, 20), st.integers(0, 9))
def test_classify_indication_equals_the_event_simulator_on_random_blocks(
        block, delays, trials, seed):
    rep = classify_indication(block, delays, trials, seed)
    assert (rep.trials, rep.early_set_witnesses, rep.full_early_set_witnesses,
            rep.early_reset_witnesses) == _replayed_lanes(block, delays, trials, seed)


def _protocol_by_trace(stage: Netlist, logs) -> tuple[ProtocolSummary, list]:
    """`run_protocol`'s summary of `logs` and each log's (`output_valid`,
    `latency`), read from the trace alone: a set-phase replay keeping each
    net's last switching time, and deadlocks from ackout's rises and falls."""
    ids = stage._structure.ids
    ackout, summary, timing = ids[stage.ackout], ProtocolSummary(), []
    for idx, log in enumerate(logs):
        last, levels = [0] * len(ids), [0] * len(ids)
        for ev, t in zip(log.trace[:log.set_events], log.trace_times):
            last[ev >> 1], levels[ev >> 1] = t, ev & 1
        valid = {}
        for grp in stage.outputs:
            rails = [ids[r] for r in grp.rails()]
            valid[grp.name] = max(last[k] for k in rails) \
                if sum(levels[k] for k in rails) == 1 else None
        times = list(valid.values())
        timing.append((valid, None if not times or None in times
                       else max(times) - min(log.input_apply.values())))

        def ends_high(k):  # levels alternate from 0: a net ends high if it rose more than it fell
            return log.trace.count(k << 1 | 1) > log.trace.count(k << 1)

        summary.transactions += 1
        if (ackout << 1 | 1) not in log.trace[:log.set_events]:
            summary.deadlocks.append((idx, tuple(n for n, t in valid.items() if t is None)))
        elif ends_high(ackout):
            summary.deadlocks.append((idx, tuple(g.name for g in stage.outputs
                                                 if any(ends_high(ids[r]) for r in g.rails()))))
        else:
            summary.completed += 1
            summary.illegal_states += log.illegal_seen
            summary.rtz_failures += any(map(ends_high, range(len(ids))))
    return summary, timing


_STAGED_SAFA = gen_stage(gen_safa())
# the carry-in registers cut out, so the carry-in rails are never driven
_SEVERED = Netlist("severed", [g for g in _STAGED_SAFA.gates
                               if g.id not in ("reg/cin1", "reg/cin0")],
                   _STAGED_SAFA.inputs, _STAGED_SAFA.outputs, "ackin", _STAGED_SAFA.ackout)
# Z copies A beside the latch, so only Y holds the reset phase up
_LATCH_BESIDE_COPY = Netlist("latch_beside_copy", [*_LATCH.gates,
                                                   Gate("z1", GateKind.BUF, ("a1",), "z1"),
                                                   Gate("z0", GateKind.BUF, ("a0",), "z0")],
                             [_A], [_Y, PortGroup("Z", "z1", "z0")])
# Y copies A and a net no output reads latches: the handshake completes,
# but the stage does not return to zero
_HIDDEN_LATCH = Netlist("hidden_latch", [*_Y_COPIES_A, Gate("h", GateKind.OR2, ("a1", "h"), "h")],
                        [_A], [_Y])


_PROTOCOL_STAGES = st.one_of(_random_blocks(wire=False).map(gen_stage),
                             st.sampled_from([gen_stage(_LATCH_BESIDE_COPY), _SEVERED,
                                              gen_stage(_HIDDEN_LATCH)]))


@settings(max_examples=80, deadline=None)
@given(_PROTOCOL_STAGES, _DELAY_TABLES, st.integers(1, 8), st.integers(0, 9))
def test_protocol_verdicts_and_log_timing_equal_a_trace_replay(stage, delays, count, seed):
    vectors = random_vectors(stage, count, seed)
    logs, summary = run_protocol(stage, delays, vectors)
    runs = _one_lane_runs(stage, delays, vectors)
    assert (summary, [(run.output_valid, log.latency) for log, run in zip(logs, runs)]) == \
        _protocol_by_trace(stage, runs)
    for run in runs:  # the nets left high are those whose last event is a rise
        final = {ev >> 1: ev & 1 for ev in run.trace}
        assert run.end_high == {k: 1 for k, level in final.items() if level}


def test_zero_delay_events_apply_in_drive_order():
    # a zero-delay BUF chain and unit-delay gates switch at the same times;
    # recorded on the heap queue the time buckets replaced, key order included
    n = Netlist(
        name="zero",
        gates=[Gate("b1", GateKind.BUF, ("a",), "x1"),
               Gate("b2", GateKind.BUF, ("x1",), "x2"),
               Gate("b3", GateKind.BUF, ("x2",), "x3"),
               Gate("g1", GateKind.AND2, ("a", "b"), "p"),
               Gate("g2", GateKind.OR2, ("x3", "p"), "q"),
               Gate("g3", GateKind.AND2, ("x2", "b"), "r"),
               Gate("b4", GateKind.BUF, ("p",), "s")],
        inputs=[PortGroup("A", "a"), PortGroup("B", "b")],
        outputs=[PortGroup("Q", "q"), PortGroup("R", "r"), PortGroup("S", "s")],
    )
    log = simulate_transaction(n, DelayTable.unit(), [("A", 1, 0), ("B", 1, 1)])
    assert list(log.transitions.items()) == [
        ("a", [(0, 1), (3, 0)]), ("x1", [(0, 1), (3, 0)]), ("x2", [(0, 1), (3, 0)]),
        ("x3", [(0, 1), (3, 0)]), ("b", [(1, 1), (3, 0)]), ("q", [(1, 1), (5, 0)]),
        ("p", [(2, 1), (4, 0)]), ("r", [(2, 1), (4, 0)]), ("s", [(2, 1), (4, 0)])]
    assert list(log.set_levels.items()) == [
        (net, 1) for net in ("a", "x1", "x2", "x3", "b", "q", "p", "r", "s")]
    assert (log.latency, log.set_end, log.events) == (2, 2, 18)


def test_transaction_log_key_order_is_pinned():
    # the digest covers the order of the named dicts' keys; recorded on the
    # heap queue with name-keyed dicts built for every transaction
    stage = gen_stage(gen_hybrid_rca(AdderSpec(8, 2, True)))
    vectors = random_vectors(stage, 6, 5)
    logs, _ = run_protocol(stage, DelayTable.unit(), vectors)
    runs = _one_lane_runs(stage, DelayTable.unit(), vectors)
    rows = [[list(run.transitions.items()), list(run.set_levels.items())] for run in runs]
    assert sum(log.events for log in logs) == 1064
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == \
        "31aaad0edd634453c40c576f5cb3b0b47042370175c80c023377371d186e647a"
    # the named dicts are built once, so an edit to one stays visible
    run = runs[0]
    assert run.transitions is run.transitions and run.set_levels is run.set_levels


def test_every_simulator_route_rejects_a_two_driver_net():
    two = Netlist("two", [Gate("g1", GateKind.BUF, ("a",), "y"),
                          Gate("g2", GateKind.BUF, ("b",), "y")],
                  inputs=[PortGroup("A", "a"), PortGroup("B", "b")],
                  outputs=[PortGroup("Y", "y")])
    base = gen_stage(gen_hybrid_rca(AdderSpec(2, 2, True)))
    first = base.gates[0]
    stage = Netlist("two-stage", [*base.gates, Gate("extra", GateKind.BUF,
                                                    (base.input_nets[0],), first.output)],
                    base.inputs, base.outputs, base.ackin, base.ackout)
    for bad, route in (
            (two, lambda: simulate_transaction(two, DelayTable.unit(), [("A", 1, 0), ("B", 1, 0)])),
            (two, lambda: classify_indication(two, DelayTable.unit(), trials=4)),
            (stage, lambda: run_protocol(stage, DelayTable.unit(), random_vectors(stage, 1))),
            (stage, lambda: run_protocol(stage, DelayTable.unit(), []))):  # before any vector
        with pytest.raises(ValueError) as want:
            bad.topo_gates()
        with pytest.raises(ValueError) as got:
            route()
        assert str(got.value) == str(want.value)
    assert str(want.value) == f"net {first.output!r} has multiple drivers: [{first.id!r}, 'extra']"


def test_cyclic_netlist_still_simulates(monkeypatch):
    # a latch: y holds itself high once a rises, so it never returns to zero
    latch = Netlist("latch", [Gate("g", GateKind.OR2, ("a", "y"), "y")],
                    inputs=[PortGroup("A", "a")], outputs=[PortGroup("Y", "y")])
    log = simulate_transaction(latch, DelayTable.unit(), [("A", 1, 0)])
    assert log.transitions["y"] == [(1, 1)] and not log.rtz_complete
    monkeypatch.setattr(simulator, "DEFAULT_MAX_EVENTS", 1)
    with pytest.raises(SimulationLimitError):
        simulate_transaction(latch, DelayTable.unit(), [("A", 1, 0)])


def _random_netlist(seed: int) -> Netlist:
    """A small seeded netlist over three dual-rail groups and one wire, with
    every gate kind, a three-BUF chain and inputs drawn from all earlier nets
    (a net may feed one gate twice)."""
    rng = random.Random(seed)
    inputs = [PortGroup(g, f"{g.lower()}1", f"{g.lower()}0") for g in "ABC"]
    inputs.append(PortGroup("S", "s"))
    nets = [r for grp in inputs for r in grp.rails()]
    gates = []
    for k in range(3):
        gates.append(Gate(f"b{k}", GateKind.BUF, (nets[-1],), f"z{k}"))
        nets.append(f"z{k}")
    kinds = list(GateKind) * 2
    rng.shuffle(kinds)
    for k, kind in enumerate(kinds):
        ins = tuple(rng.choice(nets) for _ in range(ARITY[kind]))
        gates.append(Gate(f"g{k}", kind, ins, f"n{k}"))
        nets.append(f"n{k}")
    outputs = [PortGroup("Y", nets[-1], nets[-2]), PortGroup("Z", nets[-3], nets[-4]),
               PortGroup("W", nets[-5])]
    return Netlist(f"random{seed}", gates, inputs, outputs)


# a latch on the wire S, read by a C-element; a pulse into the latch shorter
# than its delay would circulate forever under transport delay, and only
# dual-rail groups change value in the set phase below
_LOOP = Netlist("loop", [Gate("f", GateKind.OR2, ("s", "q"), "q"),
                         Gate("c", GateKind.C2, ("q", "a0"), "y1"),
                         Gate("o", GateKind.OR2, ("b0", "y1"), "y0")],
                [PortGroup("A", "a1", "a0"), PortGroup("B", "b1", "b0"), PortGroup("S", "s")],
                [PortGroup("Y", "y1", "y0")])


def _random_schedule(netlist: Netlist, rng: random.Random) -> list[tuple[str, int, int]]:
    """Inputs for one transaction: each group left at spacer or applied at a
    random time, and some dual-rail groups flipped again later."""
    schedule = []
    for grp in netlist.inputs:
        if rng.random() < 0.2:
            continue  # left at spacer
        bit, t = rng.randint(0, 1), rng.randint(0, 6)
        schedule.append((grp.name, bit, t))
        if not grp.scalar and rng.random() < 0.3:
            schedule.append((grp.name, 1 - bit, t + rng.randint(1, 6)))
    return schedule


_PIN_TABLES = [DelayTable.unit(), _SKEWED, DelayTable({**_SKEWED.delays, GateKind.BUF: 0})]


def test_transactions_on_random_netlists_are_pinned():
    # recorded before the simulator skipped evaluations a monotone gate cannot
    # act on; covers every gate kind, zero-delay BUF chains, a cyclic netlist,
    # partial vectors and rails that rise and fall again in the set phase;
    # set-end levels are keyed by net name, so the pin holds whatever the
    # net numbering
    rows = []
    for netlist in [_random_netlist(seed) for seed in range(4)] + [_LOOP]:
        rng = random.Random(netlist.name)
        for delays in _PIN_TABLES:
            for _ in range(6):
                log = simulate_transaction(netlist, delays, _random_schedule(netlist, rng))
                rows.append([list(log.transitions.items()), log.events, log.set_end,
                             log.illegal_seen, log.monotonic, log.rtz_complete,
                             sorted(zip(log.names, log.set_net_levels)), log.latency,
                             log.output_valid])
    assert (len(rows), sum(row[1] for row in rows)) == (90, 2407)
    # illegal state seen, monotonic, returned to zero
    assert [sum(row[k] for row in rows) for k in (3, 4, 5)] == [50, 36, 85]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == \
        "6013659b6442c68a76c1c90fbe2e64f1cb40b65cea7826508d96c86244b9790e"


def test_transaction_logs_keep_their_invariants():
    # each net's transitions alternate from a rise in time order, the set-end
    # levels and the flags agree with them, and every event is one transition
    for netlist in [_random_netlist(seed) for seed in range(10)] + [_LOOP]:
        rng = random.Random(f"invariants {netlist.name}")
        ids = netlist._structure.ids
        for delays in _PIN_TABLES:
            for _ in range(8):
                log = simulate_transaction(netlist, delays, _random_schedule(netlist, rng))
                want_set_levels = [0] * len(ids)
                for net, trans in log.transitions.items():
                    times = [t for t, _ in trans]
                    assert times == sorted(times), net
                    assert [v for _, v in trans] == [1 - k % 2 for k in range(len(trans))], net
                    want_set_levels[ids[net]] = next(
                        (v for t, v in reversed(trans) if t <= log.set_end), 0)
                assert log.set_net_levels == want_set_levels
                assert log.rtz_complete == all(trans[-1][1] == 0
                                               for trans in log.transitions.values())
                assert log.events == sum(map(len, log.transitions.values()))


@pytest.mark.skipif(platform.python_implementation() != "CPython",
                    reason="counts objects the CPython cyclic collector tracks")
def test_transaction_log_keeps_no_per_event_objects():
    stage = gen_stage(gen_hybrid_rca(AdderSpec(32, 2, True)))
    inputs = [(grp.name, 1, 0) for grp in stage.inputs]
    simulate_transaction(stage, DelayTable.unit(), inputs)  # builds the cached fanout table
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        log = simulate_transaction(stage, DelayTable.unit(), inputs)
        grown = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert log.events > 600 and grown < 32
    assert log.ids is stage._structure.ids  # names come from the one numbering, not a copy


def test_protocol_names_outputs_stuck_in_the_reset_phase():
    # Y's rail 1 latches, so ackout rises and never falls again
    _, summary = run_protocol(gen_stage(_LATCH), DelayTable.unit(), [{"A": 1}, {"A": 0}])
    assert (summary.completed, summary.deadlocks) == (1, [(0, ("Y",))])


# criterion 6's table: unequal kinds and a zero-delay BUF
_CRITERION_6 = DelayTable({GateKind.BUF: 0, GateKind.AND2: 1, GateKind.AND4: 2,
                           GateKind.OR2: 1, GateKind.OR3: 2, GateKind.OR4: 2,
                           GateKind.AO21: 3, GateKind.AO22: 2, GateKind.AO222: 3,
                           GateKind.C2: 2})
_LANE_NETLISTS = [gen_hybrid_rca(AdderSpec(4, 2, True)), gen_hybrid_rca(AdderSpec(2, 0, False)),
                  gen_stage(gen_hybrid_rca(AdderSpec(4, 0, True))),
                  _random_netlist(0), _random_netlist(1)]


def _lane_events(log, j):
    """(time, net, level) of each event of `log` that changed lane j, reset
    phase times counted from the set phase's end."""
    levels, rows = [0] * len(log.names), []
    for i, (ev, t) in enumerate(zip(log.trace, log.trace_times)):
        net, level = ev >> log.lanes, ev >> j & 1
        if level != levels[net]:
            levels[net] = level
            rows.append((t - (0 if i < log.set_events else log.set_end), net, level))
    return rows


def _lanes_and_runs(netlist, delays, schedule, bits):
    """One run on len(bits[0]) lanes of `schedule`'s (group, time) entries,
    entry k driving bits[k][j] on lane j, and the one-lane run of each lane."""
    m = len(bits[0])
    log = simulate_transaction(netlist, delays, [
        (g, sum(b << j for j, b in enumerate(row)), t) for (g, t), row in zip(schedule, bits)],
        lanes=m)
    runs = [simulate_transaction(netlist, delays, [(g, row[j], t) for (g, t), row
                                                   in zip(schedule, bits)]) for j in range(m)]
    return log, runs


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_a_run_on_lanes_equals_one_run_per_lane(data):
    netlist = data.draw(st.sampled_from(_LANE_NETLISTS), "netlist")
    delays = data.draw(st.sampled_from([DelayTable.unit(), _CRITERION_6, _SKEWED]), "delays")
    m = data.draw(st.integers(1, 8), "lanes")
    # a group may be listed more than once, so it can change again on some lanes
    schedule = data.draw(st.lists(st.tuples(st.sampled_from([g.name for g in netlist.inputs]),
                                            st.integers(0, 6)), min_size=1, max_size=12))
    bits = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=m, max_size=m),
                              min_size=len(schedule), max_size=len(schedule)))
    log, runs = _lanes_and_runs(netlist, delays, schedule, bits)
    for j, run in enumerate(runs):
        assert [level >> j & 1 for level in log.set_net_levels] == run.set_net_levels
        assert _lane_events(log, j) == _lane_events(run, 0)
        assert (log.illegal >> j & 1, log.nonmonotone >> j & 1, log.unreturned >> j & 1) == \
            (run.illegal_seen, not run.monotonic, not run.rtz_complete)
    assert sum(len(_lane_events(log, j)) for j in range(m)) == sum(run.events for run in runs)
    assert log.set_end == max(run.set_end for run in runs)
    # the timing fields read the slowest lane, and only when every lane is valid
    for name, since in log.output_valid.items():
        each = [run.output_valid[name] for run in runs]
        assert since == (None if None in each else max(each))
    each = [run.latency for run in runs]
    assert log.latency == (None if None in each else max(each))


@pytest.mark.parametrize("netlist", [_LANE_NETLISTS[0], _LANE_NETLISTS[2]], ids=["adder", "stage"])
def test_monitors_fire_on_the_lanes_that_break_them(netlist):
    # A0 is applied again at t=3: it rises on lane 1 and falls on lane 2,
    # and on both some rail pair is briefly high on both rails; lanes 0 and
    # 3 keep it and stay clean
    schedule = [(g.name, 0) for g in netlist.inputs] + [("A0", 3)]
    bits = [[1, 0, 1, 0] if g == "A0" else [0, 1, 1, 0] for g, _ in schedule[:-1]]
    log, runs = _lanes_and_runs(netlist, DelayTable.unit(), schedule, bits + [[1, 1, 0, 0]])
    assert (log.nonmonotone, log.illegal, log.unreturned) == (0b0110, 0b0110, 0)
    assert [(run.monotonic, run.illegal_seen) for run in runs] == \
        [(True, False), (False, True), (False, True), (True, False)]
    assert (log.monotonic, log.illegal_seen, log.rtz_complete) == (False, True, True)


def test_return_to_zero_is_a_lane_mask():
    # Y's rail 1 latches on the lanes where A is 1, and only those stay high
    log, runs = _lanes_and_runs(_LATCH, DelayTable.unit(), [("A", 0)], [[0, 1, 1, 0]])
    assert (log.unreturned, log.rtz_complete) == (0b0110, False)
    assert [run.rtz_complete for run in runs] == [True, False, False, True]


_READINGS = ("latency", "events", "illegal_seen", "monotonic", "rtz_complete")


def _readings(log) -> list:
    """The readings a `run_protocol` transaction decodes."""
    return [getattr(log, name) for name in _READINGS]


@settings(max_examples=60, deadline=None)
@given(_PROTOCOL_STAGES, _DELAY_TABLES, st.integers(1, 8), st.integers(0, 9))
def test_each_protocol_transaction_equals_its_one_lane_run(stage, delays, count, seed):
    vectors, runs = random_vectors(stage, count, seed), []

    def lane_run(*args, **kwargs):
        runs.append(kwargs["lanes"])
        return simulate_transaction(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:  # chunks of 3 lanes, the last one short
        mp.setattr(simulator, "_PROTOCOL_LANES", 3)
        mp.setattr(simulator, "simulate_transaction", lane_run)
        logs, _ = run_protocol(stage, delays, vectors)
    assert runs == [min(3, count - start) for start in range(0, count, 3)]
    assert len(logs) == count
    for log, run in zip(logs, _one_lane_runs(stage, delays, vectors)):
        assert _readings(log) == _readings(run)


@settings(max_examples=60, deadline=None)
@given(_PROTOCOL_STAGES, _DELAY_TABLES, st.integers(1, 8), st.integers(0, 9))
def test_protocol_lane_runs_are_monotone(stage, delays, count, seed):
    # run_protocol counts each lane's events from net levels, which holds only
    # if every net rises at most once in the set phase and falls at most once
    # in the reset phase, on every lane
    runs = []

    def lane_run(*args, **kwargs):
        runs.append(simulate_transaction(*args, **kwargs))
        return runs[-1]

    with pytest.MonkeyPatch.context() as mp:  # chunks of 3 lanes, the last one short
        mp.setattr(simulator, "_PROTOCOL_LANES", 3)
        mp.setattr(simulator, "simulate_transaction", lane_run)
        run_protocol(stage, delays, random_vectors(stage, count, seed))
    assert len(runs) == -(-count // 3)
    assert all(run.nonmonotone == 0 for run in runs)


def test_protocol_transactions_equal_their_one_lane_runs_across_full_chunks():
    # 1 030 vectors fill one chunk of 1 024 lanes and a second of 6
    stage = gen_stage(gen_hybrid_rca(AdderSpec(4, 2, True)))
    vectors, lanes = random_vectors(stage, 1030, 11), []

    def lane_run(*args, **kwargs):
        lanes.append(kwargs["lanes"])
        return simulate_transaction(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "simulate_transaction", lane_run)
        logs, summary = run_protocol(stage, _SKEWED, vectors)
    assert lanes == [1024, 6] and summary.completed == 1030
    assert [_readings(log) for log in logs] == \
        [_readings(run) for run in _one_lane_runs(stage, _SKEWED, vectors)]


def test_protocol_views_hold_only_their_readings():
    stage = gen_stage(gen_hybrid_rca(AdderSpec(4, 2, True)))
    vectors, refs = random_vectors(stage, 7, 5), []

    def lane_run(*args, **kwargs):
        run = simulate_transaction(*args, **kwargs)
        refs.append(weakref.ref(run))
        return run

    with pytest.MonkeyPatch.context() as mp:  # chunks of 3 lanes, the last one short
        mp.setattr(simulator, "_PROTOCOL_LANES", 3)
        mp.setattr(simulator, "simulate_transaction", lane_run)
        logs, _ = run_protocol(stage, _CRITERION_6, vectors)
    gc.collect()
    assert len(refs) == 3 and all(ref() is None for ref in refs)
    # no stage, delay table, inputs or log: a view is its decoded readings
    assert all(list(vars(log)) == list(_READINGS) for log in logs)


@pytest.mark.parametrize("bad, message", [
    ({"B": 1, "CIN": 0}, "transaction 1 has no bit for input group 'A'"),
    ({"A": 1, "B": 1, "CIN": 1, "X": 1},
     "transaction 1 names input group 'X', which 'safa_stage' does not have"),
    ({"A": 2, "B": 1, "CIN": 0}, "transaction 1: input group 'A' drives bit 2; bits are 0 or 1"),
    ({"A": 1, "B": -1, "CIN": 0}, "transaction 1: input group 'B' drives bit -1; bits are 0 or 1"),
    ({"A": 1, "B": 1, "CIN": 1.0},
     "transaction 1: input group 'CIN' drives bit 1.0; bits are 0 or 1"),
    ({"A": "1", "B": 1, "CIN": 0},
     "transaction 1: input group 'A' drives bit '1'; bits are 0 or 1"),
], ids=["missing", "unknown", "two", "negative", "float", "str"])
def test_protocol_refuses_a_bad_vector_before_any_run(bad, message, monkeypatch):
    # a bit other than 0 or 1 would spill into the next lane once packed
    monkeypatch.setattr(simulator, "simulate_transaction", lambda *a, **k: pytest.fail("ran"))
    with pytest.raises(ValueError) as exc:
        run_protocol(gen_stage(gen_safa()), DelayTable.unit(), [{"A": 1, "B": 0, "CIN": 1}, bad])
    assert exc.value.args == (message,)


def test_protocol_takes_bools_as_bits():
    stage = gen_stage(gen_safa())
    ints = [{"A": 1, "B": 0, "CIN": 1}, {"A": 0, "B": 0, "CIN": 0}]
    bools = [{g: bool(bit) for g, bit in vec.items()} for vec in ints]
    (by_int, summary), (by_bool, same) = (run_protocol(stage, DelayTable.unit(), vecs)
                                          for vecs in (ints, bools))
    assert summary == same and by_int == by_bool


@pytest.mark.parametrize("value", [True, 2.5, "3"], ids=["bool", "float", "str"])
@pytest.mark.parametrize("call, name", [
    (lambda value: random_vectors(gen_safa(), value), "count"),
    (lambda value: classify_indication(gen_safa(), DelayTable.unit(), value), "trials"),
], ids=["random_vectors", "classify_indication"])
def test_a_count_that_is_not_an_int_is_refused(call, name, value):
    with pytest.raises(ValueError) as exc:
        call(value)
    assert exc.value.args == (f"{name} must be an int, got {value!r}",)
