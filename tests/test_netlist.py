import gc
import inspect
import itertools
import platform
import random
import re
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dradder
from dradder import netlist as netlist_module
from dradder.netlist import ARITY, GATE_AT, Gate, GateKind, Netlist, PortGroup


def test_arity_table():
    assert ARITY[GateKind.BUF] == 1
    assert ARITY[GateKind.AND2] == ARITY[GateKind.OR2] == ARITY[GateKind.C2] == 2
    assert ARITY[GateKind.OR3] == ARITY[GateKind.AO21] == 3
    assert ARITY[GateKind.AND4] == ARITY[GateKind.OR4] == ARITY[GateKind.AO22] == 4
    assert ARITY[GateKind.AO222] == 6


def _own(kind, ins, held):
    """GATE_AT[kind] over a sequence `ins` of the gate's own input levels."""
    return GATE_AT[kind](ins, range(ARITY[kind]), held)


def test_eval_combinational_gates():
    assert _own(GateKind.BUF, [1], 0) == 1
    assert _own(GateKind.AND2, [1, 0], 0) == 0
    assert _own(GateKind.OR2, [1, 0], 0) == 1
    assert _own(GateKind.AND4, [1, 1, 1, 1], 0) == 1
    assert _own(GateKind.AND4, [1, 1, 0, 1], 0) == 0
    assert _own(GateKind.OR4, [0, 0, 0, 0], 0) == 0
    # AO21(a, b, c) = a*b + c
    assert _own(GateKind.AO21, [1, 1, 0], 0) == 1
    assert _own(GateKind.AO21, [1, 0, 0], 0) == 0
    assert _own(GateKind.AO21, [0, 0, 1], 0) == 1
    # AO22(a, b, c, d) = a*b + c*d
    assert _own(GateKind.AO22, [0, 1, 1, 1], 0) == 1
    assert _own(GateKind.AO22, [0, 1, 1, 0], 0) == 0
    # AO222 adds a third product term
    assert _own(GateKind.AO222, [0, 0, 0, 0, 1, 1], 0) == 1
    assert _own(GateKind.AO222, [1, 0, 0, 1, 0, 1], 0) == 0


def test_eval_c_element_holds_on_disagreement():
    # output follows inputs only when they agree, else keeps its held value
    for held in (0, 1):
        assert _own(GateKind.C2, [1, 1], held) == 1
        assert _own(GateKind.C2, [0, 0], held) == 0
        assert _own(GateKind.C2, [1, 0], held) == held
        assert _own(GateKind.C2, [0, 1], held) == held


# Truth tables written independently of GATE_AT, from the gate definitions.
REFERENCE = {
    GateKind.BUF: lambda a, held: a[0],
    GateKind.AND2: lambda a, held: all(a),
    GateKind.AND4: lambda a, held: all(a),
    GateKind.OR2: lambda a, held: any(a),
    GateKind.OR3: lambda a, held: any(a),
    GateKind.OR4: lambda a, held: any(a),
    GateKind.AO21: lambda a, held: all(a[:2]) or a[2],
    GateKind.AO22: lambda a, held: all(a[:2]) or all(a[2:]),
    GateKind.AO222: lambda a, held: any(all(a[i:i + 2]) for i in (0, 2, 4)),
    GateKind.C2: lambda a, held: 1 if all(a) else 0 if not any(a) else held,
}


@pytest.mark.parametrize("kind", list(GateKind))
def test_gate_fn_matches_truth_table_on_ints_and_arrays(kind):
    rows = list(itertools.product((0, 1), repeat=ARITY[kind] + 1))
    expect = [int(bool(REFERENCE[kind](row[:-1], row[-1]))) for row in rows]
    assert [_own(kind, list(row[:-1]), row[-1]) for row in rows] == expect
    # every input x held combination as one int lane, row j at bit j (AO222's
    # 128 combinations take more than one 64-bit word)
    cols = [sum(bit << j for j, bit in enumerate(col)) for col in zip(*rows)]
    assert _own(kind, cols[:-1], cols[-1]) == sum(e << j for j, e in enumerate(expect))
    # held=False, as the steady-state evaluator passes it, on lanes too
    assert _own(kind, cols[:-1], False) == \
        sum(bool(REFERENCE[kind](row[:-1], 0)) << j for j, row in enumerate(rows))


@pytest.mark.parametrize("kind", list(GateKind))
def test_gate_fn_is_zero_on_all_zero_inputs(kind):
    # why the steady state after the spacer is all-zero for any acyclic
    # netlist: an inverting kind would break return-to-zero and fail here
    for held in (0, 1):
        assert _own(kind, [0] * ARITY[kind], held) == 0
        # three int lanes, the output held on all of them or on none
        assert _own(kind, [0] * ARITY[kind], held * 0b111) == 0


@pytest.mark.parametrize("kind", list(GateKind))
def test_gate_fn_is_positive_unate_and_settles(kind):
    # the premise of the simulator's skip: an input that moves to the value the
    # output already holds cannot move the output. An inverting kind fails here.
    for row in itertools.product((0, 1), repeat=ARITY[kind] + 1):  # inputs, then held
        out = _own(kind, list(row[:-1]), row[-1])
        # the output, held back, is its own next value
        assert _own(kind, list(row[:-1]), out) == out
        for j in range(len(row)):
            if not row[j]:
                up = row[:j] + (1,) + row[j + 1:]
                # raising input j (or held) never lowers the output, and so
                # lowering it from `up` back to `row` never raises it
                assert _own(kind, list(up[:-1]), up[-1]) >= out


@pytest.mark.parametrize("kind", list(GateKind))
def test_gate_at_reads_levels_at_the_given_positions(kind):
    # input k of the gate sits at position 2 * (arity - k) - 1 and every other
    # level is 2, so a read of a wrong position changes the output of some row
    arity = ARITY[kind]
    pos = tuple(2 * (arity - k) - 1 for k in range(arity))
    for row in itertools.product((0, 1), repeat=arity + 1):
        levels = [2] * (2 * arity + 1)
        for p, v in zip(pos, row[:-1]):
            levels[p] = v
        assert GATE_AT[kind](levels, pos, row[-1]) == REFERENCE[kind](row[:-1], row[-1])


def test_gate_at_is_the_one_exported_gate_table():
    assert dradder.GATE_AT is GATE_AT


def test_eval_rejects_wrong_arity():
    gates = [Gate("g3", GateKind.AND2, ("a", "b", "a"), "y")]
    bad = Netlist(name="bad", gates=gates, inputs=[PortGroup("A", "a"), PortGroup("B", "b")],
                  outputs=[PortGroup("Y", "y")])
    with pytest.raises(ValueError, match="gate 'g3': AND2 takes 2 inputs, got 3"):
        bad.topo_gates()
    with pytest.raises(ValueError, match="gate 'g3': AND2 takes 2 inputs, got 3"):
        Netlist.from_dict(bad.to_dict())
    # validate() reports it rather than raising
    assert "gate 'g3': AND2 takes 2 inputs, got 3" in bad.validate()


def test_gate_without_inputs_is_reported_not_raised():
    bad = Netlist("empty", [Gate("g", GateKind.BUF, (), "y")], [], [PortGroup("Y", "y")])
    assert bad.validate() == ["gate 'g': BUF takes 1 inputs, got 0"]
    with pytest.raises(ValueError, match="BUF takes 1 inputs, got 0"):
        bad.topo_gates()


def test_every_route_rejects_a_wrong_arity_gate():
    from dradder.simulator import DelayTable, simulate_transaction
    from dradder.timing import critical_path
    from dradder.verification import steady_set_levels

    # an extra input the simulator, STA and the steady-state evaluator must
    # not silently drop; AND2(a, b, 0) would otherwise pass for AND2(a, b)
    bad = Netlist(
        name="bad",
        gates=[Gate("g0", GateKind.BUF, ("a",), "x"),
               Gate("g3", GateKind.AND2, ("x", "b", "c"), "y")],
        inputs=[PortGroup("A", "a"), PortGroup("B", "b"), PortGroup("C", "c")],
        outputs=[PortGroup("Y", "y")],
    )
    message = "gate 'g3': AND2 takes 2 inputs, got 3"
    with pytest.raises(ValueError, match=message):
        simulate_transaction(bad, DelayTable.unit(), [("A", 1, 0), ("B", 1, 0)])
    with pytest.raises(ValueError, match=message):
        critical_path(bad, DelayTable.unit())
    with pytest.raises(ValueError, match=message):
        steady_set_levels(bad, {"a": 0b11, "b": 0b11}, 2)


def test_every_order_route_rejects_a_two_driver_net():
    from dradder.generators import AdderSpec, gen_hybrid_rca
    from dradder.simulator import DelayTable
    from dradder.timing import critical_path
    from dradder.verification import exhaustive_verify, steady_set_levels

    adder = gen_hybrid_rca(AdderSpec(2, 2, True))
    first = adder.gates[0]
    extra = Gate("extra", GateKind.BUF, (adder.input_nets[0],), first.output)
    bad = Netlist("two", [*adder.gates, extra], adder.inputs, adder.outputs)
    message = f"net {first.output!r} has multiple drivers: [{first.id!r}, 'extra']"
    for route in (bad.topo_gates, lambda: critical_path(bad, DelayTable.unit()),
                  lambda: steady_set_levels(bad, {}, 1), lambda: exhaustive_verify(bad, 2)):
        with pytest.raises(ValueError) as info:
            route()
        assert str(info.value) == message
    assert message in bad.validate()  # validate() reports rather than raises

    driven_input = Netlist("driven", [Gate("g", GateKind.BUF, ("a",), "b")],
                           inputs=[PortGroup("A", "a"), PortGroup("B", "b")],
                           outputs=[PortGroup("Y", "b")])
    with pytest.raises(ValueError, match=r"net 'b' is both a primary input and driven by \['g'\]"):
        driven_input.topo_gates()


def _tiny_netlist() -> Netlist:
    gates = [
        Gate("g1", GateKind.AND2, ("a", "b"), "g1"),
        Gate("g2", GateKind.OR2, ("g1", "c"), "g2"),
    ]
    return Netlist(
        name="tiny",
        gates=gates,
        inputs=[PortGroup("A", "a"), PortGroup("B", "b"), PortGroup("C", "c")],
        outputs=[PortGroup("Y", "g2")],
    )


def test_validate_clean_netlist():
    assert _tiny_netlist().validate() == []


def test_validate_flags_duplicate_gate_ids():
    n = _tiny_netlist()
    bad = Netlist(
        name="dup",
        gates=list(n.gates) + [Gate("g1", GateKind.BUF, ("c",), "g3")],
        inputs=n.inputs,
        outputs=n.outputs,
    )
    report = bad.validate()
    assert any("duplicate" in m for m in report)
    assert not any("cycle" in m for m in report)
    with pytest.raises(ValueError, match="duplicate gate id 'g1'"):
        bad.topo_gates()
    with pytest.raises(ValueError, match="duplicate gate id 'g1'"):
        Netlist.from_dict(bad.to_dict())


def test_every_route_rejects_a_duplicate_gate_id():
    from dradder.simulator import DelayTable
    from dradder.timing import critical_path
    from dradder.verification import steady_set_levels

    # two gates named g0 end tied maximum-arrival paths: STA would report
    # path ('g0',) with whichever kind its walk met first
    dup = Netlist("dup", [Gate("g0", GateKind.OR2, ("ghost", "ghost"), "n0"),
                          Gate("g0", GateKind.OR3, ("ghost", "ghost", "i0"), "n1")],
                  [PortGroup("I0", "i0")], [PortGroup("O0", "n1"), PortGroup("O1", "n0")])
    message = "duplicate gate id 'g0'"
    for route in (dup.topo_gates, lambda: critical_path(dup, DelayTable.unit()),
                  lambda: steady_set_levels(dup, {"i0": 0b11}, 2),
                  lambda: dup._fanout):
        with pytest.raises(ValueError) as info:
            route()
        assert str(info.value) == message
    assert message in dup.validate()  # validate() reports rather than raises


def test_validate_flags_multiple_drivers():
    gates = [Gate("g1", GateKind.BUF, ("a",), "y"), Gate("g2", GateKind.BUF, ("b",), "y")]
    ports = [PortGroup("A", "a"), PortGroup("B", "b")]
    multi = "net 'y' has multiple drivers: ['g1', 'g2']"
    # a primary input driven by two gates gets both findings, each naming both
    for inputs, expect in [
        (ports, [multi]),
        (ports + [PortGroup("Y", "y")],
         [multi, "net 'y' is both a primary input and driven by ['g1', 'g2']"]),
    ]:
        bad = Netlist("multi", gates, inputs, outputs=[PortGroup("Y", "y")])
        assert bad.validate() == expect
        with pytest.raises(ValueError, match=re.escape(multi)):
            bad.topo_gates()


def test_validate_flags_undriven_net():
    bad = Netlist(
        name="undriven",
        gates=[Gate("g1", GateKind.AND2, ("a", "ghost"), "y")],
        inputs=[PortGroup("A", "a")],
        outputs=[PortGroup("Y", "y")],
    )
    assert any("undriven" in m or "ghost" in m for m in bad.validate())


def test_validate_flags_combinational_cycle():
    bad = Netlist(
        name="cycle",
        gates=[
            Gate("g1", GateKind.OR2, ("a", "g2"), "g1"),
            Gate("g2", GateKind.BUF, ("g1",), "g2"),
        ],
        inputs=[PortGroup("A", "a")],
        outputs=[PortGroup("Y", "g1")],
    )
    assert any("cycle" in m.lower() for m in bad.validate())


def test_validate_reports_every_finding_kind_in_order():
    # one netlist with each finding kind; the report lists them by kind, and
    # within a kind in gate, driver or port order
    bad = Netlist(
        name="every",
        gates=[
            Gate("g1", GateKind.AND2, ("a1", "b"), "x"),
            Gate("g1", GateKind.BUF, ("a0",), "w"),
            Gate("g2", GateKind.OR2, ("x", "a1", "b"), "y"),
            Gate("g3", GateKind.BUF, ("x",), "y"),
            Gate("g4", GateKind.BUF, ("b",), "a0"),
            Gate("g5", GateKind.AND2, ("x", "ghost"), "d"),
            Gate("g6", GateKind.OR2, ("x", "c2"), "c1"),
            Gate("g7", GateKind.BUF, ("c1",), "c2"),
        ],
        inputs=[PortGroup("A", "a1", "a0"), PortGroup("B", "b")],
        outputs=[PortGroup("Y", "y"), PortGroup("Z", "zghost", "c1")],
    )
    assert bad.validate() == [
        "duplicate gate id 'g1'",
        "gate 'g2': OR2 takes 2 inputs, got 3",
        "net 'y' has multiple drivers: ['g2', 'g3']",
        "net 'a0' is both a primary input and driven by ['g4']",
        "gate 'g5' input net 'ghost' has no driver",
        "port group 'Z' references undriven net 'zghost'",
        "net 'w' dangles: no fanout and not a primary output",
        "net 'd' dangles: no fanout and not a primary output",
        "gate graph contains a cycle",
    ]
    # the routes that raise take the first duplicate id or wrong input count
    for route in (bad.topo_gates, lambda: bad._fanout,
                  lambda: Netlist.from_dict(bad.to_dict())):
        with pytest.raises(ValueError, match="duplicate gate id 'g1'"):
            route()
    # without the duplicate, the wrong input count comes before the two drivers
    rest = _reordered(bad, bad.gates[:1] + bad.gates[2:])
    with pytest.raises(ValueError, match="gate 'g2': OR2 takes 2 inputs, got 3"):
        rest.topo_gates()


def test_topological_order_respects_edges():
    n = _tiny_netlist()
    order = [g.id for g in n.topo_gates()]
    assert order.index("g1") < order.index("g2")


def test_topological_order_is_derived_once():
    n = _tiny_netlist()
    assert n.validate() == []
    assert n.topo_gates() is n.topo_gates()


@pytest.mark.parametrize("width, safa, stage", [
    (32, 2, True), (128, 0, True), (128, 128, True), (1024, 2, False),
])
def test_topological_order_of_generated_netlists_is_pinned(width, safa, stage):
    # every generated gate follows its drivers, so the depth-first order that
    # STA and the steady-state evaluator walk as the structure pass's
    # positions is the gate list itself
    from dradder.generators import AdderSpec, gen_hybrid_rca, gen_stage

    n = gen_hybrid_rca(AdderSpec(width, safa, True))
    n = gen_stage(n) if stage else n
    assert n.topo_gates() == n.gates


def _reordered(n: Netlist, gates) -> Netlist:
    return Netlist(n.name, gates, n.inputs, n.outputs, n.ackin, n.ackout)


def _respects_edges(n: Netlist) -> bool:
    order = n.topo_gates()
    at = {g.output: k for k, g in enumerate(order)}
    return sorted(order) == sorted(n.gates) and all(
        at[x] < k for k, g in enumerate(order) for x in g.inputs if x in at)


def _recursive_post_order(n: Netlist) -> list[str]:
    """The depth-first post-order by plain recursion, the reference the
    iterative walk is checked against: gates in list order, each gate's
    drivers in input order first."""
    driver = {g.output: g for g in reversed(n.gates)}
    order: list[str] = []
    placed: set[str] = set()

    def visit(g: Gate) -> None:
        if g.id not in placed:
            for x in g.inputs:
                if x in driver:
                    visit(driver[x])
            placed.add(g.id)
            order.append(g.id)

    for g in n.gates:
        visit(g)
    return order


def test_depth_first_order_of_a_shuffled_netlist_is_pinned():
    from dradder.generators import AdderSpec, gen_hybrid_rca

    adder = gen_hybrid_rca(AdderSpec(2, 2, True))
    gates = list(adder.gates)
    random.Random(7).shuffle(gates)
    n = _reordered(adder, gates)
    assert [g.id for g in n.topo_gates()] == [
        "safa1/cg2", "safa0/cg2", "safa0/cg3", "safa1/sc3", "safa1/cg1", "safa1/sc2",
        "safa0/cg4", "safa1/sc4", "safa0/sc3", "safa0/sc1", "safa0/cg1", "safa0/sc2",
        "safa0/sum1", "safa1/sum0", "safa1/sc1", "safa0/sc4", "safa0/sum0", "safa1/sum1",
        "safa1/cg4", "safa1/cg3",
    ]
    assert [g.id for g in n.topo_gates()] == _recursive_post_order(n)
    assert _respects_edges(n)


@pytest.mark.parametrize("width, safa", [(4, 0), (4, 2), (4, 4), (32, 0), (32, 2), (32, 32)])
def test_out_of_order_stages_check_like_ordered_ones(width, safa):
    from dradder.generators import AdderSpec, gen_hybrid_rca, gen_stage
    from dradder.simulator import DelayTable
    from dradder.timing import critical_path
    from dradder.verification import exhaustive_verify, steady_set_levels

    stage = gen_stage(gen_hybrid_rca(AdderSpec(width, safa, True)))
    shuffled = list(stage.gates)
    random.Random(width * 1000 + safa).shuffle(shuffled)
    rng = random.Random(safa)
    lanes = {x: rng.getrandbits(64) for x in stage.input_nets if x != stage.ackin}
    kwargs = {} if width == 4 else {"mode": "random", "count": 256, "seed": safa}
    expect = (critical_path(stage, DelayTable.unit()), steady_set_levels(stage, lanes, 64),
              exhaustive_verify(stage, width, **kwargs))
    assert expect[2].passed
    for gates in (stage.gates[::-1], shuffled):
        n = _reordered(stage, gates)
        assert n.validate() == []
        assert _respects_edges(n)
        assert [g.id for g in n.topo_gates()] == _recursive_post_order(n)
        assert critical_path(n, DelayTable.unit()) == expect[0]
        levels = steady_set_levels(n, lanes, 64)
        assert levels.keys() == expect[1].keys()
        assert all(levels[x] == expect[1][x] for x in levels)
        assert exhaustive_verify(n, width, **kwargs) == expect[2]


def test_out_of_order_path_detects_every_cycle():
    buf, or2 = GateKind.BUF, GateKind.OR2
    # each case but the first reads a later gate's output first, so the walk
    # goes deep; in the first only the self-read sends the list to the walk
    prefix = [Gate("p1", buf, ("p0",), "p1"), Gate("p0", buf, ("a",), "p0")]
    cases = {
        "reads its own output": [Gate("q", buf, ("a",), "q"), Gate("s", or2, ("q", "s"), "s")],
        "self-loop": [*prefix, Gate("s", or2, ("p1", "s"), "s")],
        "after an acyclic prefix": [*prefix, Gate("c1", or2, ("p1", "c2"), "c1"),
                                    Gate("c2", buf, ("c1",), "c2")],
        "unreached from earlier gates": [*prefix, Gate("u1", buf, ("u2",), "u1"),
                                         Gate("u2", buf, ("u1",), "u2")],
    }
    for case, gates in cases.items():
        n = Netlist("loop", gates, [PortGroup("A", "a")],
                    [PortGroup("Y", g.output) for g in gates])
        assert n.validate() == ["gate graph contains a cycle"], case
        with pytest.raises(ValueError, match="contains a cycle"):
            n.topo_gates()
        # a cyclic netlist still gets a fanout table: every gate has an entry
        assert {out for readers in n._fanout[0] for _, _, out, _ in readers} == \
            {n._structure.ids[g.output] for g in gates}
    acyclic = Netlist("ok", prefix, [PortGroup("A", "a")], [PortGroup("Y", "p1")])
    assert [g.id for g in acyclic.topo_gates()] == ["p0", "p1"]


def _walk(n: Netlist) -> list[Gate]:
    """The gates in the depth-first walk's order, with `_post_order`'s
    ordered-list check forced to fail."""
    s = n._structure
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(netlist_module, "lt", lambda a, b: False)
        positions = netlist_module._post_order(s.src, s.off, s.base)
    return list(map(n.gates.__getitem__, positions))


def _follows_drivers(n: Netlist) -> bool:
    at = {g.output: k for k, g in enumerate(n.gates)}
    return all(at.get(x, -1) < k for k, g in enumerate(n.gates) for x in g.inputs)


@st.composite
def _listed_dags(draw):
    """A small single-driver DAG over two inputs and an undriven net, its
    gates listed as built (each after its drivers) or in any order."""
    kinds = [GateKind.BUF, GateKind.AND2, GateKind.OR3, GateKind.AO22]
    nets = ["a", "b", "ghost"]
    gates = []
    for k in range(draw(st.integers(1, 9))):
        kind = draw(st.sampled_from(kinds))
        ins = draw(st.lists(st.sampled_from(nets), min_size=ARITY[kind], max_size=ARITY[kind]))
        gates.append(Gate(f"g{k}", kind, tuple(ins), f"n{k}"))
        nets.append(f"n{k}")
    if draw(st.booleans()):
        gates = draw(st.permutations(gates))
    return Netlist("dag", gates, [PortGroup("A", "a"), PortGroup("B", "b")],
                   [PortGroup("Y", nets[-1])])


@settings(max_examples=100, deadline=None)
@given(_listed_dags())
def test_ordered_lists_skip_the_walk_and_others_take_it(n):
    order = n.topo_gates()
    assert list(order) == _walk(n)
    assert [g.id for g in order] == _recursive_post_order(n)
    # the gate list itself exactly when every gate follows its drivers
    assert (order == n.gates) == _follows_drivers(n)
    assert (order is n.gates) == _follows_drivers(n)


def test_gate_moved_before_its_driver_takes_the_walk():
    from dradder.generators import AdderSpec, gen_hybrid_rca, gen_stage

    stage = gen_stage(gen_hybrid_rca(AdderSpec(8, 2, True)))
    gates = list(stage.gates)
    moved = gates.pop(next(k for k, g in enumerate(gates) if g.id == "safa1/cg3"))
    n = _reordered(stage, [moved, *gates])
    ids = [g.id for g in n.topo_gates()]
    assert n.validate() == [] and n.topo_gates() != n.gates
    # the moved gate's drivers' cones first, each in input order, then the
    # moved gate, then the rest as listed
    head = [
        "reg/a1_1", "reg/b1_1", "reg/b1_0", "reg/a1_0", "safa1/cg2",
        "reg/a0_1", "reg/b0_1", "reg/b0_0", "reg/a0_0", "safa0/cg2", "reg/cin_1", "safa0/cg3",
        "safa1/cg3",
    ]
    assert ids == head + [g.id for g in gates if g.id not in head]
    assert ids == _recursive_post_order(n) == [g.id for g in _walk(n)]
    assert _respects_edges(n)


def test_reversed_wide_stage_orders_without_recursion():
    from dradder.generators import AdderSpec, gen_hybrid_rca, gen_stage

    stage = gen_stage(gen_hybrid_rca(AdderSpec(1024, 2, True)))
    n = _reordered(stage, stage.gates[::-1])
    assert n.validate() == []
    assert _respects_edges(n)


def _traced(f):
    """f()'s result, the bytes it left allocated and the most it had allocated at once."""
    tracemalloc.start()
    try:
        return (f(), *tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()


@pytest.mark.skipif(platform.python_implementation() != "CPython",
                    reason="counts objects the CPython cyclic collector tracks")
def test_structure_and_timing_keep_no_per_gate_containers():
    from dradder.generators import AdderSpec, gen_hybrid_rca, gen_stage
    from dradder.simulator import DelayTable
    from dradder.timing import critical_path

    stage = gen_stage(gen_hybrid_rca(AdderSpec(256, 2, True)))
    count, unit = len(stage.gates), DelayTable.unit()
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        problems, held, peak = _traced(stage.validate)
        cp, _, sta_peak = _traced(lambda: critical_path(stage, unit))
        grown = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert problems == [] and len(cp.path) > 100 and grown < 32
    # on the way, beyond what the structure keeps (src, off, ids), the
    # passes hold a few flat lists and sets: less than one more container
    # per gate would take (an empty list alone is 56 bytes)
    assert peak - held < 120 * count and sta_peak < 48 * count

    # the ordered-list check holds a few iterators whatever the gate count;
    # the walk, on the reversed list, holds arrays over the gates
    s = stage._structure
    positions, _, check_peak = _traced(lambda: netlist_module._post_order(s.src, s.off, s.base))
    assert positions == range(count) and check_peak < 1024
    r = _reordered(stage, stage.gates[::-1])._structure
    _, _, walk_peak = _traced(lambda: netlist_module._post_order(r.src, r.off, r.base))
    assert walk_peak > 8 * count


@pytest.mark.parametrize("stage", [False, True], ids=["adder", "stage"])
def test_sweep_memory_is_bounded_by_the_live_nets(stage):
    # 200 000 vectors at width 32 make one chunk of 3125 words, 25 KB per
    # net: about 23 MiB (adder) or 28 MiB (stage) traced at the peak when every
    # net's level is held whole to the end of the walk. Cut down to its
    # sampled words after its last reader, a net that is not a port is
    # whole only while it is live
    from dradder.generators import AdderSpec, gen_hybrid_rca, gen_stage
    from dradder.verification import exhaustive_verify

    n = gen_hybrid_rca(AdderSpec(32, 2, True))
    if stage:
        n = gen_stage(n)
    res, _, peak = _traced(lambda: exhaustive_verify(n, 32, mode="random", count=200_000))
    assert res.passed and res.checked == 200_000 and res.sim_checked == 32
    assert peak < 12 << 20


def test_last_reader_table_follows_the_walk():
    # every net dies once: after the last walk step that reads it, a gate
    # output nothing reads at its own step, and a port never during the
    # walk; on the gate list as built, reversed and shuffled. validate()
    # and STA do not build the table
    from dradder.generators import AdderSpec, gen_hybrid_rca, gen_stage
    from dradder.simulator import DelayTable
    from dradder.timing import critical_path

    built = gen_stage(gen_hybrid_rca(AdderSpec(4, 2, True)))
    shuffled = list(built.gates)
    random.Random(3).shuffle(shuffled)
    for n in (built, _reordered(built, built.gates[::-1]), _reordered(built, shuffled)):
        assert n.validate() == [] and critical_path(n, DelayTable.unit()).path
        assert "_dies_after" not in n.__dict__
        walk, dies, names = n.topo_gates(), n._dies_after, list(n._structure.ids)
        assert len(dies) == len(walk) + 1
        assert sorted(itertools.chain(*dies)) == list(range(len(names)))
        assert {names[j] for j in dies[-1]} == set(n.input_nets) | set(n.output_nets)
        for t, g in enumerate(walk):
            for net in map(names.__getitem__, dies[t]):
                assert net == g.output or net in g.inputs
                assert not any(net in later.inputs for later in walk[t + 1:])


_CPYTHON_GC = pytest.mark.skipif(platform.python_implementation() != "CPython",
                                 reason="watches the CPython cyclic collector")


def _paused_routines():
    """The four routines that run with the cyclic collector paused, as
    (name, call on a netlist) pairs; gen_hybrid_rca ignores its netlist."""
    from dradder.generators import AdderSpec, gen_hybrid_rca, gen_stage
    from dradder.simulator import DelayTable
    from dradder.timing import critical_path

    return [("gen_hybrid_rca", lambda n: gen_hybrid_rca(AdderSpec(8, 2, True))),
            ("gen_stage", gen_stage),
            ("_structure", lambda n: n._structure),
            ("critical_path", lambda n: critical_path(n, DelayTable.unit()))]


def _fresh_adder() -> Netlist:
    from dradder.generators import AdderSpec, gen_hybrid_rca

    return gen_hybrid_rca(AdderSpec(8, 2, True))


@_CPYTHON_GC
def test_collector_is_on_again_after_each_paused_routine():
    for name, routine in _paused_routines():
        assert gc.isenabled()
        routine(_fresh_adder())
        assert gc.isenabled(), name


@_CPYTHON_GC
def test_collector_is_on_again_after_a_paused_routine_raises():
    from dradder.generators import gen_completion_detector, gen_stage
    from dradder.simulator import DelayTable
    from dradder.timing import critical_path

    with pytest.raises(ValueError, match="scalar port groups"):
        gen_stage(gen_completion_detector(2))
    assert gc.isenabled()
    adder = _fresh_adder()
    extra = Gate("extra", GateKind.BUF, (adder.input_nets[0],), adder.gates[0].output)
    bad = Netlist("two", [*adder.gates, extra], adder.inputs, adder.outputs)
    with pytest.raises(ValueError, match="multiple drivers"):
        critical_path(bad, DelayTable.unit())
    assert gc.isenabled()


@_CPYTHON_GC
def test_a_collector_the_caller_disabled_stays_disabled():
    from dradder.simulator import DelayTable
    from dradder.timing import critical_path

    class Watched(dict):  # records the collector's state at each delay lookup
        def __getitem__(self, kind):
            seen.append(gc.isenabled())
            return super().__getitem__(kind)

    seen: list[bool] = []
    unit = DelayTable(Watched(DelayTable.unit().delays))
    # critical_path reads its delays after topo_gates() has run _structure,
    # whose own pause must not turn the collector back on
    seen.clear()
    critical_path(_fresh_adder(), unit)
    assert seen and not any(seen) and gc.isenabled()

    gc.disable()
    try:
        for name, routine in _paused_routines():
            routine(_fresh_adder())
            assert not gc.isenabled(), name
        seen.clear()
        critical_path(_fresh_adder(), unit)
        assert seen and not any(seen) and not gc.isenabled()
    finally:
        gc.enable()


def test_paused_property_still_caches():
    n = _fresh_adder()
    assert n._structure is n._structure


def test_paused_functions_keep_their_names_signatures_and_docs():
    from dradder.generators import gen_hybrid_rca, gen_stage
    from dradder.timing import critical_path

    for fn, module, signature, doc in [
        (gen_hybrid_rca, "dradder.generators", "(spec: 'AdderSpec') -> 'Netlist'",
         "Ripple-carry adder: SAFAs at bits 0..s-1, DAFAs above, carry chained."),
        (gen_stage, "dradder.generators", "(fb: 'Netlist') -> 'Netlist'",
         "Wrap a function block into a 4-phase handshake stage."),
        (critical_path, "dradder.timing", "(n: 'Netlist', d: 'DelayTable') -> 'CriticalPath'",
         "Longest weighted input-to-data-output path through the gate DAG."),
    ]:
        assert fn.__module__ == module and fn.__qualname__ == fn.__name__
        assert str(inspect.signature(fn)) == signature
        assert fn.__doc__.splitlines()[0] == doc
        assert fn.__doc__ == inspect.unwrap(fn).__doc__
    assert Netlist._structure.__doc__.startswith("Everything known about the gate graph")


@_CPYTHON_GC
def test_no_collection_starts_inside_a_paused_routine():
    from dradder.generators import AdderSpec, gen_hybrid_rca, gen_stage
    from dradder.simulator import DelayTable
    from dradder.timing import critical_path

    codes = {inspect.unwrap(f).__code__
             for f in (gen_hybrid_rca, gen_stage, critical_path,
                       Netlist._structure.func)}
    inside: list[str] = []

    def watch(phase, info):
        if phase == "start":
            frame = sys._getframe(1)  # the frame whose allocation set it off
            while frame is not None and frame.f_code not in codes:
                frame = frame.f_back
            if frame is not None:
                inside.append(frame.f_code.co_name)

    gc.callbacks.append(watch)
    try:
        stage = gen_stage(gen_hybrid_rca(AdderSpec(256, 2, True)))
        problems = stage.validate()
        cp = critical_path(stage, DelayTable.unit())
    finally:
        gc.callbacks.remove(watch)
    assert problems == [] and cp.path
    assert inside == []


@_CPYTHON_GC
def test_generated_stages_hold_no_reference_cycle():
    from dradder.generators import AdderSpec, gen_hybrid_rca, gen_stage
    from dradder.simulator import DelayTable
    from dradder.timing import critical_path

    gc.collect()
    gc.disable()
    try:
        stage = gen_stage(gen_hybrid_rca(AdderSpec(32, 2, True)))
        problems = stage.validate()
        cp = critical_path(stage, DelayTable.unit())
        fanout = stage._fanout
        del stage, cp, fanout
        freed = gc.collect()
    finally:
        gc.enable()
    assert problems == [] and freed == 0


def _numbering(n: Netlist) -> list[str]:
    """Check the one net numbering on `n`; returns the nets no gate drives
    and no input names, in id order."""
    s = n._structure
    ids, base, count = s.ids, s.base, len(n.gates)
    inputs = list(dict.fromkeys(n.input_nets))
    assert base == len(inputs)
    assert [ids[net] for net in inputs] == list(range(base))
    assert [ids[g.output] for g in n.gates] == list(range(base, base + count))
    assert s.src == [ids[net] for g in n.gates for net in g.inputs]
    known = {*inputs, *(g.output for g in n.gates)}
    rest = list(dict.fromkeys(net for net in itertools.chain(
        *(g.inputs for g in n.gates), n.output_nets) if net not in known))
    assert [ids[net] for net in rest] == list(range(base + count, len(ids)))
    # ids run in insertion order, so a log's names, tuple(ids), read them by id
    assert list(ids.values()) == list(range(len(ids)))
    # the simulator's table has a row per id: each gate once per input it
    # reads, with its inputs by position, and each port rail's partner
    fanout, partner = n._fanout
    assert len(fanout) == len(partner) == len(ids)
    assert sorted((j, out) for j, readers in enumerate(fanout) for _, _, out, _ in readers) \
        == sorted((j, base + k) for k in range(count) for j in s.src[s.off[k]:s.off[k + 1]])
    assert all(pos == tuple(s.src[s.off[out - base]:s.off[out - base + 1]])
               for readers in fanout for _, pos, out, _ in readers)
    pairs = [(ids[g.rail1], ids[g.rail0]) for g in n.inputs + n.outputs if not g.scalar]
    assert {(j, other) for j, other in enumerate(partner) if other is not None} == \
        {*pairs, *((b, a) for a, b in pairs)}
    return rest


def test_nets_are_numbered_inputs_then_drivers_then_undriven():
    from dradder.generators import AdderSpec, gen_hybrid_rca, gen_stage
    from test_simulator import _random_netlist

    for seed in range(10):
        assert _numbering(_random_netlist(seed)) == []
    stage = gen_stage(gen_hybrid_rca(AdderSpec(4, 2, True)))
    assert _numbering(_reordered(stage, stage.gates[::-1])) == []
    holes = Netlist("holes", [Gate("g", GateKind.AND2, ("a", "ghost"), "y1"),
                              Gate("h", GateKind.BUF, ("ghost",), "z")],
                    [PortGroup("A", "a")], [PortGroup("Y", "y1", "y0"), PortGroup("Z", "z")],
                    ackin="ai", ackout="ao")
    assert _numbering(holes) == ["ghost", "y0", "ao"]
    assert holes.validate() == ["gate 'g' input net 'ghost' has no driver",
                                "gate 'h' input net 'ghost' has no driver",
                                "port group 'Y' references undriven net 'y0'"]
    assert holes.topo_gates() is holes.gates


def test_gate_census_counts_every_kind():
    n = _tiny_netlist()
    census = n.gate_census()
    assert census[GateKind.AND2] == 1
    assert census[GateKind.OR2] == 1
    assert census[GateKind.AO222] == 0
    assert set(census) == set(GateKind)


def test_json_roundtrip(tmp_path):
    n = _tiny_netlist()
    path = tmp_path / "tiny.netlist.json"
    n.save(path)
    back = Netlist.load(path)
    assert back.name == n.name
    assert back.gates == tuple(n.gates)
    assert [p.name for p in back.inputs] == [p.name for p in n.inputs]
    assert [p.name for p in back.outputs] == [p.name for p in n.outputs]
    assert back.validate() == []


def test_scalar_and_dual_rail_port_groups():
    scalar = PortGroup("GO", "go")
    pair = PortGroup("A", "a1", "a0")
    assert scalar.scalar
    assert not pair.scalar
    assert scalar.rails() == ("go",) and pair.rails() == ("a1", "a0")


def test_gates_and_port_groups_are_immutable_values():
    from dradder.generators import AdderSpec, gen_hybrid_rca, gen_stage

    gate, grp = Gate("g1", GateKind.AND2, ("a", "b"), "g1"), PortGroup("A", "a1", "a0")
    for value, twin in ((gate, Gate("g1", GateKind.AND2, ("a", "b"), "g1")),
                        (grp, PortGroup("A", "a1", "a0"))):
        assert value == twin and hash(value) == hash(twin)
    with pytest.raises(AttributeError):
        gate.output = "z"
    with pytest.raises(AttributeError):
        grp.rail0 = None
    n = gen_stage(gen_hybrid_rca(AdderSpec(8, 2, True)))
    assert Netlist.from_dict(n.to_dict()).gates == n.gates
