import functools
import hashlib
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dradder.generators import AdderSpec, gen_hybrid_rca, gen_stage
from dradder.netlist import ARITY, Gate, GateKind, Netlist, PortGroup
from dradder.simulator import DelayTable
from dradder.timing import (
    BASELINE,
    LEGENDS,
    REDUCTION_DISCREPANCIES,
    CriticalPath,
    LatencyExpr,
    compare_report,
    critical_path,
    hybrid_latency,
    latency_expr_table,
    sweep_hybrid,
)
from test_acceptance import DOMINANT_TABLES

K = GateKind


def _table(m):
    return DelayTable({K[k]: v for k, v in m.items()})


EXAMPLE = _table({"BUF": 0, "AND2": 1, "AND4": 2, "OR2": 1, "OR3": 2,
                  "OR4": 2, "AO21": 3, "AO22": 2, "AO222": 3, "C2": 2})


def test_latency_expr_evaluate():
    e = LatencyExpr({K.AO22: 3, K.AO21: 14, K.C2: 1, K.OR3: 1})
    unit = DelayTable.unit()
    # 19 gate delays + 1 register C2 + zero-delay buffer
    assert e.evaluate(unit) == 20
    assert e.evaluate(EXAMPLE) == 3 * 2 + 14 * 3 + 2 + 2 + 0 + 2


def test_latency_expr_flags():
    bare = LatencyExpr({K.OR2: 1}, includes_buffer=False, includes_register=False)
    assert bare.evaluate(DelayTable.unit()) == 1


def test_latency_expr_rejects_negative_coefficients():
    with pytest.raises(ValueError):
        LatencyExpr({K.OR2: -1})


def test_expr_table_has_all_seventeen_legends():
    table = latency_expr_table()
    assert sorted(table) == sorted(f"Adder{i}" for i in range(1, 18))
    for expr in table.values():
        assert expr.includes_buffer and expr.includes_register
        assert expr.nonzero()


# the w=32, s=2 redundant stage's critical path: it enters at the register
# on A0, crosses both SAFA carries and all fifteen DAFA carries, and ends at
# the top sum pair; equal-length paths under unit delays tie-break to it
STAGE32_PATH = ("reg/a0_0", "safa0/cg2", "safa0/cg3", "safa1/cg3",
                *(f"dafa{i}/cout1" for i in range(14)), "dafa14/cp1", "dafa14/sum10")


@pytest.mark.parametrize("table, value", [
    (DelayTable.unit(), 20), (DOMINANT_TABLES[0], 82), (DOMINANT_TABLES[1], 107),
], ids=["unit", "dominant0", "dominant1"])
def test_critical_path_pinned_on_stage32(table, value):
    cp = critical_path(gen_stage(gen_hybrid_rca(AdderSpec(32, 2, True))), table)
    assert cp.value == value
    assert cp.path == STAGE32_PATH


def _reference_critical_path(n: Netlist, d: DelayTable) -> CriticalPath:
    """The per-gate rule critical_path is checked against: every net keeps
    its best (arrival, path) pair, ties going to the smaller path. It agrees
    with the lexicographically smallest maximum-arrival path unless a
    zero-delay gate lies on a tied path."""
    arrival = {net: (0, ()) for net in n.input_nets}
    for gate in n.topo_gates():
        best = None
        for net in gate.inputs:
            cand = arrival.get(net, (0, ()))
            if best is None or cand[0] > best[0] or (cand[0] == best[0] and cand[1] < best[1]):
                best = cand
        dist, path = best[0] + d[gate.kind], best[1] + (gate.id,)
        prev = arrival.get(gate.output)
        if prev is None or dist > prev[0] or (dist == prev[0] and path < prev[1]):
            arrival[gate.output] = (dist, path)
    candidates = [arrival.get(r, (0, ())) for grp in n.outputs for r in grp.rails()]
    value = max((v for v, _ in candidates), default=0)
    path = min((p for v, p in candidates if v == value), default=())
    by_id = {g.id: g for g in n.gates}
    coeff = {}
    for gid in path:
        if not gid.startswith("reg/"):
            coeff[by_id[gid].kind] = coeff.get(by_id[gid].kind, 0) + 1
    return CriticalPath(value, path, LatencyExpr(
        coeff, includes_buffer=False, includes_register=any(g.startswith("reg/") for g in path)))


def _seeded_table(seed):
    rng = random.Random(seed)
    return DelayTable({k: rng.randint(0, 3) if k is K.BUF else rng.randint(1, 6)
                       for k in GateKind})


@functools.cache
def _generated_battery() -> list[Netlist]:
    """Every partition up to width 16, both redundancy settings, bare and staged."""
    bare = [gen_hybrid_rca(AdderSpec(w, s, redundant)) for w in range(1, 17)
            for s in range(w % 2, w + 1, 2) for redundant in (True, False)]
    return bare + [gen_stage(n) for n in bare]


@pytest.mark.parametrize("table", [
    DelayTable.unit(), EXAMPLE, *DOMINANT_TABLES, _seeded_table(1), _seeded_table(2),
], ids=["unit", "example", "dominant0", "dominant1", "dominant2", "seeded1", "seeded2"])
def test_critical_path_matches_reference_on_generated_netlists(table):
    for n in _generated_battery():
        assert critical_path(n, table) == _reference_critical_path(n, table), n.name


# paths recorded with the per-gate rule, which agrees with the two-pass walk
# on every generated netlist
@pytest.mark.parametrize("width, s, digest", [
    (128, 0, "9cc724b6131b892f1a0678432331a5fabf38dbc03f9b8afeb667a7475f5bafa5"),
    (128, 2, "56a2d21a5309e3d3237022654c70497f4299471a26e9ca3550c5f61e75d16b78"),
    (128, 128, "4d7499db094ea05001feca745c4c41d85521690b281fa6f3cd7ae7f50197e815"),
    (1024, 2, "2f6ff02bb99b9dc519dea8de6cb00a5f99d1ab2479ef30f59e036f42e9e6b40a"),
], ids=["w128-s0", "w128-s2", "w128-s128", "w1024-s2"])
def test_critical_path_pinned_on_wide_stages(width, s, digest):
    cp = critical_path(gen_stage(gen_hybrid_rca(AdderSpec(width, s, True))), DelayTable.unit())
    assert hashlib.sha256(" ".join(cp.path).encode()).hexdigest() == digest


def test_critical_path_zero_delay_tie_takes_smallest_sequence():
    # both of g's inputs arrive at 0; the per-gate rule keeps ('b1',) for
    # n1 and so reports ('b1', 'g'), but ('b1', 'b2', 'g') sorts first
    n = Netlist("zero", [Gate("b1", K.BUF, ("a",), "n1"), Gate("b2", K.BUF, ("n1",), "n2"),
                         Gate("g", K.AND2, ("n1", "n2"), "y")],
                inputs=[PortGroup("A", "a")], outputs=[PortGroup("Y", "y")])
    assert n.validate() == []
    cp = critical_path(n, DelayTable.unit())
    assert (cp.value, cp.path) == (1, ("b1", "b2", "g"))
    assert _reference_critical_path(n, DelayTable.unit()).path == ("b1", "g")


def _max_arrival_paths(n: Netlist, d: DelayTable):
    """Every input-to-output path of maximum arrival, by brute force."""
    driver = {g.output: g for g in n.gates}
    ends = [r for grp in n.outputs for r in grp.rails()]

    def paths_into(net):  # (arrival, gates) for every path ending at net
        if net not in driver:
            return [(0, ())]
        g = driver[net]
        return [(t + d[g.kind], p + (g.id,))
                for x in dict.fromkeys(g.inputs) for t, p in paths_into(x)]

    every = [tp for r in ends for tp in paths_into(r)]
    value = max((t for t, _ in every), default=0)
    return value, {p for t, p in every if t == value}


@st.composite
def _dags(draw):
    """A small single-driver DAG with shuffled gate ids, its gates listed in
    any order, an undriven net, outputs anywhere, and a delay table whose BUF
    may be zero-delay."""
    kinds = [K.BUF, K.BUF, K.AND2, K.OR2, K.OR3, K.AO21, K.AO22, K.C2]
    inputs = [f"i{k}" for k in range(draw(st.integers(1, 3)))]
    nets = [*inputs, "ghost"]
    count = draw(st.integers(1, 8))
    ids = draw(st.permutations([f"g{k}" for k in range(count)]))
    gates = []
    for k in range(count):
        kind = draw(st.sampled_from(kinds))
        ins = draw(st.lists(st.sampled_from(nets), min_size=ARITY[kind], max_size=ARITY[kind]))
        gates.append(Gate(ids[k], kind, tuple(ins), f"n{k}"))
        nets.append(f"n{k}")
    outs = draw(st.lists(st.sampled_from(nets), max_size=4, unique=True))
    n = Netlist("dag", draw(st.permutations(gates)),
                [PortGroup(f"I{k}", x) for k, x in enumerate(inputs)],
                [PortGroup(f"O{k}", x) for k, x in enumerate(outs)])
    table = DelayTable({k: draw(st.integers(0 if k is K.BUF else 1, 2)) for k in GateKind})
    return n, table


@settings(max_examples=150, deadline=None)
@given(_dags())
def test_critical_path_is_smallest_maximum_arrival_path(case):
    n, d = case
    cp, ref = critical_path(n, d), _reference_critical_path(n, d)
    value, paths = _max_arrival_paths(n, d)
    assert cp.value == ref.value == value
    assert cp.path == min(paths, default=())
    if d[K.BUF] > 0 or not n.gate_census()[K.BUF]:
        assert cp == ref
    else:
        assert cp.path <= ref.path


def test_critical_path_on_plain_adder():
    n = gen_hybrid_rca(AdderSpec(8, 2, True))
    cp = critical_path(n, DelayTable.unit())
    assert cp.value > 0
    assert cp.path
    assert not cp.expr.includes_register  # no registers in the bare block
    ids = {g.id for g in n.gates}
    assert all(gid in ids for gid in cp.path)


def test_critical_path_includes_register_in_stage():
    stage = gen_stage(gen_hybrid_rca(AdderSpec(8, 2, True)))
    cp = critical_path(stage, DelayTable.unit())
    assert cp.expr.includes_register
    assert cp.path[0].startswith("reg/")
    # ack network gates are never on the reported data path
    assert not any(gid.startswith("cd/") for gid in cp.path)


def test_critical_path_matches_closed_form():
    for width, s, red in [(8, 0, True), (8, 2, True), (8, 8, True),
                          (16, 4, True), (32, 2, True)]:
        stage = gen_stage(gen_hybrid_rca(AdderSpec(width, s, red)))
        for d in (DelayTable.unit(), EXAMPLE):
            assert critical_path(stage, d).value == hybrid_latency(width, s, d)


def test_critical_path_tie_break_is_deterministic():
    stage = gen_stage(gen_hybrid_rca(AdderSpec(8, 2, True)))
    d = DelayTable.unit()
    assert critical_path(stage, d).path == critical_path(stage, d).path


def test_compare_report_practical_baseline():
    rep = compare_report("table2-practical")
    base = rep.row(BASELINE)
    assert base.normalized == 1.0
    assert base.reduction_vs_adder11_percent == 0.0
    assert len(rep.rows) == 17


def test_compare_report_flags_published_discrepancies():
    rep = compare_report("table2-practical")
    for name in REDUCTION_DISCREPANCIES:
        assert rep.row(name).flag
    assert not rep.row("Adder13").flag


def test_compare_report_formula_mode():
    rep = compare_report(DelayTable.unit())
    assert rep.row("Adder11").latency == LEGENDS["Adder11"].expr.evaluate(DelayTable.unit())
    assert all(r.source == "formula" for r in rep.rows)


def test_compare_report_rejects_unknown_source():
    with pytest.raises(ValueError):
        compare_report("spice")


def test_compare_report_serializations():
    rep = compare_report("table2-practical")
    csv_text = rep.to_csv()
    assert csv_text.splitlines()[0].startswith("legend,")
    assert len(csv_text.splitlines()) == 18
    assert "Adder11" in rep.to_text()


def test_hybrid_latency_agrees_with_netlist_sta():
    d = EXAMPLE
    for s in (0, 2, 4, 32):
        stage = gen_stage(gen_hybrid_rca(AdderSpec(32, s, True)))
        assert hybrid_latency(32, s, d) == critical_path(stage, d).value
    # every legal partition up to width 16; the closed form counts one buffer
    # that the generated stage does not have
    for d in [DelayTable.unit(), EXAMPLE, *DOMINANT_TABLES]:
        for w in range(1, 17):
            for s in range(w % 2, w + 1, 2):
                stage = gen_stage(gen_hybrid_rca(AdderSpec(w, s, True)))
                assert hybrid_latency(w, s, d) - d[K.BUF] == \
                    critical_path(stage, d).value, (w, s, d.delays)


@pytest.mark.parametrize("width, safa", [(8, 1), (8, 9), (0, 0)])
def test_hybrid_latency_rejects_a_split_adder_spec_rejects(width, safa):
    with pytest.raises(ValueError) as rejected:
        AdderSpec(width, safa)
    with pytest.raises(ValueError, match=re.escape(str(rejected.value))):
        hybrid_latency(width, safa, DelayTable.unit())


def test_sweep_covers_every_legal_partition():
    res = sweep_hybrid(8, DelayTable.unit())
    assert [s for s, _ in res.curve] == [0, 2, 4, 6, 8]
    best = min(v for _, v in res.curve)
    assert res.argmin == tuple(s for s, v in res.curve if v == best)


def test_sweep_rejects_degenerate_width():
    with pytest.raises(ValueError):
        sweep_hybrid(1, DelayTable.unit())
