import pytest

from dradder.generators import AdderSpec, gen_hybrid_rca, gen_stage
from dradder.netlist import GateKind
from dradder.simulator import DelayTable
from dradder.timing import (
    BASELINE,
    LEGENDS,
    REDUCTION_DISCREPANCIES,
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


def test_sweep_covers_every_legal_partition():
    res = sweep_hybrid(8, DelayTable.unit())
    assert [s for s, _ in res.curve] == [0, 2, 4, 6, 8]
    best = min(v for _, v in res.curve)
    assert res.argmin == tuple(s for s, v in res.curve if v == best)


def test_sweep_rejects_degenerate_width():
    with pytest.raises(ValueError):
        sweep_hybrid(1, DelayTable.unit())
