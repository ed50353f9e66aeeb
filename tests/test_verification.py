import itertools
import random
import re

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
from dradder.netlist import Netlist, PortGroup
from dradder.simulator import DelayTable, classify_indication, random_vectors
from dradder.verification import (
    ALL_EQUATION_SETS,
    DAFA_EQUATIONS,
    SAFA_EQUATIONS,
    DsopResult,
    EquationSet,
    OutputPair,
    dsop_check,
    equation_equivalence,
    exhaustive_verify,
    monotonic_cover_check,
    oracle_add,
    oracle_planes,
    semantically_disjoint,
    steady_reset_levels,
    steady_set_levels,
    structurally_disjoint,
)


def test_oracle_add():
    assert oracle_add(0, 0, 0, 4) == (0, 0)
    assert oracle_add(15, 1, 0, 4) == (0, 1)
    assert oracle_add(7, 8, 1, 4) == (0, 1)
    assert oracle_add(5, 9, 0, 4) == (14, 0)
    with pytest.raises(ValueError):
        oracle_add(16, 0, 0, 4)
    with pytest.raises(ValueError):
        oracle_add(0, 0, 2, 4)


def test_steady_levels_match_event_simulation():
    from dradder.simulator import simulate_transaction

    n = gen_safa()
    vals = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    inputs = {}
    for grp, pick in (("A", 0), ("B", 1), ("CIN", 2)):
        bits = sum(v[pick] << lane for lane, v in enumerate(vals))
        g = n.group(grp)
        inputs[g.rail1] = bits
        inputs[g.rail0] = bits ^ 0xFF
    levels = steady_set_levels(n, inputs, len(vals))
    for lane, (a, b, c) in enumerate(vals):
        log = simulate_transaction(n, DelayTable.unit(),
                                   [("A", a, 0), ("B", b, 0), ("CIN", c, 0)])
        for net, level in levels.items():
            sim_level = log.set_levels.get(net, 0)
            assert bool(level >> lane & 1) == bool(sim_level), (net, (a, b, c))


def test_steady_reset_clears_combinational_state():
    n = gen_safa()
    inputs = {}
    for grp, val in (("A", 1), ("B", 0), ("CIN", 1)):
        g = n.group(grp)
        inputs[g.rail1] = val
        inputs[g.rail0] = 1 - val
    levels = steady_set_levels(n, inputs, 1)
    reset = steady_reset_levels(n, levels)
    assert all(level == 0 for level in reset.values())


@pytest.mark.parametrize("n", [gen_hybrid_rca(AdderSpec(8, 2, True)),
                               gen_stage(gen_hybrid_rca(AdderSpec(4, 0, False)))],
                         ids=["adder", "stage"])
def test_steady_set_levels_keys_and_unknown_inputs(n):
    inputs = {n.group("A0").rail1: 0b111}
    # every input net and every gate output, as the name-keyed evaluator returned
    assert set(steady_set_levels(n, inputs, 3)) == \
        set(n.input_nets) | {g.output for g in n.gates}
    with pytest.raises(ValueError, match="input net 'ghost' is not in"):
        steady_set_levels(n, {**inputs, "ghost": 0b111}, 3)


@pytest.mark.parametrize("lanes", [0, -1, 1.5, True])
def test_steady_set_levels_rejects_a_lane_count_that_is_not_an_int_from_1(lanes):
    with pytest.raises(ValueError, match=re.escape(f"lanes must be an int >= 1, got {lanes!r}")):
        steady_set_levels(gen_safa(), {}, lanes)


def test_static_passes_do_not_build_the_simulator_form():
    # validate(), STA and the steady-state walks, classify's included, read
    # the structure pass, so only the event simulator builds its fanout table
    from dradder.simulator import classify_indication
    from dradder.timing import critical_path

    for check in (lambda n: n.validate(),
                  lambda n: steady_set_levels(n, {}, 1),
                  lambda n: equation_equivalence(n, SAFA_EQUATIONS),
                  lambda n: critical_path(n, DelayTable.unit()),
                  lambda n: classify_indication(n, DelayTable.unit(), trials=8)):
        n = gen_safa()
        check(n)
        assert "_structure" in n.__dict__ and "_fanout" not in n.__dict__


def _shuffled(n: Netlist) -> Netlist:
    gates = list(n.gates)
    random.Random(1).shuffle(gates)
    return Netlist(n.name, gates, n.inputs, n.outputs, n.ackin, n.ackout)


def _fanout_cases():
    """(netlist, net, id) of each fanout mutant: a fresh netlist per call."""
    return [
        (gen_stage(gen_hybrid_rca(AdderSpec(4, 2, True))), "cd/or2", "completion-detector"),
        # an AND4 that the first DAFA's OR4 reads a few steps later, the last
        # step to read it: the sweep drops it there; then the same on a
        # shuffled list, whose walk is not the list order
        (gen_hybrid_rca(AdderSpec(4, 0, True)), "dafa0/pp0", "dead-early"),
        (_shuffled(gen_hybrid_rca(AdderSpec(4, 0, True))), "dafa0/pp0", "dead-early-shuffled"),
    ]


def _misread_fanout(n: Netlist, net: str) -> int:
    """Give `n` a fanout table in which the simulator's gate driving `net`
    reads its first input in place of its second; returns the net's id."""
    bad = n._structure.ids[net]
    fanout, partner = n._fanout
    n.__dict__["_fanout"] = tuple(
        tuple((fn, (pos[0], pos[0], *pos[2:]) if out == bad else pos, out, kind)
              for fn, pos, out, kind in readers) for readers in fanout), partner
    return bad


# each case also at one word per chunk: the 512 lanes of a width-4 sweep
# make 8 chunks, so the sampled vectors' port bits come from many of them
@pytest.mark.parametrize("n, net, one_word", [
    pytest.param(n, net, one_word, id=name + ("-one-word" if one_word else ""))
    for one_word in (False, True) for n, net, name in _fanout_cases()])
def test_cross_check_sees_a_wrongly_built_fanout_entry(n, net, one_word, monkeypatch):
    # the evaluator walks the structure pass, not the fanout table, so a
    # simulator entry that reads its first input in place of its second
    # disagrees with it; the data outputs, which the oracle checks, do not
    # depend on the completion detector or on the simulator
    import dradder.verification as ver

    bad = _misread_fanout(n, net)
    res = exhaustive_verify(n, 4)
    if one_word:
        monkeypatch.setattr(ver, "_CHUNK_BYTES", 8 * len(n._structure.ids))
        assert exhaustive_verify(n, 4) == res
    assert not res.passed
    assert res.first_counterexample["via"] == "event simulator"
    assert res.first_counterexample["net"] == net
    assert bad not in n._dies_after[-1]  # the sweep dropped it after its last reader


def _latch_in_simulator(n: Netlist, net: str) -> None:
    """Give `n` a fanout table in which the simulator's gate driving `net`,
    once high, holds high: a transaction that raises it never returns to zero."""
    bad = n._structure.ids[net]
    fanout, partner = n._fanout
    n.__dict__["_fanout"] = tuple(
        tuple(((lambda L, p, held, fn=fn: fn(L, p, held) | held) if out == bad
               else fn, pos, out, kind) for fn, pos, out, kind in readers)
        for readers in fanout), partner


def _cross_check_one_vector_at_a_time(n: Netlist, width: int):
    """Exhaustive mode's cross-check as a loop of one-vector replays that
    stops at the first failing sampled vector: (sim_checked, rtz_failures,
    counterexample or None)."""
    from dradder.simulator import DEFAULT_SEED, simulate_transaction

    ports = ["CIN", *(f"{ab}{i}" for ab in "AB" for i in range(width))]
    s = n._structure
    walk = [*list(s.ids)[:s.base], *(g.output for g in n.topo_gates())]
    sample = sorted(random.Random(DEFAULT_SEED).sample(range(2 ** len(ports)), 32))
    for j, index in enumerate(sample):
        bits = {name: index >> k & 1 for k, name in enumerate(ports)}
        log = simulate_transaction(n, DelayTable.unit(), [(g, b, 0) for g, b in bits.items()])
        steady = steady_set_levels(n, {rail: level for g, b in bits.items()
                                       for rail, level in zip(n.group(g).rails(), (b, 1 - b))}, 1)
        sim = dict(zip(log.names, log.set_net_levels))
        net = next((x for x in walk if sim[x] != steady[x]), None)
        if net or log.illegal_seen or not log.monotonic or not log.rtz_complete:
            return j, int(not log.rtz_complete), {
                "a": sum(bits[f"A{q}"] << q for q in range(width)),
                "b": sum(bits[f"B{q}"] << q for q in range(width)), "cin": bits["CIN"],
                "via": "event simulator", "net": net}
    return 32, 0, None


@pytest.mark.parametrize("misread, latched, lane, rtz", [
    ("dafa0/pp0", None, 4, 0),
    (None, "dafa0/pp0", 6, 1),
    (None, "dafa1/pp0", 22, 1),
    # a wrong level on lane 4, and lanes left short of zero from lane 22
    ("dafa0/pp0", "dafa1/pp0", 4, 0),
])
def test_crosscheck_reports_what_one_vector_at_a_time_would(misread, latched, lane, rtz):
    # the one run on lanes reports the sampled vector, the net and the
    # return-to-zero count a replay of one vector at a time stops at
    n = gen_hybrid_rca(AdderSpec(4, 0, True))
    if misread:
        _misread_fanout(n, misread)
    if latched:
        _latch_in_simulator(n, latched)
    res = exhaustive_verify(n, 4)
    sim_checked, rtz_failures, cex = _cross_check_one_vector_at_a_time(n, 4)
    assert (res.sim_checked, res.rtz_failures, res.first_counterexample) == \
        (sim_checked, rtz_failures, cex) == (lane, rtz, cex)
    assert not res.passed and res.failures == 1


def test_exhaustive_verify_small_widths():
    for s, red in [(0, True), (0, False), (2, True), (2, False)]:
        stage = gen_stage(gen_hybrid_rca(AdderSpec(4, s, red)))
        res = exhaustive_verify(stage, 4)
        assert res.passed, res.first_counterexample
        assert res.checked == 2 ** 9  # 4+4 data bits and carry-in
        assert res.failures == 0
        assert res.illegal_states == 0
        assert res.rtz_failures == 0
        assert res.sim_checked > 0


def test_random_verify_is_seeded():
    stage = gen_stage(gen_hybrid_rca(AdderSpec(16, 2, True)))
    r1 = exhaustive_verify(stage, 16, mode="random", count=200, seed=7)
    r2 = exhaustive_verify(stage, 16, mode="random", count=200, seed=7)
    assert r1.passed and r2.passed
    assert r1.checked == r2.checked == 200


def test_verify_catches_a_wired_in_bug():
    from dradder.netlist import Gate, GateKind, Netlist

    stage = gen_stage(gen_hybrid_rca(AdderSpec(4, 2, True)))
    # swap the rails of SUM0: a stuck decoding bug the oracle must flag
    outs = list(stage.outputs)
    grp = outs[0]
    outs[0] = type(grp)(grp.name, grp.rail0, grp.rail1)
    broken = Netlist(name="swapped", gates=stage.gates, inputs=stage.inputs,
                     outputs=outs, ackin=stage.ackin, ackout=stage.ackout)
    res = exhaustive_verify(broken, 4)
    assert not res.passed
    assert res.failures > 0
    assert res.first_counterexample is not None


def _rebuilt(n, suffix, drop=(), scalar=()):
    """`n` without the port groups named in `drop`, and with those named in
    `scalar` cut down to their rail1 wire."""
    def ports(groups):
        return [PortGroup(grp.name, grp.rail1) if grp.name in scalar else grp
                for grp in groups if grp.name not in drop]
    return Netlist(f"{n.name}_{suffix}", n.gates, ports(n.inputs), ports(n.outputs))


@pytest.mark.parametrize("n, width", [
    (gen_hybrid_rca(AdderSpec(8, 2, True)), 4),
    (gen_hybrid_rca(AdderSpec(8, 2, True)), 9),
    (gen_safa(), 1),
    (gen_completion_detector(3), 1),
    (_rebuilt(gen_hybrid_rca(AdderSpec(8, 2, True)), "no_cout", drop={"COUT"}), 8),
    (_rebuilt(gen_hybrid_rca(AdderSpec(2, 0, True)), "scalar_a0", scalar={"A0"}), 2),
    (_rebuilt(gen_hybrid_rca(AdderSpec(2, 0, True)), "scalar_sum0", scalar={"SUM0"}), 2),
], ids=["narrower", "wider", "safa", "cd3", "no-cout", "scalar-a0", "scalar-sum0"])
def test_verify_rejects_a_netlist_that_is_not_an_adder_of_that_width(n, width):
    # unchecked, a narrower width decodes only the low sum bits and reports
    # false failures, and the other cases fail on a missing or scalar port
    message = f"{n.name!r} is not an adder of width {width}"
    for mode in ("random", "exhaustive"):
        if mode == "exhaustive" and width > 8:
            continue
        with pytest.raises(ValueError, match=re.escape(message)):
            exhaustive_verify(n, width, mode=mode, count=100)


@pytest.mark.parametrize("kwargs, message", [
    ({"width": 0}, "width must be an int >= 1, got 0"),
    ({"width": -1}, "width must be an int >= 1, got -1"),
    ({"width": True}, "width must be an int >= 1, got True"),
    ({"width": 4.0}, "width must be an int >= 1, got 4.0"),
    ({"count": 0}, "random mode needs count >= 1, got 0"),
    ({"count": True}, "random mode needs count >= 1, got True"),
    ({"count": 2.5}, "random mode needs count >= 1, got 2.5"),
    ({"count": "3"}, "random mode needs count >= 1, got '3'"),
], ids=["width-0", "width-negative", "width-bool", "width-float",
        "count-0", "count-bool", "count-float", "count-str"])
def test_verify_rejects_a_width_or_count_that_is_not_an_int_from_1(kwargs, message):
    # raised before any work: the netlist's structure pass is never built
    n = gen_hybrid_rca(AdderSpec(2, 0, True))
    with pytest.raises(ValueError) as exc:
        exhaustive_verify(n, **{"width": 2, "mode": "random", "count": 10, **kwargs})
    assert exc.value.args == (message,)
    assert "_structure" not in n.__dict__


@pytest.mark.parametrize("seed", [None, 1.5, "7", True], ids=["none", "float", "str", "bool"])
@pytest.mark.parametrize("run", [
    lambda n, seed: exhaustive_verify(n, 2, seed=seed),
    lambda n, seed: random_vectors(n, 3, seed),
    lambda n, seed: classify_indication(n, DelayTable.unit(), 2, seed),
], ids=["exhaustive_verify", "random_vectors", "classify_indication"])
def test_a_seed_that_is_not_an_int_is_refused(run, seed):
    # None would seed from the OS, so a run could not be repeated; refused
    # before any work: the netlist's structure pass is never built
    n = gen_hybrid_rca(AdderSpec(2, 0, True))
    with pytest.raises(ValueError) as exc:
        run(n, seed)
    assert exc.value.args == (f"seed must be an int, got {seed!r}",)
    assert "_structure" not in n.__dict__


@pytest.mark.parametrize("width, safa", [(63, 1), (64, 2), (128, 0)])
def test_random_verify_at_any_width(width, safa):
    n = gen_hybrid_rca(AdderSpec(width, safa, True))
    res = exhaustive_verify(n, width, mode="random", count=300)
    assert res.passed, (res.first_counterexample, res.notes)
    assert res.checked == 300 and res.sim_checked == 32


def test_wide_counterexample_is_exact():
    from dradder.netlist import Netlist

    n = gen_hybrid_rca(AdderSpec(64, 2, True))
    outs = list(n.outputs)
    k = next(i for i, grp in enumerate(outs) if grp.name == "SUM63")
    outs[k] = type(outs[k])(outs[k].name, outs[k].rail0, outs[k].rail1)
    broken = Netlist(name="swapped", gates=n.gates, inputs=n.inputs, outputs=outs)
    res = exhaustive_verify(broken, 64, mode="random", count=200)
    assert not res.passed
    assert res.failures == 200
    cex = res.first_counterexample
    want = oracle_add(cex["a"], cex["b"], cex["cin"], 64)
    assert (cex["expected_sum"], cex["expected_cout"]) == want
    assert cex["got_sum"] == want[0] ^ (1 << 63)
    assert cex["got_cout"] == want[1]


@pytest.mark.parametrize("width", [1, 8, 63, 64, 130])
def test_oracle_planes_match_oracle_add(width):
    rng = random.Random(width)
    a, b, cin = ([rng.getrandbits(64) for _ in range(k)] for k in (width, width, 1))
    out = oracle_planes(a, b, cin[0])
    assert len(out) == width + 1

    def num(planes, lane):
        return sum((p >> lane & 1) << k for k, p in enumerate(planes))

    for lane in range(64):
        want = oracle_add(num(a, lane), num(b, lane), cin[0] >> lane & 1, width)
        assert (num(out[:width], lane), out[width] >> lane & 1) == want


def test_crosscheck_reports_first_disagreeing_net(monkeypatch):
    import dradder.verification as ver

    built = gen_stage(gen_hybrid_rca(AdderSpec(4, 2, True)))
    # listed backwards, so net ids, which follow the gate list, disagree
    # with topological order
    stage = Netlist(built.name, built.gates[::-1], built.inputs, built.outputs,
                    built.ackin, built.ackout)
    flipped = stage.group("SUM1", output=True).rail1
    real = ver.simulate_transaction

    # on the first sampled vector, lane 0 of the one run that replays the
    # whole sample: wrong set-phase levels on one net or on two, then a
    # transaction left short of zero; of two nets the first in topological
    # order is named, although dafa0/sum11 has the lower net id
    ids, topo = stage._structure.ids, [g.output for g in stage.topo_gates()]
    assert ids["dafa0/sum11"] < ids["safa0/cg2"]
    assert topo.index("safa0/cg2") < topo.index("dafa0/sum11")
    for flips, net in (((flipped,), flipped),
                       (("safa0/cg2", "dafa0/sum11"), "safa0/cg2"),
                       ((), None)):
        calls = []

        def corrupted(*args, **kwargs):
            log = real(*args, **kwargs)
            calls.append(log.lanes)
            for x in flips:
                log.set_net_levels[log.names.index(x)] ^= 1
            log.end_high = {} if flips else {0: 1}  # a net left high on lane 0
            return log

        monkeypatch.setattr(ver, "simulate_transaction", corrupted)
        res = exhaustive_verify(stage, 4)
        assert calls == [ver._SIM_SAMPLE]
        assert not res.passed
        assert res.failures == 1 and res.sim_checked == 0
        assert res.rtz_failures == (not flips)
        cex = res.first_counterexample
        assert cex["via"] == "event simulator"
        assert cex["net"] == net
        assert set(cex) == {"a", "b", "cin", "via", "net"}


def test_embedded_equations_are_dsop():
    for eqs in ALL_EQUATION_SETS:
        res = dsop_check(eqs)
        assert res.passed, (eqs.name, res.offending)
        assert res.methods_agree


def test_embedded_equations_are_monotonic_covers():
    for eqs in ALL_EQUATION_SETS:
        res = monotonic_cover_check(eqs)
        assert res.passed, (eqs.name, res.violations[:3])


def test_product_checks_flag_overlapping_products():
    # Y1 = A1 + A1·B1 covers A=1, B=1 twice
    eqs = EquationSet("overlap", (PortGroup("A", "A1", "A0"), PortGroup("B", "B1", "B0")),
                      (OutputPair("Y", (frozenset({"A1"}), frozenset({"A1", "B1"})),
                                  (frozenset({"A0"}),)),))
    assert dsop_check(eqs) == DsopResult(passed=False, offending=("Y", 0, 1),
                                         methods_agree=True)
    assert len(monotonic_cover_check(eqs).violations) == 1


# The per-assignment reference for the lane-mask product checks: every valid
# assignment as a dict, and the set of rails it makes true.


def _valid_assignments(eqs):
    names = [v.name for v in eqs.variables]
    return [dict(zip(names, bits)) for bits in itertools.product((0, 1), repeat=len(names))]


def _true_rails(eqs, asg):
    return frozenset(v.rail1 if asg[v.name] else v.rail0 for v in eqs.variables)


def _reference_disjoint(p, q, eqs):
    return not any(p <= rails and q <= rails
                   for rails in (_true_rails(eqs, asg) for asg in _valid_assignments(eqs)))


def _reference_dsop(eqs):
    offending, agree = None, True
    for out in eqs.outputs:
        for eq_products in (out.products1, out.products0):
            for prod in eq_products:
                eqs.check_product(prod)
            for (i, p), (j, q) in itertools.combinations(enumerate(eq_products), 2):
                s = structurally_disjoint(p, q, eqs.variables)
                m = _reference_disjoint(p, q, eqs)
                agree = agree and s == m
                if not (s and m) and offending is None:
                    offending = (out.name, i, j)
    return DsopResult(offending is None and agree, offending, agree)


def _reference_violations(eqs):
    return tuple((out.name, asg, active)
                 for out in eqs.outputs for asg in _valid_assignments(eqs)
                 if (active := sum(p <= _true_rails(eqs, asg) for p in out.all_products())) != 1)


def _outcome(check, eqs):
    try:
        return check(eqs)
    except ValueError as e:
        return f"ValueError: {e}"


@st.composite
def _equation_sets(draw):
    """1-4 variables and 1-3 output pairs of up to 4 products each. A
    product may be empty, name a rail of no variable ("W1") or, in some
    sets, hold both rails of a variable."""
    n = draw(st.integers(1, 4))
    variables = tuple(PortGroup(f"V{k}", f"V{k}1", f"V{k}0") for k in range(n))
    both = draw(st.booleans())
    picks = [st.sampled_from([(), (v.rail1,), (v.rail0,)] * 3 + [(v.rail1, v.rail0)] * both)
             for v in variables]
    product = st.tuples(*picks, st.sampled_from([()] * 4 + [("W1",)])).map(
        lambda rails: frozenset(itertools.chain.from_iterable(rails)))
    equation = st.lists(product, max_size=4).map(tuple)
    pairs = draw(st.lists(st.tuples(equation, equation), min_size=1, max_size=3))
    return EquationSet("random", variables,
                       tuple(OutputPair(f"Y{i}", p1, p0) for i, (p1, p0) in enumerate(pairs)))


@settings(max_examples=300, deadline=None)
@given(_equation_sets())
def test_product_checks_equal_the_per_assignment_reference(eqs):
    for out in eqs.outputs:
        for p, q in itertools.combinations_with_replacement(out.all_products(), 2):
            assert semantically_disjoint(p, q, eqs) == _reference_disjoint(p, q, eqs)
    assert _outcome(dsop_check, eqs) == _outcome(_reference_dsop, eqs)
    assert monotonic_cover_check(eqs).violations == _reference_violations(eqs)


def test_disjointness_checkers_agree_on_random_products():
    rng = random.Random(1011)
    variables = SAFA_EQUATIONS.variables
    rails = [(v.rail1, v.rail0) for v in variables]
    for _ in range(300):
        prods = []
        for _ in range(2):
            prod = set()
            for r1, r0 in rails:
                pick = rng.randrange(3)  # absent, rail1, rail0
                if pick == 1:
                    prod.add(r1)
                elif pick == 2:
                    prod.add(r0)
            prods.append(frozenset(prod))
        p, q = prods
        assert (structurally_disjoint(p, q, variables)
                == semantically_disjoint(p, q, SAFA_EQUATIONS))


def test_netlists_realize_their_equations():
    assert equation_equivalence(gen_safa(), SAFA_EQUATIONS)
    assert equation_equivalence(gen_dafa(True), DAFA_EQUATIONS)
    assert equation_equivalence(gen_dafa(False), DAFA_EQUATIONS)
    safa = gen_safa()
    swapped = [PortGroup(g.name, g.rail0, g.rail1) if g.name == "SUM" else g
               for g in safa.outputs]
    assert not equation_equivalence(Netlist(safa.name, safa.gates, safa.inputs, swapped),
                                    SAFA_EQUATIONS)
    dafa = gen_dafa(True)
    for out in dafa.outputs:  # each output pair's rails swapped in turn
        swapped = [PortGroup(g.name, g.rail0, g.rail1) if g is out else g for g in dafa.outputs]
        assert not equation_equivalence(Netlist(dafa.name, dafa.gates, dafa.inputs, swapped),
                                        DAFA_EQUATIONS), out.name


@pytest.mark.parametrize("scalar, message", [
    ("SUM", "output group 'SUM' is a single wire; equation equivalence needs rail pairs"),
    ("A", "input group 'A' is a single wire; equation equivalence needs rail pairs"),
], ids=["output", "input"])
def test_equation_equivalence_refuses_single_wire_groups(scalar, message):
    n = _rebuilt(gen_safa(), f"scalar_{scalar}", scalar={scalar})
    with pytest.raises(ValueError) as exc:
        equation_equivalence(n, SAFA_EQUATIONS)
    assert exc.value.args == (message,)


def test_contradictory_product_rejected():
    bad = frozenset({"A1", "A0"})
    with pytest.raises(ValueError):
        SAFA_EQUATIONS.check_product(bad)


@pytest.mark.parametrize("lanes", [1, 63, 64, 65, 200, 4097])
@pytest.mark.parametrize("spec, stage", [(AdderSpec(4, 2, True), True),
                                         (AdderSpec(6, 0, False), False)])
def test_packed_steady_levels_match_bool_lanes(lanes, spec, stage):
    n = gen_hybrid_rca(spec)
    n = gen_stage(n) if stage else n
    rng = random.Random(lanes)
    # every rail drawn independently, so spacer and illegal inputs occur too
    ints = {net: rng.getrandbits(lanes) for grp in n.inputs for net in grp.rails()}
    got = steady_set_levels(n, ints, lanes)
    assert list(got) == list(n._structure.ids)
    # the set phase, then a held reset with every input at spacer and ackin
    # still high, on all lanes at once and as one-lane 0/1 walks: on lanes
    # 0, 1 and the last, and on 5 seeded ones
    reset = n._settle({}, (1 << lanes) - 1, held=list(got.values()))
    for j in sorted({0, 1, lanes - 1, *(rng.randrange(lanes) for _ in range(5))} - {lanes}):
        want = n._settle({net: v >> j & 1 for net, v in ints.items()}, 1)
        assert [v >> j & 1 for v in got.values()] == want
        assert [v >> j & 1 for v in reset] == n._settle({}, 1, held=want)
    # a level that does not fit the lanes, or is not an int, is not read
    net = next(iter(ints))
    for bad in (-1, 1 << lanes, 1.0):
        with pytest.raises(ValueError, match=re.escape(
                f"input net {net!r} holds no int in [0, 2**{lanes})")):
            steady_set_levels(n, {**ints, net: bad}, lanes)


def _rebuild(n, gates=None, outputs=None):
    from dradder.netlist import Netlist

    return Netlist(n.name, n.gates if gates is None else gates, n.inputs,
                   n.outputs if outputs is None else outputs, n.ackin, n.ackout)


def _with_kind(n, gate_id, kind):
    from dradder.netlist import Gate

    return _rebuild(n, gates=[Gate(g.id, kind, g.inputs, g.output) if g.id == gate_id
                              else g for g in n.gates])


# failures, illegal states and first counterexample of exhaustive runs on
# broken width-6 adders, as reported by the bool-lane sweep this replaced
@pytest.mark.parametrize("safa, redundant, stage, gate_id, kind, failures, illegal, cex", [
    (0, False, False, "dafa1/cout1", "AND2", 4096, 0,
     {"a": 15, "b": 0, "cin": 1, "expected_cout": 0, "expected_sum": 16,
      "got_cout": 0, "got_sum": 0}),
    (0, True, False, "dafa2/yc1", "OR2", 3073, 3072,
     {"a": 15, "b": 0, "cin": 1, "expected_cout": 0, "expected_sum": 16,
      "got_cout": 0, "got_sum": 48}),
    (2, False, True, "reg/b5_0", "OR2", 2049, 6144,
     {"a": 31, "b": 32, "cin": 1, "expected_cout": 1, "expected_sum": 0,
      "got_cout": 1, "got_sum": 32}),
])
def test_exhaustive_results_are_pinned(safa, redundant, stage, gate_id, kind,
                                       failures, illegal, cex, monkeypatch):
    # also at one word per chunk, 128 chunks: the reg/b5_0 counterexample is
    # vector index 4 159, so its lowest failing lane lies in chunk 64
    import dradder.verification as ver
    from dradder.netlist import GateKind

    n = gen_hybrid_rca(AdderSpec(6, safa, redundant))
    n = _with_kind(gen_stage(n) if stage else n, gate_id, GateKind(kind))
    for chunk_bytes in (ver._CHUNK_BYTES, 8 * len(n._structure.ids)):
        monkeypatch.setattr(ver, "_CHUNK_BYTES", chunk_bytes)
        res = exhaustive_verify(n, 6)
        assert (res.failures, res.illegal_states, res.first_counterexample) == \
            (failures, illegal, cex)


def _rare_sum0_bug() -> Netlist:
    """A width-6 adder whose SUM0 rail1 also rises when A3..A5, B3..B5 and
    CIN are all 1: a wrong sum (and an illegal pair) on 1 lane in 256."""
    from dradder.netlist import Gate, GateKind

    n = gen_hybrid_rca(AdderSpec(6, 2, True))
    r1 = {name: n.group(name).rail1 for name in ("A3", "A4", "A5", "B3", "B4", "B5", "CIN")}
    s0 = n.group("SUM0", output=True)
    gates = list(n.gates) + [
        Gate("bug/x1", GateKind.AND4, (r1["A3"], r1["A4"], r1["A5"], r1["B5"]), "bug/x1"),
        Gate("bug/x2", GateKind.AND4, (r1["B3"], r1["B4"], r1["CIN"], "bug/x1"), "bug/x2"),
        Gate("bug/or", GateKind.OR2, (s0.rail1, "bug/x2"), "bug/or")]
    outs = [PortGroup("SUM0", "bug/or", s0.rail0) if grp is s0 else grp for grp in n.outputs]
    return _rebuild(n, gates=gates, outputs=outs)


def test_random_counterexample_is_lowest_lane_across_chunks(monkeypatch):
    import dradder.verification as ver

    broken = _rare_sum0_bug()
    seed, count = 1008, 1000

    # the documented random-mode vectors: plane k (CIN, A0..A5, B0..B5) is
    # the first `count` bits of its own stream random.Random(f"{seed}/{k}")
    planes = [random.Random(f"{seed}/{k}").getrandbits(count) for k in range(13)]
    cin, a, b = planes[0], planes[1:7], planes[7:]
    hit = cin & a[3] & a[4] & a[5] & b[3] & b[4] & b[5] & ~(a[0] ^ b[0] ^ cin)
    failing = [j for j in range(count) if hit >> j & 1]
    lane = failing[0]
    # past lane 63, past the first two-word chunk, and not the only failing chunk
    assert lane > 128 and len({j // 128 for j in failing}) > 1

    whole = exhaustive_verify(broken, 6, mode="random", count=count, seed=seed)
    # two words per chunk: the lowest failing lane lies in a later chunk
    monkeypatch.setattr(ver, "_CHUNK_BYTES",
                        2 * 8 * (len(broken.input_nets) + len(broken.gates)))
    chunked = exhaustive_verify(broken, 6, mode="random", count=count, seed=seed)
    assert chunked == whole
    assert whole.failures == whole.illegal_states == len(failing)
    cex = whole.first_counterexample

    def num(bits):
        return sum((p >> lane & 1) << k for k, p in enumerate(bits))

    assert (cex["a"], cex["b"], cex["cin"]) == (num(a), num(b), cin >> lane & 1)
    assert cex["got_sum"] == cex["expected_sum"] ^ 1


@pytest.mark.parametrize("mode, count", [("exhaustive", 8), ("random", 100)])
def test_padding_lanes_are_not_counted(mode, count):
    # both rails of SUM0 on one net: every lane is illegal (sum 1) or a
    # spacer (sum 0), so a counted padding lane would show in the totals
    n = gen_hybrid_rca(AdderSpec(1, 1, True))
    outs = [type(grp)(grp.name, grp.rail1, grp.rail1) if grp.name == "SUM0" else grp
            for grp in n.outputs]
    res = exhaustive_verify(_rebuild(n, outputs=outs), 1, mode=mode, count=count)
    spacerish = int(res.notes[0].split()[0])
    assert res.checked == count
    assert res.illegal_states + spacerish == count
    if mode == "exhaustive":
        assert res.illegal_states == spacerish == 4


@settings(max_examples=200, deadline=None)
@given(k=st.integers(0, 16), first=st.integers(0, 2047).map(lambda w: 64 * w),
       lanes=st.integers(1, 1024).map(lambda size: 8 * size))
def test_index_plane_is_bit_k_of_the_lane_index(k, first, lanes):
    from dradder.verification import _index_plane

    assert _index_plane(k, first, lanes) == \
        sum((first + j >> k & 1) << j for j in range(lanes))


@pytest.mark.parametrize("words", [1, 2])
@pytest.mark.parametrize("count", [77, 1000, 4097])
@pytest.mark.parametrize("bug", ["rare-sum0", "fanout"])
def test_random_vectors_do_not_depend_on_the_chunk_size(bug, count, words, monkeypatch):
    # the sweep's failures and lowest failing lane, and the cross-check's
    # sample (the first vectors drawn), whose first disagreeing vector a
    # misbuilt simulator entry reports, are the same at any chunk size; at
    # seed 7 the rare bug's lowest failing lane is 66, in a later chunk at
    # one word per chunk
    import dradder.verification as ver

    def broken():
        if bug == "rare-sum0":
            return _rare_sum0_bug()
        n = gen_hybrid_rca(AdderSpec(4, 0, True))
        _misread_fanout(n, "dafa0/pp0")
        return n

    width = 6 if bug == "rare-sum0" else 4
    whole = exhaustive_verify(broken(), width, mode="random", count=count, seed=7)
    n = broken()
    monkeypatch.setattr(ver, "_CHUNK_BYTES", words * 8 * len(n._structure.ids))
    assert exhaustive_verify(n, width, mode="random", count=count, seed=7) == whole
    assert not whole.passed and whole.checked == count
