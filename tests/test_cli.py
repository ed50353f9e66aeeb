import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dradder
from dradder import cli, simulator
from dradder.cli import (
    EXIT_DEADLOCK,
    EXIT_FAIL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PIPE,
    EXIT_USAGE,
    main,
)
from dradder.generators import (
    AdderSpec,
    gen_completion_detector,
    gen_dafa,
    gen_hybrid_rca,
    gen_safa,
    gen_stage,
)
from dradder.netlist import Gate, GateKind, Netlist, PortGroup
from dradder.simulator import (
    DEFAULT_SEED,
    DelayTable,
    classify_indication,
    dump_waveform,
    random_vectors,
    simulate_transaction,
)
from dradder.timing import compare_report, critical_path, hybrid_latency, sweep_hybrid
from dradder.verification import VerifyResult, exhaustive_verify, oracle_add, steady_set_levels


def _build(tmp_path, *args):
    out = tmp_path / "circuit.netlist.json"
    rc = main(["build", *args, "--out", str(out)])
    assert rc == EXIT_OK
    return out


def test_build_writes_loadable_netlist(tmp_path, capsys):
    out = _build(tmp_path, "rca", "--width", "8", "--safa", "2")
    n = Netlist.load(out)
    assert n.validate() == []
    assert "wrote" in capsys.readouterr().out


def test_build_stage_flag_adds_handshake(tmp_path):
    out = _build(tmp_path, "rca", "--width", "4", "--safa", "0", "--stage")
    n = Netlist.load(out)
    assert n.ackin is not None and n.ackout is not None


def test_build_rejects_bad_partition(tmp_path):
    rc = main(["build", "rca", "--width", "8", "--safa", "3",
               "--out", str(tmp_path / "x.json")])
    assert rc == EXIT_USAGE


def test_build_cd_stage_is_usage_error(tmp_path, capsys):
    # a completion detector has scalar ports, so it cannot be staged
    rc = main(["build", "cd", "--pairs", "2", "--stage", "--out", str(tmp_path / "x.json")])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


def test_build_requires_width_for_rca(tmp_path):
    rc = main(["build", "rca", "--out", str(tmp_path / "x.json")])
    assert rc == EXIT_USAGE


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == EXIT_USAGE


def test_sim_stage_with_vector_file(tmp_path, capsys):
    net = _build(tmp_path, "rca", "--width", "4", "--safa", "2", "--stage")
    vecs = tmp_path / "vectors.txt"
    vecs.write_text("# a_hex b_hex cin\n3 5 0\nf f 1\n")
    dump = tmp_path / "wave.txt"
    rc = main(["sim", "--netlist", str(net), "--vectors", str(vecs),
               "--dump", str(dump)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "completed 2/2" in out
    assert dump.read_text().startswith("# transaction 0")


def test_a_staged_dump_is_each_vectors_one_lane_dump(tmp_path, monkeypatch):
    monkeypatch.setattr(simulator, "_PROTOCOL_LANES", 3)  # 7 vectors cross two chunk boundaries
    net = _build(tmp_path, "rca", "--width", "4", "--safa", "2", "--stage")
    stage = Netlist.load(net)
    rows = [(3, 5, 0), (15, 15, 1), (0, 0, 0), (0, 15, 1), (9, 6, 1), (1, 1, 0), (12, 3, 1)]
    vecs = tmp_path / "vectors.txt"
    vecs.write_text("".join(f"{a:x} {b:x} {cin}\n" for a, b, cin in rows))
    from_file = [{**{f"A{i}": a >> i & 1 for i in range(4)},
                  **{f"B{i}": b >> i & 1 for i in range(4)}, "CIN": cin} for a, b, cin in rows]
    for source, vectors in ((["--count", "7"], random_vectors(stage, 7, DEFAULT_SEED)),
                            (["--vectors", str(vecs)], from_file)):
        dump = tmp_path / "wave.txt"
        assert main(["sim", "--netlist", str(net), *source, "--dump", str(dump)]) == EXIT_OK
        want = io.StringIO()
        for i, vec in enumerate(vectors):
            log = simulate_transaction(stage, DelayTable.unit(), [(grp.name, vec[grp.name], 0)
                                                                  for grp in stage.inputs])
            dump_waveform(log, want, header=f"transaction {i}")
        assert dump.read_text() == want.getvalue()


def test_vector_file_drives_the_ports_in_declaration_order(tmp_path):
    vecs = tmp_path / "vectors.txt"
    vecs.write_text("9 6 1\n")
    [vec] = cli._parse_vector_file(str(vecs), gen_stage(gen_hybrid_rca(AdderSpec(4, 2, True))))
    assert list(vec.items()) == [("A0", 1), ("A1", 0), ("A2", 0), ("A3", 1),
                                 ("B0", 0), ("B1", 1), ("B2", 1), ("B3", 0), ("CIN", 1)]


def test_sim_random_vectors_deterministic(tmp_path, capsys):
    net = _build(tmp_path, "rca", "--width", "4", "--safa", "2", "--stage")
    capsys.readouterr()
    rc = main(["sim", "--netlist", str(net), "--count", "3", "--seed", "5"])
    first = capsys.readouterr().out
    assert rc == EXIT_OK
    main(["sim", "--netlist", str(net), "--count", "3", "--seed", "5"])
    assert capsys.readouterr().out == first


def test_sim_rejects_malformed_vector_file(tmp_path):
    net = _build(tmp_path, "rca", "--width", "4", "--safa", "2", "--stage")
    vecs = tmp_path / "vectors.txt"
    vecs.write_text("3 5\n")
    assert main(["sim", "--netlist", str(net), "--vectors", str(vecs)]) == EXIT_PARSE


def test_sim_rejects_out_of_range_vector(tmp_path):
    net = _build(tmp_path, "rca", "--width", "4", "--safa", "2", "--stage")
    vecs = tmp_path / "vectors.txt"
    for line in ("10 0 0\n",  # 0x10 needs five bits
                 "-1 0 0\n"):
        vecs.write_text(line)
        assert main(["sim", "--netlist", str(net), "--vectors", str(vecs)]) == EXIT_PARSE


def test_sim_reports_deadlock_exit_code(tmp_path, capsys):
    net = _build(tmp_path, "rca", "--width", "4", "--safa", "2", "--stage")
    doc = json.loads(net.read_text())
    doc["gates"] = [g for g in doc["gates"]
                    if g["id"] not in ("reg/cin_1", "reg/cin_0")]
    net.write_text(json.dumps(doc))
    vecs = tmp_path / "vectors.txt"
    vecs.write_text("f f 1\n")
    rc = main(["sim", "--netlist", str(net), "--vectors", str(vecs)])
    assert rc == EXIT_DEADLOCK
    assert "deadlock" in capsys.readouterr().err


def test_sim_without_output_groups_reports_no_latency(tmp_path, capsys):
    # no output group can become valid, so there is no latency to report
    net = tmp_path / "buf.netlist.json"
    net.write_text(json.dumps({"name": "buf", "inputs": [{"group": "A", "rail1": "a"}],
                               "outputs": [],
                               "gates": [{"id": "g", "kind": "BUF", "in": ["a"], "out": "y"}]}))
    assert main(["sim", "--netlist", str(net), "--count", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("latency=None ps rtz=True illegal=False") == 2
    assert main(["sta", "--netlist", str(net)]) == EXIT_OK


def test_sim_block_stops_at_first_failing_transaction(tmp_path, capsys):
    # both rails follow the same OR, so every valid input drives Y to (1, 1)
    net = tmp_path / "or2.netlist.json"
    net.write_text(json.dumps({
        "name": "or2", "inputs": [{"group": "A", "rail1": "a1", "rail0": "a0"}],
        "outputs": [{"group": "Y", "rail1": "y1", "rail0": "y0"}],
        "gates": [{"id": "g1", "kind": "OR2", "in": ["a1", "a0"], "out": "y1"},
                  {"id": "g0", "kind": "OR2", "in": ["a1", "a0"], "out": "y0"}]}))
    assert main(["sim", "--netlist", str(net), "--count", "3"]) == EXIT_FAIL
    assert capsys.readouterr().out == "transaction 0: latency=None ps rtz=True illegal=True\n"
    # staged, the same block runs every transaction and fails on the summary
    gen_stage(Netlist.load(net)).save(net)
    assert main(["sim", "--netlist", str(net), "--count", "2"]) == EXIT_FAIL
    assert capsys.readouterr().out.splitlines()[-1] == \
        "completed 2/2, illegal=2, rtz_failures=0, deadlocks=0"

    safa = _build(tmp_path, "safa")
    capsys.readouterr()
    assert main(["sim", "--netlist", str(safa), "--count", "2"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["transaction 0", "transaction 1"]
    assert all(line.endswith("rtz=True illegal=False") for line in lines)


def test_sim_missing_netlist_is_parse_error(tmp_path):
    assert main(["sim", "--netlist", str(tmp_path / "nope.json")]) == EXIT_PARSE


@pytest.mark.parametrize("circuit, flags, vectors, code", [
    (["rca", "--width", "4", "--stage"], ["--count", "0"], None, EXIT_USAGE),
    (["rca", "--width", "4", "--stage"], ["--count", "-1"], None, EXIT_USAGE),
    (["rca", "--width", "4", "--stage"], [], "# comments only\n\n", EXIT_PARSE),
    (["safa", "--stage"], [], "1 0 1\n", EXIT_PARSE),
    (["safa"], [], "1 0 1\n", EXIT_PARSE),
], ids=["zero-count", "negative-count", "no-vector-lines", "safa-stage-vectors",
        "safa-vectors"])
def test_sim_rejects_inputs_that_check_nothing(tmp_path, capsys, circuit, flags, vectors, code):
    net = _build(tmp_path, *circuit)
    if vectors is not None:
        path = tmp_path / "vectors.txt"
        path.write_text(vectors)
        flags = ["--vectors", str(path)]
    capsys.readouterr()
    assert main(["sim", "--netlist", str(net), *flags]) == code
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "completed" not in captured.out


@pytest.mark.parametrize("command", [
    ["build", "safa", "--out"],
    ["compare", "--out"],
    ["sim", "--count", "1", "--dump"],
], ids=["build-out", "compare-out", "sim-dump"])
def test_unwritable_output_is_parse_error(tmp_path, capsys, command):
    if command[0] == "sim":
        command = ["sim", "--netlist", str(_build(tmp_path, "safa", "--stage")), *command[1:]]
    # a file that cannot be opened, and one whose writes fail
    targets = [tmp_path / "no-such-dir" / "x", *filter(os.path.exists, ["/dev/full"])]
    for target in targets:
        capsys.readouterr()
        assert main([*command, str(target)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and err.count("\n") == 1


CYCLIC = {
    "name": "cycle",
    "inputs": [{"group": "A", "rail1": "a", "rail0": None}],
    "outputs": [{"group": "Y", "rail1": "g1", "rail0": None}],
    "gates": [{"id": "g1", "kind": "OR2", "in": ["a", "g2"], "out": "g1"},
              {"id": "g2", "kind": "BUF", "in": ["g1"], "out": "g2"}],
}


WRONG_ARITY = {
    "name": "arity",
    "inputs": [{"group": "A", "rail1": "a", "rail0": None}],
    "outputs": [{"group": "Y", "rail1": "y", "rail0": None}],
    "gates": [{"id": "g", "kind": "AO22", "in": ["a", "a", "a"], "out": "y"}],
}


DUPLICATE_ID = {
    "name": "dup",
    "inputs": [{"group": "A", "rail1": "a", "rail0": None}],
    "outputs": [{"group": "Y", "rail1": "y", "rail0": None}],
    "gates": [{"id": "g", "kind": "BUF", "in": ["a"], "out": "x"},
              {"id": "g", "kind": "BUF", "in": ["x"], "out": "y"}],
}


RAIL1_LIST = {
    "name": "rails",
    "inputs": [{"group": "A", "rail1": ["a"], "rail0": None}],
    "outputs": [{"group": "Y", "rail1": "y", "rail0": None}],
    "gates": [{"id": "g", "kind": "BUF", "in": ["a"], "out": "y"}],
}


INT_GATE_ID = {
    "name": "ids",
    "inputs": [{"group": "A", "rail1": "a", "rail0": None}],
    "outputs": [{"group": "Y", "rail1": "y", "rail0": None}],
    "gates": [{"id": 7, "kind": "BUF", "in": ["a"], "out": "y"}],
}


# would read as AND2(a, b) if the string were taken as a sequence of nets
STRING_INPUTS = {
    "name": "chars",
    "inputs": [{"group": "A", "rail1": "a", "rail0": None},
               {"group": "B", "rail1": "b", "rail0": None}],
    "outputs": [{"group": "Y", "rail1": "y", "rail0": None}],
    "gates": [{"id": "g", "kind": "AND2", "in": "ab", "out": "y"}],
}


TWO_DRIVERS = {
    "name": "two",
    "inputs": [{"group": "A", "rail1": "a", "rail0": None},
               {"group": "B", "rail1": "b", "rail0": None}],
    "outputs": [{"group": "Y", "rail1": "y", "rail0": None}],
    "gates": [{"id": "g1", "kind": "BUF", "in": ["a"], "out": "y"},
              {"id": "g2", "kind": "BUF", "in": ["b"], "out": "y"}],
}


# a gate drives the primary input a, which the second gate reads
DRIVEN_INPUT = {
    "name": "driven",
    "inputs": [{"group": "A", "rail1": "a", "rail0": None},
               {"group": "B", "rail1": "b", "rail0": None}],
    "outputs": [{"group": "Y", "rail1": "y", "rail0": None}],
    "gates": [{"id": "g1", "kind": "BUF", "in": ["b"], "out": "a"},
              {"id": "g2", "kind": "AND2", "in": ["a", "b"], "out": "y"}],
}


def _delays(**override):
    return {**DelayTable.unit().to_mapping(), **override}


@pytest.mark.parametrize("command, doc, message", [
    (["sta", "--netlist"], {"name": "x", "inputs": [], "outputs": [], "gates": 5}, ""),
    (["sta", "--netlist"], [], ""),
    (["sweep", "--width", "4", "--delays"], [1, 2], ""),
    (["sta", "--netlist"], CYCLIC, "cycle"),
    (["sim", "--count", "1", "--netlist"], CYCLIC, "cycle"),
    (["sim", "--count", "1", "--netlist"], WRONG_ARITY, "takes 4 inputs"),
    (["sta", "--netlist"], DUPLICATE_ID, "duplicate gate id 'g'"),
    (["sta", "--netlist"], RAIL1_LIST, "rail1 must be a string"),
    (["sta", "--netlist"], INT_GATE_ID, "gate id must be a string"),
    (["sta", "--netlist"], STRING_INPUTS, "gate inputs must be a list"),
    (["sim", "--count", "1", "--netlist"], TWO_DRIVERS, "multiple drivers"),
    (["classify", "--netlist"], TWO_DRIVERS, "multiple drivers"),
    (["sta", "--netlist"], DRIVEN_INPUT, "is both a primary input"),
    (["sweep", "--width", "4", "--delays"], _delays(AO21=1.7), "must be an integer"),
    (["sweep", "--width", "4", "--delays"], _delays(C2=True), "must be an integer"),
    (["sweep", "--width", "4", "--delays"], _delays(time_unit=5), "time_unit must be a string"),
], ids=["gates-not-a-list", "netlist-not-an-object", "delays-not-an-object",
        "sta-cycle", "sim-cycle", "sim-wrong-arity", "sta-duplicate-id",
        "sta-rail1-list", "sta-int-gate-id", "sta-string-inputs",
        "sim-two-drivers", "classify-two-drivers", "sta-driven-input",
        "delays-float", "delays-bool", "delays-int-time-unit"])
def test_malformed_input_file_is_parse_error(tmp_path, capsys, command, doc, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    assert main([*command, str(path)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err


def test_classify_refuses_single_wire_inputs(tmp_path, capsys):
    # the file loads, but classification needs rail pairs: a usage error
    path = tmp_path / "and2.json"
    path.write_text(json.dumps({**TWO_DRIVERS, "name": "and2", "gates": [
        {"id": "g1", "kind": "AND2", "in": ["a", "b"], "out": "y"}]}))
    assert main(["classify", "--netlist", str(path)]) == EXIT_USAGE
    assert capsys.readouterr() == (
        "", "error: input group 'A' is a single wire; classification needs rail pairs\n")


DEEP_ARRAY = "[" * 200_000 + "]" * 200_000
DEEP_OBJECT = '{"a": ' * 5_000 + "1" + "}" * 5_000


@pytest.mark.parametrize("command, text, what", [
    (["sta", "--netlist"], DEEP_ARRAY, "netlist"),
    (["classify", "--netlist"], DEEP_ARRAY, "netlist"),
    (["sim", "--count", "1", "--netlist"], DEEP_OBJECT, "netlist"),
    (["sweep", "--width", "4", "--delays"], DEEP_ARRAY, "delay table"),
    (["compare", "--source", "formula", "--delays"], DEEP_ARRAY, "delay table"),
], ids=["sta-netlist", "classify-netlist", "sim-netlist", "sweep-delays", "compare-delays"])
def test_nested_input_file_is_parse_error(tmp_path, capsys, command, text, what):
    # deep nesting overflows the JSON decoder's recursion limit
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert main([*command, str(path)]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith(f"error: cannot read {what} ")


def test_two_driver_net_is_parse_error(tmp_path, capsys):
    # STA needs one driver per net; the path used to depend on the gate order
    path = tmp_path / "two.json"
    path.write_text(json.dumps(TWO_DRIVERS))
    message = "net 'y' has multiple drivers: ['g1', 'g2']"
    assert main(["sta", "--netlist", str(path)]) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: cannot read netlist {str(path)!r}: {message}\n"
    with pytest.raises(ValueError, match=re.escape(message)):
        critical_path(Netlist.load(path), DelayTable.unit())


@pytest.mark.parametrize("doc, finding", [
    (TWO_DRIVERS, "net 'y' has multiple drivers: ['g1', 'g2']"),
    (CYCLIC, "gate graph contains a cycle"),
    (DRIVEN_INPUT, "net 'a' is both a primary input and driven by ['g1']"),
], ids=["two-drivers", "cyclic", "driven-input"])
def test_a_netlist_loads_only_if_it_can_be_ordered(doc, finding):
    # the same gates built in-process still report their finding
    def port(d):
        return PortGroup(d["group"], d["rail1"], d["rail0"])

    made = Netlist(doc["name"], [Gate(g["id"], GateKind(g["kind"]), tuple(g["in"]), g["out"])
                                 for g in doc["gates"]],
                   list(map(port, doc["inputs"])), list(map(port, doc["outputs"])))
    assert made.validate() == [finding]
    with pytest.raises(ValueError) as ordered:
        made.topo_gates()
    with pytest.raises(ValueError) as loaded:
        Netlist.from_dict(doc)
    assert loaded.value.args == ordered.value.args


_Y = PortGroup("Y", "y1", "y0")
_COPIES = [Gate("g1", GateKind.BUF, ("a1",), "y1"), Gate("g0", GateKind.BUF, ("a0",), "y0")]
# a transaction would never drive the second A
_TWO_AS = Netlist("two_as", [Gate("g1", GateKind.AND2, ("a", "c"), "y1"),
                             Gate("g0", GateKind.OR2, ("b", "d"), "y0")],
                  [PortGroup("A", "a", "b"), PortGroup("A", "c", "d")], [_Y])


@pytest.mark.parametrize("netlist, message", [
    (_TWO_AS, "input group 'A' is declared twice"),
    (gen_stage(_TWO_AS), "input group 'A' is declared twice"),
    (Netlist("shared", [Gate("g1", GateKind.AND2, ("a", "b"), "y1"),
                        Gate("g0", GateKind.OR2, ("b", "c"), "y0")],
             [PortGroup("A", "a", "b"), PortGroup("B", "a", "c")], [_Y]),
     "net 'a' is named twice among the input rails and ackin"),
    (Netlist("same_rails", [Gate("g1", GateKind.BUF, ("a",), "y1"),
                            Gate("g0", GateKind.BUF, ("a",), "y0")],
             [PortGroup("A", "a", "a")], [_Y]),
     "net 'a' is named twice among the input rails and ackin"),
    (Netlist("ackin_rail", [*_COPIES, Gate("cd", GateKind.OR2, ("y1", "y0"), "done")],
             [PortGroup("A", "a1", "a0")], [_Y], ackin="a0", ackout="done"),
     "net 'a0' is named twice among the input rails and ackin"),
    (Netlist("ackout_rail", _COPIES, [PortGroup("A", "a1", "a0")], [_Y],
             ackin="ack", ackout="y1"),
     "ackout 'y1' is also an output rail"),
    # ackout would follow ackin, or never rise: a run completes or deadlocks whatever the data
    (Netlist("ackout_ackin", _COPIES, [PortGroup("A", "a1", "a0")], [_Y],
             ackin="ack", ackout="ack"),
     "ackout 'ack' is also an input net"),
    (Netlist("ackout_input_rail", _COPIES, [PortGroup("A", "a1", "a0")], [_Y],
             ackin="ack", ackout="a0"),
     "ackout 'a0' is also an input net"),
], ids=["two-as", "two-as-stage", "rail-in-two-groups", "rail1-is-rail0", "ackin-is-a-rail",
        "ackout-is-an-output-rail", "ackout-is-ackin", "ackout-is-an-input-rail"])
def test_port_declared_twice_is_parse_error(tmp_path, capsys, netlist, message):
    # the tools would drive or read one copy of such a port only, and give a
    # wrong verdict (a missing latency, an illegal output, a deadlock) in
    # place of a load error
    assert netlist.validate() == [message]
    for route in (lambda: Netlist.from_dict(netlist.to_dict()), netlist.topo_gates,
                  lambda: netlist._fanout, lambda: critical_path(netlist, DelayTable.unit()),
                  lambda: steady_set_levels(netlist, {}, 1)):
        with pytest.raises(ValueError) as exc:
            route()
        assert exc.value.args == (message,)
    path = tmp_path / "twice.json"
    netlist.save(path)
    for command in ("sim", "sta", "classify"):
        assert main([command, "--netlist", str(path)]) == EXIT_PARSE
        assert capsys.readouterr().err == f"error: cannot read netlist {str(path)!r}: {message}\n"


def _run_detached(tmp_path, argv, stdout, stderr=subprocess.PIPE):
    """Run the CLI in a subprocess writing to `stdout` and `stderr`, once with a
    block-buffered and once with an unbuffered standard output; yield each
    finished process."""
    net = _build(tmp_path, "rca", "--width", "8", "--stage")
    path = [str(Path(dradder.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    for flags in ([], ["-u"]):
        yield subprocess.run([sys.executable, *flags, "-m", "dradder.cli",
                              *(str(net) if a == "@netlist" else a for a in argv)],
                             stdout=stdout, stderr=stderr, env=env, timeout=120)


@pytest.mark.parametrize("argv", [
    ["compare", "--source", "table2"], ["sta", "--netlist", "@netlist"], ["sweep", "--width", "32"],
], ids=["compare", "sta", "sweep"])
def test_closed_stdout_exits_141(tmp_path, argv):
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the first write
    try:
        for proc in _run_detached(tmp_path, argv, write):
            assert (proc.returncode, proc.stderr) == (EXIT_PIPE, b"")
    finally:
        os.close(write)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["sta", "--netlist", "@netlist"], ["sweep", "--width", "32"], ["--help"], ["sta", "--help"],
], ids=["sta", "sweep", "help", "sta-help"])
def test_full_stdout_exits_3(tmp_path, argv):
    with open("/dev/full", "w") as full:
        for proc in _run_detached(tmp_path, argv, full):
            assert proc.returncode == EXIT_PARSE
            assert proc.stderr.startswith(b"error: cannot write")
            assert proc.stderr.count(b"\n") == 1 and b"Traceback" not in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["sta"], ["sta", "--netlist", os.devnull]],
                         ids=["usage", "input"])
def test_full_stderr_exits_3(tmp_path, argv):
    # the error message cannot be written, so the exit code is all that is left
    with open("/dev/full", "w") as full:
        for proc in _run_detached(tmp_path, argv, subprocess.PIPE, full):
            assert (proc.returncode, proc.stdout) == (EXIT_PARSE, b"")


def test_verify_subcommand(tmp_path, capsys):
    rc = main(["verify", "--width", "4", "--safa", "2", "--mode", "exhaustive"])
    assert rc == EXIT_OK
    assert "failures=0" in capsys.readouterr().out


def test_verify_reports_a_failure(monkeypatch, capsys):
    failing = VerifyResult(passed=False, checked=9, failures=1,
                           first_counterexample={"a": 1, "b": 2, "cin": 0},
                           illegal_states=0, rtz_failures=0, sim_checked=9,
                           notes=["1 output pairs never reached a valid codeword"])
    monkeypatch.setattr(cli, "exhaustive_verify", lambda *args, **kwargs: failing)
    assert main(["verify", "--width", "2"]) == EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1:] == ["note: 1 output pairs never reached a valid codeword"]
    assert captured.err == "counterexample: {'a': 1, 'b': 2, 'cin': 0}\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--width", "10"],
    ["verify", "--width", "8", "--mode", "random", "--count", "-5"],
    ["verify", "--width", "8", "--mode", "random", "--count", "0"],
    # the published table takes no delays, so the file is never read
    ["compare", "--source", "table2", "--delays", "missing.json"],
    ["build", "cd"],
], ids=["exhaustive-too-wide", "negative-count", "zero-count", "table2-with-delays",
        "cd-without-pairs"])
def test_verify_rejects_bad_arguments(capsys, argv):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("call, error, message", [
    (lambda: gen_completion_detector(0), ValueError, "need at least one rail pair, got 0"),
    # a bool is not a width or a count
    (lambda: gen_completion_detector(True), ValueError, "pairs must be an int >= 1, got True"),
    (lambda: gen_completion_detector(2.0), ValueError, "pairs must be an int >= 1, got 2.0"),
    (lambda: AdderSpec(True, 1), ValueError, "width must be an int >= 1, got True"),
    (lambda: AdderSpec(4.0, 2), ValueError, "width must be an int >= 1, got 4.0"),
    (lambda: AdderSpec(4, 2.0), ValueError,
     "safa_stages must be an int in [0, width], got 2.0"),
    # "no" or 0 would pick a carry variant by its truth value
    (lambda: AdderSpec(4, 2, "no"), ValueError, "redundant_carry must be a bool, got 'no'"),
    (lambda: gen_dafa(redundant=0), ValueError, "redundant must be a bool, got 0"),
    (lambda: hybrid_latency(4.0, 2, DelayTable.unit()), ValueError,
     "width must be an int >= 1, got 4.0"),
    (lambda: sweep_hybrid(4.0, DelayTable.unit()), ValueError,
     "width must be an int >= 2, got 4.0"),
    (lambda: sweep_hybrid(True, DelayTable.unit()), ValueError,
     "width must be an int >= 2, got True"),
    (lambda: sweep_hybrid(1, DelayTable.unit()), ValueError, "sweep needs width >= 2, got 1"),
    (lambda: gen_stage(Netlist("bare", [], [], [])), ValueError,
     "'bare' has no dual-rail ports to wrap"),
    (lambda: gen_safa().group("Z"), KeyError, "no input group 'Z' in safa"),
    (lambda: gen_safa().group("A", output=True), KeyError, "no output group 'A' in safa"),
    (lambda: classify_indication(gen_safa(), DelayTable.unit(), 0), ValueError,
     "need at least one trial"),
    (lambda: classify_indication(gen_completion_detector(1), DelayTable.unit(), 8), ValueError,
     "classification needs at least two input pairs"),
    # one wire cannot tell bit 0 from spacer; a single-wire output is allowed
    (lambda: classify_indication(
        Netlist("wire", [Gate("g", GateKind.AND2, ("a1", "b"), "y")],
                [PortGroup("A", "a1", "a0"), PortGroup("B", "b")], [PortGroup("Y", "y")]),
        DelayTable.unit(), 8), ValueError,
     "input group 'B' is a single wire; classification needs rail pairs"),
    (lambda: compare_report().row("Adder18"), ValueError, "unknown adder legend 'Adder18'"),
    (lambda: oracle_add(0, 0, 0, 0), ValueError, "width must be >= 1, got 0"),
    (lambda: oracle_add(1, 2, 0, 4.0), ValueError, "width must be an int, got 4.0"),
    (lambda: oracle_add(1, 2, 0, True), ValueError, "width must be an int, got True"),
    (lambda: oracle_add(1.5, 2, 0, 4), ValueError, "a must be an int, got 1.5"),
    (lambda: oracle_add(1, 2, 1.0, 4), ValueError, "carry-in must be an int, got 1.0"),
    (lambda: exhaustive_verify(gen_hybrid_rca(AdderSpec(2, 0, True)), 2, mode="walk"),
     ValueError, "unknown mode 'walk'"),
], ids=["cd-no-pairs", "cd-bool-pairs", "cd-float-pairs", "spec-bool-width", "spec-float-width",
        "spec-float-safa", "spec-str-redundant", "dafa-int-redundant", "latency-float-width", "sweep-float-width", "sweep-bool-width",
        "sweep-width-1", "stage-no-ports", "unknown-input-group", "unknown-output-group",
        "classify-no-trials", "classify-one-pair", "classify-wire-input", "unknown-legend",
        "oracle-width-0", "oracle-float-width", "oracle-bool-width", "oracle-float-operand",
        "oracle-float-carry", "verify-unknown-mode"])
def test_library_errors_name_their_cause(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert exc.value.args == (message,)


@pytest.mark.parametrize("argv, message", [
    (["build", "cd", "--pairs", "0"], "need at least one rail pair, got 0"),
    (["classify", "--netlist", "@safa", "--trials", "0"], "need at least one trial"),
], ids=["cd-zero-pairs", "classify-zero-trials"])
def test_library_errors_reach_the_cli_as_usage_errors(tmp_path, capsys, argv, message):
    safa = str(_build(tmp_path, "safa"))
    capsys.readouterr()
    assert main([safa if arg == "@safa" else arg for arg in argv]) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_no_redundant_flag_reaches_the_generators(tmp_path, capsys):
    assert main(["verify", "--width", "4", "--safa", "0", "--no-redundant"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("checked 512 vectors: failures=0,")
    _build(tmp_path, "dafa", "--no-redundant")
    census = capsys.readouterr().out.splitlines()[1:]
    assert "  OR2    4" in census and not any("AO21" in line for line in census)


def test_verify_random_mode_at_width_64(capsys):
    rc = main(["verify", "--width", "64", "--mode", "random", "--count", "100"])
    assert rc == EXIT_OK
    assert "checked 100 vectors: failures=0" in capsys.readouterr().out


def test_sta_subcommand(tmp_path, capsys):
    net = _build(tmp_path, "rca", "--width", "8", "--safa", "2", "--stage")
    rc = main(["sta", "--netlist", str(net)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "critical path:" in out
    assert "REG(C2)" in out


def test_compare_subcommand_csv(tmp_path, capsys):
    rc = main(["compare", "--source", "table2", "--format", "csv"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("legend,")
    assert any(line.startswith("Adder13,") and ",35.3," in line
               for line in out.splitlines())


def test_compare_out_file_gets_the_stdout_text(tmp_path, capsys):
    out = tmp_path / "report.csv"
    for argv in (["--out", str(out)], []):
        assert main(["compare", "--format", "csv", *argv]) == EXIT_OK
    assert capsys.readouterr().out == f"wrote {out}\n" + out.read_bytes().decode()


def test_compare_formula_with_delay_file(tmp_path, capsys):
    d = tmp_path / "delays.json"
    DelayTable.unit().save(d)
    rc = main(["compare", "--source", "formula", "--delays", str(d)])
    assert rc == EXIT_OK
    assert "Adder11" in capsys.readouterr().out


def test_classify_subcommand(tmp_path, capsys):
    net = _build(tmp_path, "safa")
    rc = main(["classify", "--netlist", str(net), "--trials", "32"])
    assert rc == EXIT_OK
    assert "classification: early" in capsys.readouterr().out


def test_sweep_subcommand(tmp_path, capsys):
    rc = main(["sweep", "--width", "32"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "argmin: [0, 2]" in out


def test_sweep_rejects_width_one():
    assert main(["sweep", "--width", "1"]) == EXIT_USAGE


# Placeholders the fuzz test replaces with real paths in a fresh directory.
PATH_KINDS = ("@missing", "@empty", "@malformed", "@unwritable", "@netlist")
_num = st.integers(-3, 9).map(str)
_path = st.sampled_from(PATH_KINDS)


def _opt(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def _flat(*parts):
    return st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])


ARGV = st.one_of(
    _flat(st.sampled_from([["build", c] for c in ("safa", "dafa", "rca", "cd")]),
          _opt("--width", _num), _opt("--safa", _num), _opt("--pairs", _num),
          st.sampled_from([[], ["--stage"]]), _path.map(lambda p: ["--out", p])),
    _flat(st.just(["sim"]), _path.map(lambda p: ["--netlist", p]), _opt("--delays", _path),
          _opt("--vectors", _path), _opt("--count", _num), _opt("--dump", _path)),
    _flat(st.just(["verify"]), _opt("--width", _num), _opt("--safa", _num),
          st.sampled_from([[], ["--mode", "random"]]), _opt("--count", _num)),
    _flat(st.just(["sta"]), _path.map(lambda p: ["--netlist", p]), _opt("--delays", _path)),
    _flat(st.just(["compare"]), st.sampled_from([[], ["--source", "formula"]]),
          _opt("--delays", _path), _opt("--out", _path)),
    _flat(st.just(["classify"]), _path.map(lambda p: ["--netlist", p]),
          _opt("--delays", _path), _opt("--trials", _num), _opt("--seed", _num)),
    _flat(st.just(["sweep"]), _opt("--width", _num), _opt("--delays", _path)),
)


@settings(max_examples=40, deadline=None)
@given(argv=ARGV)
def test_cli_fuzz_exit_codes(argv):
    with tempfile.TemporaryDirectory() as d:
        root = Path(d)
        paths = {kind: root / kind[1:] for kind in PATH_KINDS}
        paths["@unwritable"] = root / "no-such-dir" / "x"
        paths["@empty"].write_text("")
        paths["@malformed"].write_text("{")
        assert main(["build", "rca", "--width", "2", "--stage",
                     "--out", str(paths["@netlist"])]) == EXIT_OK
        code = main([str(paths[a]) if a in paths else a for a in argv])
    assert code in {EXIT_OK, EXIT_USAGE, EXIT_PARSE, EXIT_FAIL, EXIT_DEADLOCK}


# Runs `main` on each argv of a JSON list inside a working directory and prints
# [exit code, stdout] per run, the directory's files and whether numpy was
# imported; with "blocked", importing numpy fails first.
_NUMPY_FREE_RUN = r"""
import contextlib, io, json, os, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None
from dradder.cli import main
os.chdir(sys.argv[2])
runs = []
for argv in json.loads(sys.argv[3]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runs.append([main(argv), out.getvalue()])
files = {f: open(f).read() for f in sorted(os.listdir("."))}
print(json.dumps([runs, files, sys.modules.get("numpy") is not None]))
"""


def test_cli_runs_without_numpy(tmp_path):
    # the runtime is the standard library: every subcommand gives the same
    # output whether numpy cannot be imported or is never looked at
    flow = [["build", "rca", "--width", "32", "--safa", "2", "--stage", "--out", "adder.json"],
            ["build", "dafa", "--out", "dafa.json"],
            ["verify", "--width", "8", "--safa", "2", "--mode", "exhaustive"],
            ["verify", "--width", "32", "--safa", "2", "--mode", "random"],
            ["sim", "--netlist", "adder.json", "--count", "5"],
            ["sta", "--netlist", "adder.json"],
            ["classify", "--netlist", "dafa.json"]]
    path = [str(Path(dradder.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    results = {}
    for mode in ("blocked", "importable"):
        (tmp_path / mode).mkdir()
        run = subprocess.run([sys.executable, "-c", _NUMPY_FREE_RUN, mode, str(tmp_path / mode),
                              json.dumps(flow)], capture_output=True, text=True, env=env,
                             timeout=300)
        assert run.returncode == 0, run.stderr
        results[mode] = json.loads(run.stdout)
    runs, files, imported = results["blocked"]
    assert [code for code, _ in runs] == [EXIT_OK] * len(flow)
    assert "checked 131072 vectors" in runs[2][1] and "checked 10000 vectors" in runs[3][1]
    assert set(files) == {"adder.json", "dafa.json"}
    assert results["importable"] == [runs, files, False]
