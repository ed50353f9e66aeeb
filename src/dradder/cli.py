"""Command-line front end for batch generation, simulation, verification,
timing analysis, and reporting.

Exit codes: 0 success, 2 usage error, 3 input parse error or an output
that cannot be written (a file or standard output), 4 check failure, 5
handshake deadlock, 141 stdout closed by its reader (the status a shell
shows for a tool that SIGPIPE stopped).
All randomness flows from --seed (default 1011), so reruns with identical
flags produce identical reports.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .generators import (
    AdderSpec,
    _adder_inputs,
    gen_completion_detector,
    gen_dafa,
    gen_hybrid_rca,
    gen_safa,
    gen_stage,
)
from .netlist import Netlist
from .simulator import (
    DEFAULT_SEED,
    DelayTable,
    classify_indication,
    dump_waveform,
    random_vectors,
    run_protocol,
    simulate_transaction,
)
from .timing import compare_report, critical_path, sweep_hybrid
from .verification import exhaustive_verify

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_FAIL = 4
EXIT_DEADLOCK = 5
EXIT_PIPE = 141


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


# what a malformed input file raises while it is read; deep nesting overflows
# the JSON decoder's recursion limit
_BAD_INPUT = (OSError, ValueError, KeyError, TypeError, AttributeError, RecursionError)


def _read(what: str, load, path: str):
    """`load(path)`, with a malformed or unreadable file as a parse error."""
    try:
        return load(path)
    except _BAD_INPUT as exc:
        raise CliError(f"cannot read {what} {path!r}: {exc}", EXIT_PARSE)


def _load_netlist(path: str) -> Netlist:
    return _read("netlist", Netlist.load, path)


def _load_delays(path: str | None) -> DelayTable:
    return DelayTable.unit() if path is None else _read("delay table", DelayTable.load, path)


def _build_circuit(args) -> Netlist:
    if args.circuit == "safa":
        n = gen_safa()
    elif args.circuit == "dafa":
        n = gen_dafa(redundant=args.redundant)
    elif args.circuit == "rca":
        if args.width is None:
            raise CliError("rca needs --width", EXIT_USAGE)
        n = gen_hybrid_rca(AdderSpec(args.width, args.safa, args.redundant))
    else:  # "cd", the last of argparse's choices
        if args.pairs is None:
            raise CliError("cd needs --pairs", EXIT_USAGE)
        n = gen_completion_detector(args.pairs)
    return gen_stage(n) if args.stage else n


def _parse_vector_file(path: str, netlist: Netlist) -> list[dict[str, int]]:
    """One transaction per line: '<a_hex> <b_hex> <cin_bit>'."""
    width = (len(netlist.inputs) - 1) // 2
    ports = _adder_inputs(width)
    if width < 1 or {g.name for g in netlist.inputs} != set(ports):
        raise CliError(f"vector files drive adder inputs A0.., B0.., CIN; "
                       f"netlist {netlist.name!r} has other inputs", EXIT_PARSE)
    vectors = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 'a_hex b_hex cin'")
            a, b, cin = int(parts[0], 16), int(parts[1], 16), int(parts[2])
            if cin not in (0, 1) or not (0 <= a < 2**width and 0 <= b < 2**width):
                raise ValueError(f"line {lineno}: value out of range for width {width}")
            bits = a | b << width | cin << 2 * width  # bit k drives ports[k]
            vectors.append({name: bits >> k & 1 for k, name in enumerate(ports)})
    if not vectors:
        raise ValueError("no vector lines")
    return vectors


def cmd_build(args) -> int:
    n = _build_circuit(args)
    out = args.out or f"{n.name}.netlist.json"
    n.save(out)
    print(f"wrote {out}")
    for kind, count in n.gate_census().items():
        if count:
            print(f"  {kind.value:<6} {count}")
    return EXIT_OK


def cmd_sim(args) -> int:
    n = _load_netlist(args.netlist)
    delays = _load_delays(args.delays)
    if args.vectors:
        vectors = _read("vectors", lambda path: _parse_vector_file(path, n), args.vectors)
    else:
        vectors = random_vectors(n, args.count, args.seed)

    def run(vec):
        return simulate_transaction(n, delays, [(grp.name, vec[grp.name], 0) for grp in n.inputs])

    staged = n.ackin is not None and n.ackout is not None
    with open(args.dump, "w") if args.dump else contextlib.nullcontext() as dump_fh:
        if staged:
            logs, summary = run_protocol(n, delays, vectors)
        else:  # simulated one by one, up to the first failing transaction
            logs = map(run, vectors)
        for i, (vec, log) in enumerate(zip(vectors, logs)):
            if dump_fh:
                dump_waveform(run(vec) if staged else log, dump_fh, header=f"transaction {i}")
            print(f"transaction {i}: latency={log.latency} {delays.time_unit} "
                  f"rtz={log.rtz_complete} illegal={log.illegal_seen}")
            if not staged and (log.illegal_seen or not log.rtz_complete):
                return EXIT_FAIL
    if not staged:
        return EXIT_OK
    print(f"completed {summary.completed}/{summary.transactions}, "
          f"illegal={summary.illegal_states}, rtz_failures={summary.rtz_failures}, "
          f"deadlocks={len(summary.deadlocks)}")
    for idx, blocking in summary.deadlocks:
        print(f"deadlock in transaction {idx}: blocked pairs {blocking}", file=sys.stderr)
    if summary.deadlocks:
        return EXIT_DEADLOCK
    return EXIT_FAIL if summary.illegal_states or summary.rtz_failures else EXIT_OK


def cmd_verify(args) -> int:
    n = _build_circuit(args)
    result = exhaustive_verify(n, args.width, mode=args.mode, seed=args.seed,
                               count=args.count)
    print(f"checked {result.checked} vectors: failures={result.failures}, "
          f"illegal={result.illegal_states}, rtz_failures={result.rtz_failures}, "
          f"event-sim cross-checked={result.sim_checked}")
    for note in result.notes:
        print(f"note: {note}")
    if result.first_counterexample:
        print(f"counterexample: {result.first_counterexample}", file=sys.stderr)
    return EXIT_OK if result.passed else EXIT_FAIL


def cmd_sta(args) -> int:
    n = _load_netlist(args.netlist)
    delays = _load_delays(args.delays)
    cp = critical_path(n, delays)
    print(f"critical path: {cp.value} {delays.time_unit}")
    terms = [f"{c}*{k.value}" for k, c in sorted(cp.expr.nonzero().items(),
                                                 key=lambda kv: kv[0].value)]
    if cp.expr.includes_register:
        terms.insert(0, "REG(C2)")
    print("expression: " + " + ".join(terms))
    print("path: " + " -> ".join(cp.path))
    return EXIT_OK


def cmd_compare(args) -> int:
    if args.source == "table2" and args.delays is not None:
        raise CliError("--delays applies only to --source formula", EXIT_USAGE)
    source = "table2-practical" if args.source == "table2" else _load_delays(args.delays)
    report = compare_report(source)
    text = report.to_csv() if args.format == "csv" else report.to_text()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_classify(args) -> int:
    n = _load_netlist(args.netlist)
    delays = _load_delays(args.delays)
    report = classify_indication(n, delays, args.trials, args.seed)
    print(f"classification: {report.classification}")
    print(f"early-set witnesses: {len(report.early_set_witnesses)} "
          f"(all-outputs: {len(report.full_early_set_witnesses)})")
    print(f"early-reset witnesses: {len(report.early_reset_witnesses)}")
    print(f"note: {report.note}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    delays = _load_delays(args.delays)
    result = sweep_hybrid(args.width, delays)
    for s, v in result.curve:
        mark = " <- min" if s in result.argmin else ""
        print(f"safa_stages={s:>3}  latency={v} {delays.time_unit}{mark}")
    print(f"argmin: {list(result.argmin)}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose help and usage writes raise OSError, which
    argparse's own swallows, so they fail like every other output."""

    def _print_message(self, message, file=None):
        if message:
            (file or sys.stderr).write(message)


def _parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="dradder",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_seed(sp):
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"RNG seed (default {DEFAULT_SEED})")

    b = sub.add_parser("build", help="generate a netlist file")
    b.add_argument("circuit", choices=["safa", "dafa", "rca", "cd"])
    b.add_argument("--width", type=int)
    b.add_argument("--safa", type=int, default=0, help="SAFA stage count for rca")
    b.add_argument("--pairs", type=int, help="rail-pair count for cd")
    b.add_argument("--redundant", action=argparse.BooleanOptionalAction, default=True)
    b.add_argument("--stage", action="store_true",
                   help="wrap with input register and completion detector")
    b.add_argument("--out")
    b.set_defaults(func=cmd_build)

    s = sub.add_parser("sim", help="simulate transactions on a netlist file")
    s.add_argument("--netlist", required=True)
    s.add_argument("--delays")
    s.add_argument("--vectors", help="vector file: 'a_hex b_hex cin' per line")
    s.add_argument("--count", type=int, default=10, help="random vectors when no file")
    s.add_argument("--dump", help="write a waveform text dump")
    add_seed(s)
    s.set_defaults(func=cmd_sim)

    v = sub.add_parser("verify", help="check an adder against the integer oracle")
    v.add_argument("--width", type=int)
    v.add_argument("--safa", type=int, default=0)
    v.add_argument("--redundant", action=argparse.BooleanOptionalAction, default=True)
    v.add_argument("--mode", choices=["exhaustive", "random"], default="exhaustive")
    v.add_argument("--count", type=int, default=10_000)
    add_seed(v)
    v.set_defaults(func=cmd_verify, circuit="rca", stage=False)

    t = sub.add_parser("sta", help="critical-path analysis of a netlist file")
    t.add_argument("--netlist", required=True)
    t.add_argument("--delays")
    t.set_defaults(func=cmd_sta)

    c = sub.add_parser("compare", help="latency comparison report over all legends")
    c.add_argument("--source", choices=["table2", "formula"], default="table2")
    c.add_argument("--delays", help="delay table for --source formula")
    c.add_argument("--format", choices=["csv", "text"], default="text")
    c.add_argument("--out")
    c.set_defaults(func=cmd_compare)

    k = sub.add_parser("classify", help="indication class of a function block")
    k.add_argument("--netlist", required=True)
    k.add_argument("--delays")
    k.add_argument("--trials", type=int, default=64, help="vector budget: every input vector "
                   "when 2**pairs <= TRIALS, else TRIALS seeded random ones (default 64)")
    add_seed(k)
    k.set_defaults(func=cmd_classify)

    w = sub.add_parser("sweep", help="latency curve over SAFA/DAFA splits")
    w.add_argument("--width", type=int, required=True)
    w.add_argument("--delays")
    w.set_defaults(func=cmd_sweep)
    return p


def main(argv=None) -> int:
    parser = _parser()
    try:
        try:
            args = parser.parse_args(argv)
            code = args.func(args)
        except SystemExit as exc:
            code = EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
        except (CliError, ValueError) as exc:  # a ValueError is a bad argument value
            print(f"error: {exc}", file=sys.stderr)
            code = exc.code if isinstance(exc, CliError) else EXIT_USAGE
        sys.stdout.flush()  # a closed reader or a full device shows here, not at exit
    except OSError as exc:  # every input is read through _read, so an output failed
        if not isinstance(exc, BrokenPipeError):
            with contextlib.suppress(OSError):  # a full stderr loses the message, not the code
                print(f"error: cannot write output: {exc}", file=sys.stderr)
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except OSError:
                # keep the flush at exit from raising again; the process-wide SIGPIPE
                # disposition stays as it is, since main also runs in-process
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, stream.fileno())
                os.close(devnull)
        return EXIT_PIPE if isinstance(exc, BrokenPipeError) else EXIT_PARSE
    return code


if __name__ == "__main__":
    sys.exit(main())
