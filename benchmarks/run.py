#!/usr/bin/env python3
"""Layered benchmark for dradder.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload {handshake,oracle,explore} \
        [--seed N] [--seconds S] [--trace 0|1] [--smoke]

It imports dradder from the checkout's `src/` in this one process, builds
the workload's inputs from the seed, runs rounds of the workload for at
least `--seconds` seconds and checks every result. The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics named in BENCHMARK.json with
`--trace 0`, its per-layer metrics with `--trace 1`. A traced run
alternates untraced and traced rounds, so it also reports the tracing
overhead. Times are scaled to a fixed host speed (see clock.py). The full
report, with the run context and any spans, is written to `benchmarks/out/`.
`--smoke` runs two rounds of a shrunken workload.

The script re-executes itself once with PYTHONHASHSEED=0: with randomized
string hashing the dict layouts of net names differ from process to process
and move a run's times by about 5%.
"""

from __future__ import annotations

import os
import sys

if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

import argparse
import importlib
import json
import platform
import resource
import statistics
import types
from pathlib import Path
from time import perf_counter

import numpy
from clock import Clock
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, Ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

DEFAULT_SEED = 1011
SETUP_REPS = 9
MIN_ROUNDS = 4
MODULES = ("generators", "netlist", "timing", "simulator", "verification")
# Reported beside the gated metrics but not gated: they are zero or absent
# on some workloads, or raw host readings.
REPORT_UNITS = {"ops_failed_frac": "1", "txn_per_s": "1/s", "vectors_per_s": "1/s",
                "gates_per_s": "1/s", "sim_latency_mean_tu": "tu", "wall_raw_s": "s",
                "host_scale": "1"}


class SetupError(RuntimeError):
    pass


def fresh_import():
    """Import dradder from the checkout anew and return its layer modules."""
    for name in [m for m in sys.modules if m == "dradder" or m.startswith("dradder.")]:
        del sys.modules[name]
    pkg = importlib.import_module("dradder")
    if Path(pkg.__file__).resolve().parent != SRC / "dradder":
        raise SetupError(f"imported dradder from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(**{m: sys.modules[f"dradder.{m}"] for m in MODULES})


def setup(workload_cls, seed: int, smoke: bool, clock: Clock):
    """Import plus seeded input generation, SETUP_REPS times; returns the
    median scaled time, the layer modules and the last workload built."""
    if not (SRC / "dradder" / "__init__.py").is_file():
        raise SetupError(f"no dradder package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    def build():
        dr = fresh_import()
        return dr, workload_cls(dr, seed, smoke)

    times = []
    for _ in range(SETUP_REPS):
        (dr, wl), _, scaled = clock.time(build)
        times.append(scaled)
    return statistics.median(times), dr, wl


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_context() -> dict:
    lines = sum(len(p.read_text().splitlines()) for p in (SRC / "dradder").glob("*.py"))
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "src_dradder_lines": lines,
    }


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="two rounds of a shrunken workload, for a quick check")
    args = ap.parse_args(argv)

    workload_cls = WORKLOADS[args.workload]
    clock = Clock(workload_cls.numpy_share)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        setup_s, dr, wl = setup(workload_cls, args.seed, args.smoke, clock)
    except (OSError, ImportError, SetupError, ValueError) as exc:
        print(f"benchmark set-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    seconds, min_rounds = (0.0, 2) if args.smoke else (args.seconds, MIN_ROUNDS)
    tracer = Tracer(dr) if args.trace else None
    ops = Ops()
    rounds = []  # (round, traced, RoundResult)
    start = perf_counter()
    r = 0
    while r < min_rounds or perf_counter() - start < seconds:
        is_traced = tracer is not None and r % 2 == 1
        try:
            if is_traced:
                tracer.round = r
                tracer.install()
                res = tracer.span("bench.round", wl.run_round, r, ops, clock)
            else:
                res = wl.run_round(r, ops, clock)
            rounds.append((r, is_traced, res))
        except Exception as exc:  # a raising round is a failed operation
            ops.check(f"round {r}", False, f"{type(exc).__name__}: {exc}")
        finally:
            if is_traced:
                tracer.remove()
        r += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if not rounds:
        print("no round completed:\n  " + "\n  ".join(ops.errors), file=sys.stderr)
        return 1
    first = rounds[0][2] if rounds[0][0] == 0 else None
    mode = "smoke" if args.smoke else "full"
    expected = json.loads(EXPECTED.read_text())[mode].get(wl.name)
    if args.seed == DEFAULT_SEED and expected is not None:
        got = first.digest if first else None
        ops.check("round-0 simulated statistics digest", got == expected,
                  f"{got} != stored {expected}")

    probe = wl.probe() if hasattr(wl, "probe") else None  # (ok, detail)
    probe_failed = int(probe is not None and not probe[0])

    untraced = [res for _, t, res in rounds if not t]
    traced = [res for _, t, res in rounds if t]
    items_per_s = median(res.items / res.item_wall for res in untraced)
    end_to_end = {
        "setup_s": setup_s,
        "wall_s": median(res.wall for res in untraced),
        "items_per_s": items_per_s,
        "peak_rss_mb": peak_rss_mb,
        wl.rate_metric: items_per_s,
        "ops_failed_frac": (ops.failed + probe_failed) / (ops.attempted + (probe is not None)),
        "wall_raw_s": median(res.raw_wall for res in untraced),
        "host_scale": median(res.wall / res.raw_wall for _, _, res in rounds),
    }
    if first is not None:
        end_to_end.update(first.info)
    per_layer = {}
    if tracer is not None:
        per_layer = layer_metrics(tracer, {r: res.wall / res.raw_wall
                                           for r, t, res in rounds if t})
        per_layer["trace.overhead_s"] = (median(res.wall for res in traced)
                                         - end_to_end["wall_s"])

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(REPORT_UNITS)
    gated = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = per_layer if args.trace else end_to_end
    missing = [m["name"] for m in gated if m["name"] not in values]
    if missing:
        print(f"benchmark does not compute {missing}", file=sys.stderr)
        return 1

    context = run_context()
    report = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
        "context": context, "rounds": len(rounds), "traced_rounds": len(traced),
        "round_wall_s": [res.wall for res in untraced],
        "round_raw_wall_s": [res.raw_wall for res in untraced],
        "round0_digest": first.digest if first else None,
        "end_to_end": end_to_end, "per_layer": per_layer,
        "probe": probe and {"ok": probe[0], "detail": probe[1]},
        "errors": ops.errors,
        "traceEvents": tracer.chrome_trace() if tracer else [],
    }
    OUT.mkdir(exist_ok=True)
    suffix = "-smoke" if args.smoke else ""
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}{suffix}.json").write_text(
        json.dumps(report) + "\n")

    print(f"context {json.dumps(context)}")
    print(f"{wl.name} seed={args.seed} trace={args.trace} rounds={len(rounds)} "
          f"(untraced {len(untraced)}, traced {len(traced)})")
    for name, value in {**end_to_end, **per_layer}.items():
        print(f"  {name:<42} {value:>14.6g} {units.get(name, '')}")
    if probe is not None:
        print(f"  width-64 probe: {'ok' if probe[0] else 'FAILED'} ({probe[1]})")
    for err in ops.errors:
        print(f"  check failed: {err}")
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in gated},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
