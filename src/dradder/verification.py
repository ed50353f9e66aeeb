"""Oracles and property checkers for the generated adders.

Adder sweeps work on bit-planes: one Python int per operand bit (the
carry-in, then A and B least significant first), lane j at bit j, one lane
per vector, so they are exact at any width. `GATE_AT`, written with & and |
only, evaluates the ints unchanged, and `int.bit_count()` counts lanes. The
vectors are laid out as uint64 words, lane j at bit j % 64 of word j // 64:
exhaustive mode takes plane k from bit k of the vector index, random mode
draws raw words from a seeded generator. Each plane becomes one int, cut
to the chunk's lanes, before the walk, so no padding lane exists. A sweep
runs in chunks of words sized so that one chunk's net levels fit a fixed
32 MiB budget; it keeps only the decoded counts, the first failure and the
port bits of the sampled lanes, so its memory does not grow with the
number of vectors. Within a chunk, a net that is not a port is dropped
after its last reader in the walk, so the chunk's peak holds the ports and
the live nets, not the whole netlist. Two evaluation routes check every
sweep:

* the steady-state evaluator, used for every lane, valid because every
  generated circuit is monotone per handshake phase (a C-element driven
  from the all-zero state settles to the AND of its inputs); its output
  planes are compared with a plane-wise ripple of the integer oracle;
* the event-driven simulator, replayed on a seeded subsample of every
  sweep; the level of every net at the end of its set phase must equal
  its steady-state level, which one more walk settles for the whole
  subsample, a vector per lane, and the transaction must return to zero.

The evaluator, `Netlist._settle`, walks the structure pass's gate positions
and net ids, as STA does, with every input net it is not given at spacer and
ackin high; the simulator runs on `Netlist.int_form`, whose fanout entries
it builds from the same pass. Both take gate semantics from the one table
`netlist.GATE_AT`. Each kind outputs 0 from all-zero inputs, whatever a
C-element holds, so the steady state after the spacer is all-zero for any
acyclic netlist: return to zero is observed only on the event-simulated
sample. The cross-check also guards how the fanout entries are built, event
scheduling and delays, the C-element holding its value across phases, and
the simulator's illegal-state and monotonicity monitors.

The ten published sum/carry equations are embedded as product-term data
and checked for disjointness (DSOP) and monotonic cover, both structurally
and by enumeration.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

import numpy as np

from .generators import _adder_inputs
from .netlist import Netlist, PortGroup
from .simulator import DEFAULT_SEED, DelayTable, simulate_transaction


# ---------------------------------------------------------------------------
# integer oracle


def oracle_add(a: int, b: int, cin: int, width: int) -> tuple[int, int]:
    """Ground-truth addition: ((a + b + cin) mod 2**width, carry-out)."""
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    if not (0 <= a < 2**width and 0 <= b < 2**width):
        raise ValueError(f"operands out of range for width {width}: {a}, {b}")
    if cin not in (0, 1):
        raise ValueError(f"carry-in must be 0 or 1, got {cin}")
    total = a + b + cin
    return total % 2**width, total >> width


def oracle_planes(a: list, b: list, cin) -> list:
    """Bulk form of `oracle_add` over bit-planes (int lanes, bool arrays or
    uint64 words), least significant first: the sum planes followed by the
    carry-out plane, at any width."""
    out, c = [], cin
    for x, y in zip(a, b):
        half = x ^ y
        out.append(half ^ c)
        c = (x & y) | (c & half)
    return out + [c]


# ---------------------------------------------------------------------------
# vectorized steady-state evaluation


def steady_set_levels(n: Netlist, inputs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Steady levels after a set phase from all-zero, one array per net
    keyed by name in net-id order, vectorized across input vectors: each
    input array is cast to one boolean lane per element, and a uint64 array,
    which would read as packed words, is a `ValueError`. C2 settles to AND
    under monotone rising inputs. One `Netlist._settle` walk: every other
    input net at spacer, ackin, if any, high."""
    n.topo_gates()  # a malformed, two-driver or cyclic netlist raises here
    ids = n._structure.ids
    lanes = {k: np.asarray(v) for k, v in inputs.items()}
    if words := [k for k, v in lanes.items() if v.dtype == np.uint64]:
        raise ValueError(f"input net {words[0]!r} holds uint64 words; "
                         "steady_set_levels takes one boolean lane per element")
    if unknown := [k for k in lanes if k not in ids]:
        raise ValueError(f"input net {unknown[0]!r} is not in {n.name!r}")
    lanes = {k: v.astype(bool, copy=False) for k, v in lanes.items()}
    first = next(iter(lanes.values()), np.zeros((), dtype=bool))
    return dict(zip(ids, n._settle(lanes, ~np.zeros_like(first))))


def steady_reset_levels(n: Netlist, set_levels: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Steady levels after the return-to-zero phase following `set_levels`:
    all inputs at spacer, C2 holding its set-phase value until both inputs
    are back at zero. The result is all-zero for any acyclic netlist,
    because every gate kind outputs 0 from all-zero inputs: nothing is evaluated."""
    shape = next(iter(set_levels.values())).shape
    return {net: np.zeros(shape, dtype=bool) for net in n._structure.ids}


# ---------------------------------------------------------------------------
# adder sweeps on int lanes

_LANES = 64  # lanes per uint64 word; lane j sits at bit j % 64 of word j // 64
_ONES = np.uint64(2**64 - 1)
# Byte budget for one chunk's net levels: a sweep evaluates as many words of
# lanes at once as fit it at 8 bytes per word and net, so its memory does not
# grow with the lane count.
_CHUNK_BYTES = 32 << 20
# vectors of each sweep replayed on the event-driven simulator; at most 64,
# so a net's levels at the sampled vectors fit one uint64
_SIM_SAMPLE = 32
# plane k < 6 of an exhaustive sweep is bit k of the lane's position in its word
_LOW_PLANES = [sum(1 << j for j in range(_LANES) if j >> k & 1) for k in range(6)]


def _index_planes(count: int, first_word: int, words: int) -> np.ndarray:
    """Planes 0..count-1 of the lane index over `words` words from
    `first_word`, one row each: plane k >= 6 is all-ones or zero per word,
    from bit k - 6 of the word index."""
    word = np.arange(first_word, first_word + words, dtype=np.uint64)
    return np.array([np.full(words, _LOW_PLANES[k], dtype=np.uint64) if k < 6
                     else ((word >> (k - 6)) & 1) * _ONES for k in range(count)])


def _lane_int(planes, lane: int) -> int:
    """The unsigned integer whose bit k is plane k at `lane`."""
    return sum((p >> lane & 1) << k for k, p in enumerate(planes))


def _drive(rails: list[tuple[str, ...]], planes: list[int], every: int) -> dict[str, int]:
    """Input rail levels on int lanes: plane k on rail1 of `rails[k]`, its
    complement within `every` on rail0."""
    levels = {}
    for (rail1, rail0), bit in zip(rails, planes):
        levels[rail1], levels[rail0] = bit, every ^ bit
    return levels


def _sweep_chunk(n: Netlist, rails: list[tuple[str, ...]], outs: list[PortGroup],
                 planes: list[int], every: int):
    """Evaluate one chunk of int lanes, lane j at bit j of each plane and of
    `every`, and decode its output groups `outs`; `rails` holds each plane's
    input (rail1, rail0). Returns the counts of illegal pairs, spacer pairs
    and failing lanes and the lowest failing lane's counterexample (or
    None). The walk keeps only the ports; every other net is dropped after
    its last reader."""
    cin, a, b = planes[0], planes[1:len(outs)], planes[len(outs):]
    levels = n._settle(_drive(rails, planes, every), every, drop=True)
    ids = n._structure.ids

    illegal = spacerish = 0
    got = []
    for grp in outs:
        r1, r0 = levels[ids[grp.rail1]], levels[ids[grp.rail0]]
        illegal += (r1 & r0).bit_count()
        spacerish += (every ^ (r1 | r0)).bit_count()
        got.append(r1)
    expected = oracle_planes(a, b, cin)
    bad = 0
    for g, e in zip(got, expected):
        bad |= g ^ e

    first = None
    if bad:
        i = (bad & -bad).bit_length() - 1
        first = {"a": _lane_int(a, i), "b": _lane_int(b, i), "cin": cin >> i & 1,
                 "got_sum": _lane_int(got[:-1], i), "got_cout": got[-1] >> i & 1,
                 "expected_sum": _lane_int(expected[:-1], i),
                 "expected_cout": expected[-1] >> i & 1}
    return illegal, spacerish, bad.bit_count(), first


@dataclass
class VerifyResult:
    passed: bool
    checked: int
    failures: int
    first_counterexample: dict | None
    illegal_states: int
    rtz_failures: int
    sim_checked: int
    notes: list[str] = field(default_factory=list)


def exhaustive_verify(
    n: Netlist,
    width: int,
    *,
    mode: str = "exhaustive",
    seed: int = DEFAULT_SEED,
    count: int = 10_000,
) -> VerifyResult:
    """Check an adder netlist against the integer oracle.

    A netlist without the ports `gen_hybrid_rca` gives a `width`-bit adder
    (bare or staged; extra output groups allowed) is a `ValueError`.
    Exhaustive mode sweeps all 2**(2*width+1) transactions (allowed up to
    width 8); random mode draws `count` seeded vectors at any width. The
    full sweep runs through the steady-state evaluator (set phase
    decoded and compared with the oracle), on int lanes and in chunks of
    bounded memory; a seeded subsample of `_SIM_SAMPLE` vectors is
    additionally replayed on the event-driven simulator under unit delays,
    whose set-phase level of every net must equal the steady-state one. The
    first counterexample is the lowest failing lane. `rtz_failures` counts
    sampled transactions that did not return to zero: the steady-state
    reset cannot fail (module doc).
    """
    *ab, cin = _adder_inputs(width)
    ports = [cin, *ab]  # input ports in plane order: CIN is bit 0 of the exhaustive index
    if mode == "exhaustive":
        if width > 8:
            raise ValueError("exhaustive mode is limited to width <= 8")
        total = 2 ** len(ports)
    elif mode == "random":
        if count < 1:
            raise ValueError(f"random mode needs count >= 1, got {count}")
        total = count
        # word-major draws, so the vectors do not depend on the chunk size
        draw = np.random.default_rng(seed).integers
    else:
        raise ValueError(f"unknown mode {mode!r}")
    n.topo_gates()  # a malformed, two-driver or cyclic netlist raises here
    outs = [n._out_groups.get(f"SUM{i}") for i in range(width)] + [n._out_groups.get("COUT")]
    if {g.name for g in n.inputs} != set(ports) \
            or any(g is None or g.scalar for g in [*n.inputs, *outs]):
        raise ValueError(f"{n.name!r} is not an adder of width {width}: it needs the rail pairs "
                         f"A0..A{width - 1}, B0..B{width - 1}, CIN as its only inputs and "
                         f"SUM0..SUM{width - 1}, COUT among its outputs")
    s = n._structure
    rails = [n.group(name).rails() for name in ports]
    words = -(-total // _LANES)
    step = max(1, _CHUNK_BYTES // (8 * len(s.ids)))
    sample = np.array(sorted(random.Random(seed).sample(range(total), min(_SIM_SAMPLE, total))),
                      dtype=np.uint64)

    illegal = spacerish = failures = 0
    first = None
    picked = []  # per chunk, the port bits of its sampled lanes: one row per plane
    for w0 in range(0, words, step):
        nw = min(step, words - w0)
        if mode == "exhaustive":
            raw = _index_planes(len(ports), w0, nw)
        else:
            raw = draw(0, 2**64, size=(nw, len(ports)), dtype=np.uint64).T
        lo = w0 * _LANES
        every = (1 << min(nw * _LANES, total - lo)) - 1
        at = sample[(sample >= lo) & (sample < lo + nw * _LANES)] - lo
        picked.append(raw[:, at // _LANES] >> at % _LANES & 1)
        planes = [int.from_bytes(p.astype("<u8", copy=False).tobytes(), "little") & every
                  for p in raw]
        del raw  # the walk holds the int lanes only
        (chunk_illegal, chunk_spacerish, chunk_failures,
         chunk_first) = _sweep_chunk(n, rails, outs, planes, every)
        illegal += chunk_illegal
        spacerish += chunk_spacerish
        failures += chunk_failures
        first = first or chunk_first

    # event-driven cross-check of the sampled vectors, net by net in walk
    # order: the input nets as declared, then the gate outputs in
    # topo_gates() order, which is the gate list when every gate follows its
    # drivers. One steady walk settles them all, sampled vector j on lane j.
    scan = np.array([*range(s.base), *(s.base + k for k in s.positions)])
    planes = [int.from_bytes(row.tobytes(), "little")
              for row in np.packbits(np.concatenate(picked, axis=1), axis=1, bitorder="little")]
    every = (1 << len(sample)) - 1
    steady = np.array(n._settle(_drive(rails, planes, every), every), dtype=np.uint64)[scan]
    delays = DelayTable.unit()
    sim_checked = rtz_failures = 0
    sim_first = None
    for j in range(len(sample)):
        log = simulate_transaction(n, delays, [(name, p >> j & 1, 0)
                                               for name, p in zip(ports, planes)])
        levels = np.array(log.set_net_levels, dtype=bool)[scan]
        differ = np.flatnonzero((steady >> j & 1).astype(bool) != levels)
        net = log.names[scan[differ[0]]] if differ.size else None
        rtz_failures += not log.rtz_complete
        if net is not None or not log.rtz_complete or log.illegal_seen \
                or not log.monotonic:
            sim_first = {"a": _lane_int(planes[1:width + 1], j),
                         "b": _lane_int(planes[width + 1:], j), "cin": planes[0] >> j & 1,
                         "via": "event simulator", "net": net}
            break
        sim_checked += 1

    notes: list[str] = []
    if spacerish:
        notes.append(f"{spacerish} output pairs never reached a valid codeword")
    if sim_first is not None:
        failures += 1
        first = first or sim_first
        notes.append("event simulator disagreed on vector "
                     f"({sim_first['a']}, {sim_first['b']}, {sim_first['cin']})")
    passed = failures == 0 and illegal == 0 and spacerish == 0
    return VerifyResult(passed, total, failures, first, illegal,
                        rtz_failures, sim_checked, notes)


# ---------------------------------------------------------------------------
# product-term equations, DSOP and monotonic-cover checks


@dataclass(frozen=True)
class OutputPair:
    """A complementary pair of sum-of-products equations (rail1, rail0)."""

    name: str
    products1: tuple[frozenset[str], ...]
    products0: tuple[frozenset[str], ...]

    def all_products(self) -> tuple[frozenset[str], ...]:
        return self.products1 + self.products0


@dataclass(frozen=True)
class EquationSet:
    name: str
    variables: tuple[PortGroup, ...]
    outputs: tuple[OutputPair, ...]

    def check_product(self, p: frozenset[str]) -> None:
        for v in self.variables:
            if v.rail1 in p and v.rail0 in p:
                raise ValueError(f"product {sorted(p)} contains both rails of {v.name}")

    def valid_assignments(self) -> list[dict[str, int]]:
        names = [v.name for v in self.variables]
        return [dict(zip(names, bits))
                for bits in itertools.product((0, 1), repeat=len(names))]

    def true_rails(self, assignment: dict[str, int]) -> frozenset[str]:
        rails = set()
        for v in self.variables:
            rails.add(v.rail1 if assignment[v.name] else v.rail0)
        return frozenset(rails)


def _dr(name: str) -> PortGroup:
    return PortGroup(name, f"{name}1", f"{name}0")


def _products(*terms: str) -> tuple[frozenset[str], ...]:
    return tuple(frozenset(t.split()) for t in terms)


SAFA_EQUATIONS = EquationSet(
    "safa",
    variables=(_dr("A"), _dr("B"), _dr("CIN")),
    outputs=(
        OutputPair(
            "SUM",
            _products("A0 B0 CIN1", "A0 B1 CIN0", "A1 B0 CIN0", "A1 B1 CIN1"),
            _products("A0 B0 CIN0", "A0 B1 CIN1", "A1 B0 CIN1", "A1 B1 CIN0"),
        ),
        OutputPair(
            "COUT",
            _products("A0 B1 CIN1", "A1 B0 CIN1", "A1 B1 CIN0", "A1 B1 CIN1"),
            _products("A0 B0 CIN0", "A0 B0 CIN1", "A0 B1 CIN0", "A1 B0 CIN0"),
        ),
    ),
)

DAFA_EQUATIONS = EquationSet(
    "dafa",
    variables=(_dr("A1"), _dr("A0"), _dr("B1"), _dr("B0"), _dr("CIN")),
    outputs=(
        OutputPair(
            "SUM1",
            _products(
                "A11 A01 B10 B00 CIN0", "A10 A01 B11 B00 CIN0",
                "A11 A00 B10 B01 CIN0", "A10 A00 B11 B01 CIN0",
                "A11 A00 B11 B01 CIN1", "A11 A01 B11 B00 CIN1",
                "A10 A00 B10 B01 CIN1", "A10 A01 B10 B00 CIN1",
                "A10 A01 B10 B01", "A11 A00 B10 B00",
                "A10 A00 B11 B00", "A11 A01 B11 B01",
            ),
            _products(
                "A11 A01 B10 B00 CIN1", "A10 A01 B11 B00 CIN1",
                "A11 A00 B10 B01 CIN1", "A10 A00 B11 B01 CIN1",
                "A10 A01 B10 B00 CIN0", "A10 A00 B10 B01 CIN0",
                "A11 A01 B11 B00 CIN0", "A11 A00 B11 B01 CIN0",
                "A11 A00 B11 B00", "A11 A01 B10 B01",
                "A10 A01 B11 B01", "A10 A00 B10 B00",
            ),
        ),
        OutputPair(
            "SUM0",
            _products("A01 B00 CIN0", "A00 B01 CIN0", "A00 B00 CIN1", "A01 B01 CIN1"),
            _products("A01 B01 CIN0", "A01 B00 CIN1", "A00 B01 CIN1", "A00 B00 CIN0"),
        ),
        OutputPair(
            "COUT2",
            _products(
                "A10 A00 B11 B01 CIN1", "A11 A00 B10 B01 CIN1",
                "A10 A01 B11 B00 CIN1", "A11 A01 B10 B00 CIN1",
                "A10 A01 B11 B01", "A11 A01 B10 B01", "A11 B11",
            ),
            _products(
                "A11 A01 B10 B00 CIN0", "A10 A01 B11 B00 CIN0",
                "A11 A00 B10 B01 CIN0", "A10 A00 B11 B01 CIN0",
                "A11 A00 B10 B00", "A10 A00 B11 B00", "A10 B10",
            ),
        ),
    ),
)

ALL_EQUATION_SETS = (SAFA_EQUATIONS, DAFA_EQUATIONS)


def structurally_disjoint(p: frozenset[str], q: frozenset[str],
                          variables: tuple[PortGroup, ...]) -> bool:
    """True iff the two products contain opposite rails of some variable."""
    return any(
        (v.rail1 in p and v.rail0 in q) or (v.rail0 in p and v.rail1 in q)
        for v in variables
    )


def semantically_disjoint(p: frozenset[str], q: frozenset[str],
                          eqs: EquationSet) -> bool:
    """True iff no valid (one-hot-per-variable) assignment satisfies both."""
    return not any(
        p <= rails and q <= rails
        for rails in (eqs.true_rails(asg) for asg in eqs.valid_assignments())
    )


@dataclass(frozen=True)
class DsopResult:
    passed: bool
    offending: tuple[str, int, int] | None
    methods_agree: bool


def dsop_check(eqs: EquationSet) -> DsopResult:
    """Every pair of products within each output equation must be disjoint.

    Checked by the structural opposite-rail rule and, independently, by
    enumeration over valid assignments; the two verdicts must agree."""
    offending = None
    agree = True
    for out in eqs.outputs:
        for eq_products in (out.products1, out.products0):
            for prod in eq_products:
                eqs.check_product(prod)
            for (i, p), (j, q) in itertools.combinations(enumerate(eq_products), 2):
                s = structurally_disjoint(p, q, eqs.variables)
                m = semantically_disjoint(p, q, eqs)
                if s != m:
                    agree = False
                if not (s and m) and offending is None:
                    offending = (out.name, i, j)
    return DsopResult(offending is None and agree, offending, agree)


@dataclass(frozen=True)
class MonotonicCoverResult:
    passed: bool
    violations: tuple[tuple[str, dict[str, int], int], ...]


def monotonic_cover_check(eqs: EquationSet) -> MonotonicCoverResult:
    """For each complementary output pair and each valid input assignment,
    exactly one product across the combined product list must hold."""
    violations = []
    for out in eqs.outputs:
        for asg in eqs.valid_assignments():
            rails = eqs.true_rails(asg)
            active = sum(1 for p in out.all_products() if p <= rails)
            if active != 1:
                violations.append((out.name, asg, active))
    return MonotonicCoverResult(not violations, tuple(violations))


def equation_equivalence(n: Netlist, eqs: EquationSet) -> bool:
    """Steady-state netlist outputs equal the equation evaluation over every
    valid input assignment. Netlist input/output group names must match the
    equation variable and output names."""
    assignments = eqs.valid_assignments()
    inputs: dict[str, np.ndarray] = {}
    for v in eqs.variables:
        grp = n.group(v.name)
        bits = np.array([asg[v.name] for asg in assignments], dtype=bool)
        inputs[grp.rail1] = bits
        inputs[grp.rail0] = ~bits
    levels = steady_set_levels(n, inputs)

    for out in eqs.outputs:
        grp = n.group(out.name, output=True)
        for rail_net, products in ((grp.rail1, out.products1), (grp.rail0, out.products0)):
            expect = np.array(
                [any(p <= eqs.true_rails(asg) for p in products) for asg in assignments],
                dtype=bool,
            )
            if not np.array_equal(levels[rail_net], expect):
                return False
    return True
