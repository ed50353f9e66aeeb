"""Oracles and property checkers for the generated adders.

Adder sweeps work on bit-planes: one Python int per operand bit (the
carry-in, then A and B least significant first), lane j at bit j, one lane
per vector, so they are exact at any width. `GATE_AT`, written with & and |
only, evaluates the ints unchanged, and `int.bit_count()` counts lanes.
Exhaustive mode takes plane k from bit k of the vector index; random mode
draws plane k from its own seeded stream, `random.Random(f"{seed}/{k}")`,
so the vectors do not depend on how the sweep is cut into chunks. A sweep
runs in chunks of lanes sized so that one chunk's net levels fit a fixed
32 MiB budget; it keeps only the decoded counts and the first failure, so
its memory does not grow with the number of vectors. Within a chunk, a net
that is not a port is dropped after its last reader in the walk, so the
chunk's peak holds the ports and the live nets, not the whole netlist. Two
evaluation routes check every sweep:

* the steady-state evaluator, used for every lane, valid because every
  generated circuit is monotone per handshake phase (a C-element driven
  from the all-zero state settles to the AND of its inputs); its output
  planes are compared with a plane-wise ripple of the integer oracle;
* the event-driven simulator, replayed on a sample of every sweep (seeded
  vector indices in exhaustive mode, the first vectors drawn in random
  mode) in one run, a vector per lane; on every lane, the level of every
  net at the end of the set phase must equal its steady-state level, which
  one more walk settles for the whole sample in the same lanes, no monitor
  may fire and the transaction must return to zero. The lowest lane that
  fails is reported, as a replay of one vector at a time would find it
  first.

The evaluator, `Netlist._settle`, walks the structure pass's gate positions
and net ids, as STA does, with every input net it is not given at spacer and
ackin high; the simulator runs on the same net ids, through the fanout table
`Netlist._fanout` built from the same pass's `src` and `off`. Both take gate
semantics from the one table `netlist.GATE_AT`. Each kind outputs 0 from
all-zero inputs, whatever a C-element holds, so the steady state after the
spacer is all-zero for any acyclic netlist: return to zero is observed only
on the event-simulated sample. The cross-check also guards how the fanout
entries are built, event scheduling and delays, the C-element holding its
value across phases, and the simulator's illegal-state and monotonicity
monitors.

The ten published sum/carry equations are embedded as product-term data
and checked for disjointness (DSOP) and monotonic cover, both structurally
and on int lanes over every valid assignment.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass, field

from .generators import _adder_inputs
from .netlist import Netlist, PortGroup
from .simulator import DEFAULT_SEED, DelayTable, simulate_transaction


# ---------------------------------------------------------------------------
# integer oracle


def oracle_add(a: int, b: int, cin: int, width: int) -> tuple[int, int]:
    """Ground-truth addition: ((a + b + cin) mod 2**width, carry-out). Each
    argument must be an int (a bool is not), or it is a `ValueError` naming it."""
    for name, value in (("width", width), ("a", a), ("b", b), ("carry-in", cin)):
        if type(value) is not int:
            raise ValueError(f"{name} must be an int, got {value!r}")
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    if not (0 <= a < 2**width and 0 <= b < 2**width):
        raise ValueError(f"operands out of range for width {width}: {a}, {b}")
    if cin not in (0, 1):
        raise ValueError(f"carry-in must be 0 or 1, got {cin}")
    total = a + b + cin
    return total % 2**width, total >> width


def oracle_planes(a: list, b: list, cin) -> list:
    """Bulk form of `oracle_add` over bit-planes (int lanes, lane j at bit
    j), least significant first: the sum planes followed by the carry-out
    plane, at any width."""
    out, c = [], cin
    for x, y in zip(a, b):
        half = x ^ y
        out.append(half ^ c)
        c = (x & y) | (c & half)
    return out + [c]


# ---------------------------------------------------------------------------
# vectorized steady-state evaluation


def steady_set_levels(n: Netlist, inputs: dict[str, int], lanes: int) -> dict[str, int]:
    """Steady levels after a set phase from all-zero on `lanes` int lanes,
    lane j at bit j: each input net's level is an int in [0, 2**lanes), and
    so is each net's result, keyed by name in net-id order. `lanes` that is
    not an int >= 1, an unknown net or a level out of range is a
    `ValueError`. C2 settles to AND under monotone rising inputs. One
    `Netlist._settle` walk: every other input net at spacer, ackin, if any,
    high."""
    if not (type(lanes) is int and lanes >= 1):
        raise ValueError(f"lanes must be an int >= 1, got {lanes!r}")
    n.topo_gates()  # a malformed, two-driver or cyclic netlist raises here
    ids, top = n._structure.ids, 1 << lanes
    for net, level in inputs.items():
        if net not in ids:
            raise ValueError(f"input net {net!r} is not in {n.name!r}")
        if not (isinstance(level, int) and 0 <= level < top):
            raise ValueError(f"input net {net!r} holds no int in [0, 2**{lanes})")
    return dict(zip(ids, n._settle(inputs, top - 1)))


def steady_reset_levels(n: Netlist, set_levels: dict[str, int]) -> dict[str, int]:
    """Steady levels after the return-to-zero phase following `set_levels`:
    all inputs at spacer, C2 holding its set-phase value until both inputs
    are back at zero. The result is all-zero for any acyclic netlist,
    because every gate kind outputs 0 from all-zero inputs: nothing is evaluated."""
    return dict.fromkeys(n._structure.ids, 0)


# ---------------------------------------------------------------------------
# adder sweeps on int lanes

# Byte budget for one chunk's net levels: a sweep evaluates as many lanes at
# once as fit it at one bit per lane and net, in whole multiples of 64 lanes,
# so its memory does not grow with the lane count.
_CHUNK_BYTES = 32 << 20
# vectors of each sweep replayed on the event-driven simulator, one lane each
_SIM_SAMPLE = 32


def _index_plane(k: int, first: int, lanes: int) -> int:
    """Bit k of the lane index over `lanes` lanes from `first`, both
    multiples of 8, lane `first` at bit 0: a repeated byte, 0xAA, 0xCC or
    0xF0, for k < 3, else runs of 2**(k - 3) zero and all-ones bytes cut
    at the first lane's byte."""
    size = lanes >> 3
    if k < 3:
        return int.from_bytes((b"\xaa", b"\xcc", b"\xf0")[k] * size, "little")
    run = 1 << (k - 3)
    at = (first >> 3) % (2 * run)
    runs = (b"\0" * run + b"\xff" * run) * -(-(at + size) // (2 * run))
    return int.from_bytes(runs[at:at + size], "little")


def _lane_int(planes, lane: int) -> int:
    """The unsigned integer whose bit k is plane k at `lane`."""
    return sum((p >> lane & 1) << k for k, p in enumerate(planes))


def _vector(planes: list[int], lane: int, width: int) -> dict[str, int]:
    """The vector on `lane` of the input planes CIN, A0.., B0.. in that order."""
    return {"a": _lane_int(planes[1:width + 1], lane),
            "b": _lane_int(planes[width + 1:], lane), "cin": planes[0] >> lane & 1}


def _drive(rails: list[tuple[str, ...]], planes: list[int], every: int) -> dict[str, int]:
    """Input rail levels on int lanes: plane k on rail1 of `rails[k]`, its
    complement within `every` on rail0."""
    levels = {}
    for (rail1, rail0), bit in zip(rails, planes):
        levels[rail1], levels[rail0] = bit, every ^ bit
    return levels


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

    A `width` or, in random mode, a `count` that is not an int >= 1 (a bool
    is not), a `seed` that is not an int, or a netlist without the ports
    `gen_hybrid_rca` gives a `width`-bit adder (bare or staged; extra output
    groups allowed) is a `ValueError`, raised before any work. Exhaustive
    mode sweeps all 2**(2*width+1) transactions (allowed up to width 8);
    random mode draws `count` seeded vectors at any width, plane k from
    `random.Random(f"{seed}/{k}")`. The full sweep runs through the
    steady-state evaluator (set phase decoded and compared with the oracle),
    on int lanes and in chunks of bounded memory. A sample of `_SIM_SAMPLE`
    vectors is additionally replayed on the event-driven simulator under
    unit delays, in one run of a lane per vector, whose set-phase level of
    every net must equal the steady-state one: in exhaustive mode a seeded
    draw of vector indices, in random mode the first vectors drawn. The
    first counterexample is the lowest failing lane. `sim_checked` counts
    the sampled vectors below the lowest failing sample lane (all of them
    if none fails), and `rtz_failures` is 1 if that lane did not return to
    zero: the steady-state reset cannot fail (module doc).
    """
    if not (type(width) is int and width >= 1):
        raise ValueError(f"width must be an int >= 1, got {width!r}")
    if type(seed) is not int:  # None would seed the cross-check sample from the OS
        raise ValueError(f"seed must be an int, got {seed!r}")
    *ab, cin = _adder_inputs(width)
    ports = [cin, *ab]  # input ports in plane order: CIN is bit 0 of the exhaustive index
    if mode == "exhaustive":
        if width > 8:
            raise ValueError("exhaustive mode is limited to width <= 8")
        total = 2 ** len(ports)
        # sampled vector j on lane j: the bits of its index
        sample = sorted(random.Random(seed).sample(range(total), min(_SIM_SAMPLE, total)))
        picked = [sum((i >> k & 1) << j for j, i in enumerate(sample)) for k in range(len(ports))]

        def chunk_planes(lo: int, lanes: int) -> list[int]:
            return [_index_plane(k, lo, lanes) for k in range(len(ports))]
    elif mode == "random":
        if not (type(count) is int and count >= 1):
            raise ValueError(f"random mode needs count >= 1, got {count!r}")
        total, picked = count, None
        # one stream per plane, so the vectors do not depend on the chunk size
        draws = [random.Random(f"{seed}/{k}").getrandbits for k in range(len(ports))]

        def chunk_planes(lo: int, lanes: int) -> list[int]:
            return [draw(lanes) for draw in draws]
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
    outs = [(s.ids[g.rail1], s.ids[g.rail0]) for g in outs]  # each pair's rail ids from here on
    step = 64 * max(1, _CHUNK_BYTES // (8 * len(s.ids)))
    m = min(_SIM_SAMPLE, total)

    illegal = spacerish = failures = 0
    first = None
    for lo in range(0, total, step):
        lanes = min(step, total - lo)
        every = (1 << lanes) - 1
        planes = chunk_planes(lo, lanes)
        if picked is None:  # the first vectors drawn are already a uniform sample
            picked = [p & ((1 << m) - 1) for p in planes]
        levels = n._settle(_drive(rails, planes, every), every, drop=True)
        expected = oracle_planes(planes[1:width + 1], planes[width + 1:], planes[0])
        got, bad = [], 0
        for (i1, i0), e in zip(outs, expected):
            r1, r0 = levels[i1], levels[i0]
            illegal += (r1 & r0).bit_count()
            spacerish += (every ^ (r1 | r0)).bit_count()
            got.append(r1)
            bad |= r1 ^ e
        failures += bad.bit_count()
        if bad and first is None:
            i = (bad & -bad).bit_length() - 1
            first = {**_vector(planes, i, width), "got_sum": _lane_int(got[:-1], i),
                     "got_cout": got[-1] >> i & 1, "expected_sum": _lane_int(expected[:-1], i),
                     "expected_cout": expected[-1] >> i & 1}
    del levels, got, expected  # the cross-check's peak holds no chunk's levels

    # event-driven cross-check of the sampled vectors, net by net: one
    # steady walk and one event-simulator run settle them all, sampled
    # vector j on lane j. The reported vector is the lowest lane on which a
    # net's level differs or a monitor fired, and on it the first differing
    # net in walk order is named: the input nets as declared, then the gate
    # outputs in topo_gates() order.
    every = (1 << m) - 1
    steady = n._settle(_drive(rails, picked, every), every)
    inputs = [(name, p, 0) for name, p in zip(ports, picked)]
    log = simulate_transaction(n, DelayTable.unit(), inputs, lanes=m)
    differ = list(map(operator.xor, log.set_net_levels, steady))
    bad = functools.reduce(operator.or_, differ, log.illegal | log.nonmonotone | log.unreturned)
    sim_checked, rtz_failures, sim_first = m, 0, None
    if bad:
        j = (bad & -bad).bit_length() - 1
        walk = itertools.chain(range(s.base), (s.base + k for k in s.positions))
        net = next((log.names[i] for i in walk if differ[i] >> j & 1), None)
        sim_checked, rtz_failures = j, log.unreturned >> j & 1
        sim_first = {**_vector(picked, j, width), "via": "event simulator", "net": net}

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
    """Sum-of-products equations over dual-rail `variables`, evaluated on int
    lanes: lane j is the j-th valid assignment in `itertools.product((0, 1),
    repeat=n)` order, so variable k is bit n-1-k of j."""

    name: str
    variables: tuple[PortGroup, ...]
    outputs: tuple[OutputPair, ...]

    def check_product(self, p: frozenset[str]) -> None:
        for v in self.variables:
            if v.rail1 in p and v.rail0 in p:
                raise ValueError(f"product {sorted(p)} contains both rails of {v.name}")

    @functools.cached_property
    def planes(self) -> dict[str, int]:
        """Each rail's lanes: rail1 carries its variable's bit, rail0 the complement."""
        n = len(self.variables)
        bits = [sum(1 << j for j in range(1 << n) if j >> (n - 1 - k) & 1) for k in range(n)]
        return _drive([(v.rail1, v.rail0) for v in self.variables], bits, (1 << (1 << n)) - 1)

    def holds(self, p: frozenset[str]) -> int:
        """The AND of `p`'s rail planes: a rail not in the set holds on no
        lane, an empty product on every lane."""
        every = (1 << (1 << len(self.variables))) - 1
        return functools.reduce(operator.and_, (self.planes.get(r, 0) for r in p), every)


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
    return not eqs.holds(p) & eqs.holds(q)


@dataclass(frozen=True)
class DsopResult:
    passed: bool
    offending: tuple[str, int, int] | None
    methods_agree: bool


def dsop_check(eqs: EquationSet) -> DsopResult:
    """Every pair of products within each output equation must be disjoint.

    Checked by the structural opposite-rail rule and, independently, on
    int lanes over every valid assignment; the two verdicts must agree."""
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
    exactly one product across the combined product list must hold. Each
    violation names the output, the assignment and its count of products."""
    n = len(eqs.variables)
    violations = []
    for out in eqs.outputs:
        masks = [eqs.holds(p) for p in out.all_products()]
        for j in range(1 << n):
            if (active := sum(m >> j & 1 for m in masks)) != 1:
                asg = {v.name: j >> (n - 1 - k) & 1 for k, v in enumerate(eqs.variables)}
                violations.append((out.name, asg, active))
    return MonotonicCoverResult(not violations, tuple(violations))


def equation_equivalence(n: Netlist, eqs: EquationSet) -> bool:
    """Steady-state netlist outputs equal the equation evaluation over every
    valid input assignment, on `EquationSet`'s lanes. Netlist input/output
    group names must match the equation variable and output names, and
    those groups must be rail pairs: a single wire is a `ValueError`."""
    ins = [n.group(v.name) for v in eqs.variables]
    outs = [n.group(out.name, output=True) for out in eqs.outputs]
    for kind, groups in (("input", ins), ("output", outs)):
        if wire := next((grp.name for grp in groups if grp.scalar), None):
            raise ValueError(f"{kind} group {wire!r} is a single wire; "
                             "equation equivalence needs rail pairs")
    inputs: dict[str, int] = {}
    for v, grp in zip(eqs.variables, ins):
        inputs[grp.rail1], inputs[grp.rail0] = eqs.planes[v.rail1], eqs.planes[v.rail0]
    levels = steady_set_levels(n, inputs, 1 << len(eqs.variables))
    for out, grp in zip(eqs.outputs, outs):
        for rail, products in ((grp.rail1, out.products1), (grp.rail0, out.products0)):
            if levels[rail] != functools.reduce(operator.or_, map(eqs.holds, products), 0):
                return False
    return True
