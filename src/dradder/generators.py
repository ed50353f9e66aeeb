"""Circuit generators: early-output SAFA, DAFA, hybrid ripple-carry adder,
completion detector, and the registered handshake stage wrapper.

Naming convention: every gate's output net carries the gate's id, and gate
ids are prefixed per adder stage ("safa3/", "dafa0/"), per register
("reg/<net>"), or per completion detector node ("cd/").
"""

from __future__ import annotations

from dataclasses import dataclass

from .netlist import Gate, GateKind, Netlist, PortGroup, _collector_paused

K = GateKind


@dataclass(frozen=True)
class AdderSpec:
    """Hybrid ripple-carry adder configuration: SAFAs cover the low
    `safa_stages` bits, DAFAs cover the remaining bits two at a time."""

    width: int
    safa_stages: int
    redundant_carry: bool = True

    def __post_init__(self):
        if type(self.width) is not int:  # a bool is not a width
            raise ValueError(f"width must be an int >= 1, got {self.width!r}")
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        if type(self.safa_stages) is not int:
            raise ValueError(f"safa_stages must be an int in [0, width], got {self.safa_stages!r}")
        if not 0 <= self.safa_stages <= self.width:
            raise ValueError(f"safa_stages must be in [0, width], got {self.safa_stages}")
        if type(self.redundant_carry) is not bool:  # "no" or 0 would pick a variant
            raise ValueError(f"redundant_carry must be a bool, got {self.redundant_carry!r}")
        if (self.width - self.safa_stages) % 2:
            raise ValueError(
                f"width {self.width} minus {self.safa_stages} SAFA bits leaves an odd "
                "number of bits; DAFAs cover bits in pairs"
            )

    @property
    def dafa_stages(self) -> int:
        return (self.width - self.safa_stages) // 2


class _Builder:
    def __init__(self):
        self.gates: list[Gate] = []

    def add(self, gid: str, kind: GateKind, ins: tuple[str, ...]) -> str:
        # tuple.__new__ skips the NamedTuple's Python-level __new__; same value
        self.gates.append(tuple.__new__(Gate, (gid, kind, ins, gid)))
        return gid


def _adder_inputs(width: int) -> list[str]:
    """The hybrid adder's input group names in declaration order: A0..A{w-1},
    B0..B{w-1}, CIN. Group G has rails g_1 and g_0, g the lower-cased name."""
    return [f"{ab}{i}" for ab in "AB" for i in range(width)] + ["CIN"]


def _emit_sum(b: _Builder, c: str, s: str, eqv, dif, cin1, cin0):
    """Sum of one bit pair from its equivalence and difference signals and
    the carry-in: C2s {c}1..{c}4 into OR2s {s}1 and {s}0; returns (s1, s0)."""
    sum1 = b.add(f"{s}1", K.OR2,
                 (b.add(f"{c}1", K.C2, (dif, cin0)), b.add(f"{c}2", K.C2, (eqv, cin1))))
    sum0 = b.add(f"{s}0", K.OR2,
                 (b.add(f"{c}3", K.C2, (dif, cin1)), b.add(f"{c}4", K.C2, (eqv, cin0))))
    return sum1, sum0


def _emit_safa(b: _Builder, p: str, a1, a0, b1, b0, cin1, cin0):
    """Single-bit early-output full adder; returns (sum1, sum0, cout1, cout0).

    cg1 is the operand-equivalence signal (A == B), cg2 the difference
    signal (A != B); the carry gates and the sum network reuse those terms.
    """
    cg1 = b.add(f"{p}cg1", K.AO22, (a1, b1, a0, b0))
    cg2 = b.add(f"{p}cg2", K.AO22, (a1, b0, a0, b1))
    cout1 = b.add(f"{p}cg3", K.AO22, (a1, b1, cg2, cin1))
    cout0 = b.add(f"{p}cg4", K.AO22, (a0, b0, cg2, cin0))
    return *_emit_sum(b, f"{p}sc", f"{p}sum", cg1, cg2, cin1, cin0), cout1, cout0


def _emit_dafa(b: _Builder, p: str, a11, a10, a01, a00, b11, b10, b01, b00,
               cin1, cin0, redundant: bool):
    """Dual-bit early-output full adder; returns
    (sum11, sum10, sum01, sum00, cout1, cout0).

    The four products where the operand pair sums to three are shared as a
    single carry-propagate signal feeding both carry rails and both
    high-sum rails. The non-redundant carry variant reuses the propagate
    C-elements already present on the sum side, so swapping variants only
    exchanges two AO21 gates for two OR2 gates. The low bit pair sums
    through `_emit_sum`, the SAFA's sum network.

    Each AND4 decodes one operand value pair: `term(gid, x, y)` ANDs A's
    rails for the 2-bit value x, `av[x]` (the high bit's rail first), with
    B's for y, `bv[y]`. Each OR group lists the (A, B) pairs of the sums its
    comment states; `y0` repeats `y1`'s pairs, and `z0` and `z1` repeat two
    pairs each of `gen1` and `gen0`.
    """
    av = ((a10, a00), (a10, a01), (a11, a00), (a11, a01))
    bv = ((b10, b00), (b10, b01), (b11, b00), (b11, b01))

    def term(gid, x, y):
        return b.add(f"{p}{gid}", K.AND4, av[x] + bv[y])

    # carry-propagate: A + B == 3
    prop = b.add(f"{p}prop", K.OR4, (term("pp0", 0, 3), term("pp1", 2, 1),
                                      term("pp2", 1, 2), term("pp3", 3, 0)))
    # carry-generate: A + B >= 4
    gen1 = b.add(f"{p}gen1", K.OR3, (term("g1p0", 1, 3), term("g1p1", 3, 1),
                                      b.add(f"{p}g1p2", K.AND2, (a11, b11))))
    # carry-kill: A + B <= 2
    gen0 = b.add(f"{p}gen0", K.OR3, (term("g0p0", 2, 0), term("g0p1", 0, 2),
                                      b.add(f"{p}g0p2", K.AND2, (a10, b10))))

    cp1 = b.add(f"{p}cp1", K.C2, (prop, cin1))
    cp0 = b.add(f"{p}cp0", K.C2, (prop, cin0))

    # high sum rail 1: A + B in {2, 6} always, {1, 5} with carry, {3} without
    y1 = b.add(f"{p}y1", K.OR4, (term("y1p0", 2, 3), term("y1p1", 3, 2),
                                  term("y1p2", 0, 1), term("y1p3", 1, 0)))
    z1 = b.add(f"{p}z1", K.OR4, (term("z1p0", 1, 1), term("z1p1", 2, 0),
                                  term("z1p2", 0, 2), term("z1p3", 3, 3)))
    sum11 = b.add(f"{p}sum11", K.OR3,
                  (cp0, b.add(f"{p}yc1", K.C2, (y1, cin1)), z1))

    # high sum rail 0: A + B in {0, 4} always, {1, 5} without carry, {3} with
    y0 = b.add(f"{p}y0", K.OR4, (term("y0p0", 1, 0), term("y0p1", 0, 1),
                                  term("y0p2", 3, 2), term("y0p3", 2, 3)))
    z0 = b.add(f"{p}z0", K.OR4, (term("z0p0", 2, 2), term("z0p1", 3, 1),
                                  term("z0p2", 1, 3), term("z0p3", 0, 0)))
    sum10 = b.add(f"{p}sum10", K.OR3,
                  (cp1, b.add(f"{p}yc0", K.C2, (y0, cin0)), z0))

    dif = b.add(f"{p}dif", K.AO22, (a01, b00, a00, b01))
    eqv = b.add(f"{p}eqv", K.AO22, (a01, b01, a00, b00))
    sum01, sum00 = _emit_sum(b, f"{p}lc", f"{p}sum0", eqv, dif, cin1, cin0)

    if redundant:
        cout1 = b.add(f"{p}cout1", K.AO21, (prop, cin1, gen1))
        cout0 = b.add(f"{p}cout0", K.AO21, (prop, cin0, gen0))
    else:
        cout1 = b.add(f"{p}cout1", K.OR2, (cp1, gen1))
        cout0 = b.add(f"{p}cout0", K.OR2, (cp0, gen0))
    return sum11, sum10, sum01, sum00, cout1, cout0


def gen_safa() -> Netlist:
    """Standalone single-bit early-output full adder."""
    b = _Builder()
    s1, s0, c1, c0 = _emit_safa(b, "", "a1", "a0", "b1", "b0", "cin1", "cin0")
    return Netlist(
        "safa",
        b.gates,
        inputs=[PortGroup("A", "a1", "a0"), PortGroup("B", "b1", "b0"),
                PortGroup("CIN", "cin1", "cin0")],
        outputs=[PortGroup("SUM", s1, s0), PortGroup("COUT", c1, c0)],
    )


def gen_dafa(redundant: bool = True) -> Netlist:
    """Standalone dual-bit early-output full adder.

    `redundant` selects the carry variant: AO21 carry gates (redundant
    logic) versus OR2 gates over the shared propagate C-elements.
    """
    if type(redundant) is not bool:
        raise ValueError(f"redundant must be a bool, got {redundant!r}")
    b = _Builder()
    s11, s10, s01, s00, c1, c0 = _emit_dafa(
        b, "", "a11", "a10", "a01", "a00", "b11", "b10", "b01", "b00",
        "cin1", "cin0", redundant)
    return Netlist(
        "dafa_redundant" if redundant else "dafa_nonredundant",
        b.gates,
        inputs=[PortGroup("A1", "a11", "a10"), PortGroup("A0", "a01", "a00"),
                PortGroup("B1", "b11", "b10"), PortGroup("B0", "b01", "b00"),
                PortGroup("CIN", "cin1", "cin0")],
        outputs=[PortGroup("SUM1", s11, s10), PortGroup("SUM0", s01, s00),
                 PortGroup("COUT2", c1, c0)],
    )


@_collector_paused
def gen_hybrid_rca(spec: AdderSpec) -> Netlist:
    """Ripple-carry adder: SAFAs at bits 0..s-1, DAFAs above, carry chained.

    Input groups as `_adder_inputs` lists them; outputs SUM0..SUM{n-1}, COUT.
    The whole-adder carry-in is a live dual-rail port.
    """
    n, s = spec.width, spec.safa_stages
    b = _Builder()
    inputs = [PortGroup(g, f"{g.lower()}_1", f"{g.lower()}_0") for g in _adder_inputs(n)]
    a, bb = inputs[:n], inputs[n:2 * n]

    sums: list[PortGroup] = []
    carry = inputs[-1].rails()
    for i in range(s):
        s1, s0, c1, c0 = _emit_safa(b, f"safa{i}/", *a[i].rails(), *bb[i].rails(), *carry)
        sums.append(PortGroup(f"SUM{i}", s1, s0))
        carry = (c1, c0)
    for j in range(spec.dafa_stages):
        lo, hi = s + 2 * j, s + 2 * j + 1
        s11, s10, s01, s00, c1, c0 = _emit_dafa(
            b, f"dafa{j}/", *a[hi].rails(), *a[lo].rails(), *bb[hi].rails(), *bb[lo].rails(),
            *carry, spec.redundant_carry)
        sums.append(PortGroup(f"SUM{lo}", s01, s00))
        sums.append(PortGroup(f"SUM{hi}", s11, s10))
        carry = (c1, c0)

    kind = "red" if spec.redundant_carry else "nonred"
    return Netlist(
        f"rca{n}_s{s}_{kind}",
        b.gates,
        inputs=inputs,
        outputs=sums + [PortGroup("COUT", *carry)],
    )


def _emit_completion_tree(b: _Builder, prefix: str, groups) -> str:
    """OR2 per rail pair, then a balanced binary C2 tree; returns the root net."""
    level = [
        b.add(f"{prefix}or{i}", K.OR2, (grp.rail1, grp.rail0))
        for i, grp in enumerate(groups)
    ]
    depth = 0
    while len(level) > 1:
        nxt = []
        for k in range(0, len(level) - 1, 2):
            nxt.append(b.add(f"{prefix}c{depth}_{k // 2}", K.C2,
                             (level[k], level[k + 1])))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
        depth += 1
    return level[0]


def gen_completion_detector(pairs: int) -> Netlist:
    """Detector over `pairs` rail pairs: output 1 iff all valid, 0 iff all spacer."""
    if type(pairs) is not int:  # a bool is not a count
        raise ValueError(f"pairs must be an int >= 1, got {pairs!r}")
    if pairs < 1:
        raise ValueError(f"need at least one rail pair, got {pairs}")
    b = _Builder()
    groups = [PortGroup(f"P{i}", f"p{i}_1", f"p{i}_0") for i in range(pairs)]
    root = _emit_completion_tree(b, "cd/", groups)
    return Netlist(f"cd{pairs}", b.gates, inputs=groups,
                   outputs=[PortGroup("DONE", root)])


@_collector_paused
def gen_stage(fb: Netlist) -> Netlist:
    """Wrap a function block into a 4-phase handshake stage.

    Adds one C2 register per input rail, gated by the `ackin` net (the
    environment supplies the already-inverted successor acknowledge; the
    inverter itself is zero-delay environment logic), and a completion
    detector over the dual-rail outputs driving `ackout`. A block that
    already has an `ackin` or `ackout` (a stage) is a `ValueError`.
    """
    if not fb.inputs or not fb.outputs:
        raise ValueError(f"{fb.name!r} has no dual-rail ports to wrap")
    if any(grp.scalar for grp in list(fb.inputs) + list(fb.outputs)):
        raise ValueError(f"{fb.name!r} has scalar port groups; a stage needs rail pairs")
    if fb.ackin is not None or fb.ackout is not None:
        raise ValueError(f"{fb.name!r} already has handshake ports; a stage wraps a bare block")

    b = _Builder()
    ext_inputs = []
    for grp in fb.inputs:
        for rail in grp.rails():
            reg = (f"reg/{rail}", K.C2, (f"{rail}_d", "ackin"), rail)
            b.gates.append(tuple.__new__(Gate, reg))  # as in _Builder.add
        ext_inputs.append(PortGroup(grp.name, f"{grp.rail1}_d", f"{grp.rail0}_d"))
    b.gates.extend(fb.gates)
    ackout = _emit_completion_tree(b, "cd/", fb.outputs)
    return Netlist(
        f"{fb.name}_stage",
        b.gates,
        inputs=ext_inputs,
        outputs=fb.outputs,
        ackin="ackin",
        ackout=ackout,
    )
