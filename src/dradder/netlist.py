"""Structural circuit model: typed gates, nets, dual-rail port groups.

A netlist is a feed-forward graph of gates. The C-element (C2) holds state
but is structurally feed-forward in every circuit generated here, so the
gate graph is required to be a DAG.
"""

from __future__ import annotations

import gc
import json
from collections import Counter
from enum import Enum
from functools import cached_property, wraps
from itertools import accumulate, chain, filterfalse, islice, repeat
from operator import itemgetter, lt, sub
from typing import Any, Callable, Iterator, NamedTuple, Sequence


class GateKind(str, Enum):
    BUF = "BUF"
    AND2 = "AND2"
    AND4 = "AND4"
    OR2 = "OR2"
    OR3 = "OR3"
    OR4 = "OR4"
    AO21 = "AO21"   # a*b + c
    AO22 = "AO22"   # a*b + c*d
    AO222 = "AO222"  # a*b + c*d + e*f
    C2 = "C2"       # Muller C-element, 2 inputs


ARITY: dict[GateKind, int] = {
    GateKind.BUF: 1,
    GateKind.AND2: 2,
    GateKind.OR2: 2,
    GateKind.C2: 2,
    GateKind.OR3: 3,
    GateKind.AO21: 3,
    GateKind.AND4: 4,
    GateKind.OR4: 4,
    GateKind.AO22: 4,
    GateKind.AO222: 6,
}


# What each gate kind computes from the levels `L` at its input positions
# `pos` and, for C2, its previous output `held`: the one definition of gate
# semantics. Written with & and | only, so one entry evaluates a 0/1 level
# and an int of lanes, one per bit, alike. Every kind is positive unate in
# its inputs and `held` and outputs 0 from all-zero inputs; the simulator's
# skip of idle evaluations relies on both.
GATE_AT: dict[GateKind, Callable[[Sequence, tuple[int, ...], Any], Any]] = {
    GateKind.BUF: lambda L, p, held: L[p[0]],
    GateKind.AND2: lambda L, p, held: L[p[0]] & L[p[1]],
    GateKind.AND4: lambda L, p, held: L[p[0]] & L[p[1]] & L[p[2]] & L[p[3]],
    GateKind.OR2: lambda L, p, held: L[p[0]] | L[p[1]],
    GateKind.OR3: lambda L, p, held: L[p[0]] | L[p[1]] | L[p[2]],
    GateKind.OR4: lambda L, p, held: L[p[0]] | L[p[1]] | L[p[2]] | L[p[3]],
    GateKind.AO21: lambda L, p, held: (L[p[0]] & L[p[1]]) | L[p[2]],
    GateKind.AO22: lambda L, p, held: (L[p[0]] & L[p[1]]) | (L[p[2]] & L[p[3]]),
    GateKind.AO222: lambda L, p, held: ((L[p[0]] & L[p[1]]) | (L[p[2]] & L[p[3]])
                                        | (L[p[4]] & L[p[5]])),
    # follows its inputs when they agree, else holds
    GateKind.C2: lambda L, p, held: (L[p[0]] & L[p[1]]) | (held & (L[p[0]] | L[p[1]])),
}


class Gate(NamedTuple):
    id: str
    kind: GateKind
    inputs: tuple[str, ...]
    output: str


class PortGroup(NamedTuple):
    """A named dual-rail port (rail1, rail0), or a single wire when rail0 is None."""

    name: str
    rail1: str
    rail0: str | None = None

    @property
    def scalar(self) -> bool:
        return self.rail0 is None

    def rails(self) -> tuple[str, ...]:
        return self[1:2] if self[2] is None else self[1:]


class Structure(NamedTuple):
    """A netlist's gate graph as Netlist._structure derives it once: the
    checked, ordered form that loading, STA and the steady-state evaluator
    read, its gate order kept once, as positions. Net ids: the distinct
    input nets are 0..base-1, gate k's output is base + k (its first driver
    wins, also over an input), and undriven gate inputs, then undriven
    output nets, come last; only a malformed netlist has those."""

    positions: Sequence[int] | None  # topo_gates() order as gate positions; None if cyclic
    report: tuple[str, ...]  # validate()'s findings
    # the first port declared twice, duplicate gate id or wrong input count,
    # else the first net with two drivers or driven input; None if neither
    error: str | None
    ids: dict[str, int]  # every net's id
    base: int  # the first gate output's id: a net's driver position is its id - base
    src: list[int]  # per gate input, its net's id
    off: list[int]  # gate k's inputs are src[off[k]:off[k + 1]]


def _post_order(src: list[int], off: list[int], base: int) -> Sequence[int] | None:
    """Gate positions in depth-first post-order over driver edges, or None
    if the graph has a cycle; `src` holds net ids, gate k's output being
    base + k. A list in which every gate reads only earlier ids, as every
    generated netlist does, is recognised in one C-level pass that builds
    no list per gate and comes back as `range(count)`. Any other list takes
    an iterative walk, so that a chain of any length orders without
    recursion: gates in list order, each gate's drivers first in input
    order, with one frame per gate being visited: its id and an iterator
    over its drivers not yet placed."""
    count = len(off) - 1
    end = base + count
    if all(map(lt, src, chain.from_iterable(
            map(repeat, range(base, end), map(sub, islice(off, 1, None), off))))):
        return range(count)
    placed = bytearray(b"\1") * max(end, max(src) + 1)  # by net id; an undriven net is placed
    placed[base:end] = bytes(count)
    visiting = bytearray(len(placed))
    done = placed.__getitem__
    first = [0] * base + off  # gate k's inputs are src[first[k]:first[k + 1]]
    order: list[int] = []
    for g in filterfalse(done, range(base, end)):
        # the frame being visited: gate g and its unplaced drivers to come
        visiting[g] = 1
        todo = filterfalse(done, src[first[g]:first[g + 1]])
        stack: list[tuple[int, Iterator[int]]] = []  # the frames below it
        while True:
            j = next(todo, None)
            if j is None:
                placed[g] = 1
                order.append(g - base)
                if not stack:
                    break
                g, todo = stack.pop()
            elif visiting[j]:  # unplaced and visiting: j is on the stack
                return None
            else:
                stack.append((g, todo))
                visiting[j] = 1
                g, todo = j, filterfalse(done, src[first[j]:first[j + 1]])
    return range(count) if order == list(range(count)) else order


def _collector_paused(fn: Callable) -> Callable:
    """Run `fn` with CPython's cyclic garbage collector paused, then resume it.

    For the routines that allocate GC-tracked tuples for every gate. No
    netlist holds a reference cycle, so a one-shot netlist is freed by
    reference counting, and the collections its allocations would trigger
    (the older generations walk every live netlist) only cost time. A
    collector the caller has already disabled stays disabled, so nested
    calls cost nothing. The pause is process-wide: dradder is
    single-threaded, and a gc.disable() made by another thread while a
    paused call runs is undone when that call returns."""
    @wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return paused


class Netlist:
    """Immutable-after-construction gate graph with named ports."""

    def __init__(
        self,
        name: str,
        gates: Sequence[Gate],
        inputs: Sequence[PortGroup],
        outputs: Sequence[PortGroup],
        ackin: str | None = None,
        ackout: str | None = None,
    ):
        self.name = name
        self.gates: tuple[Gate, ...] = tuple(gates)
        self.inputs: tuple[PortGroup, ...] = tuple(inputs)
        self.outputs: tuple[PortGroup, ...] = tuple(outputs)
        self.ackin = ackin
        self.ackout = ackout
        # the first group of a name wins
        self._in_groups = {grp.name: grp for grp in reversed(self.inputs)}
        self._out_groups = {grp.name: grp for grp in reversed(self.outputs)}

    # -- structure queries ------------------------------------------------

    @property
    def input_nets(self) -> tuple[str, ...]:
        nets = [r for grp in self.inputs for r in grp.rails()]
        if self.ackin is not None:
            nets.append(self.ackin)
        return tuple(nets)

    @property
    def output_nets(self) -> tuple[str, ...]:
        nets = [r for grp in self.outputs for r in grp.rails()]
        if self.ackout is not None:
            nets.append(self.ackout)
        return tuple(nets)

    def group(self, name: str, *, output: bool = False) -> PortGroup:
        grp = (self._out_groups if output else self._in_groups).get(name)
        if grp is None:
            raise KeyError(f"no {'output' if output else 'input'} group {name!r} in {self.name}")
        return grp

    # -- checks ------------------------------------------------------------

    def gate_census(self) -> dict[GateKind, int]:
        census = {kind: 0 for kind in GateKind}
        for g in self.gates:
            census[g.kind] += 1
        return census

    def validate(self) -> list[str]:
        """Structural validation report; empty list means the netlist is well formed."""
        return list(self._structure.report)

    @cached_property
    @_collector_paused
    def _structure(self) -> Structure:
        """Everything known about the gate graph's shape, derived once in one
        pass over gate positions: every net's id, each gate input's net id,
        the validate() report, the one error that stops loading and ordering,
        and the topological order as gate positions (`_post_order`), with
        the gate fields read by C-level maps."""
        gates = self.gates
        count = len(gates)
        ins = list(map(itemgetter(2), gates))
        outs = list(map(itemgetter(3), gates))
        inputs, outputs = self.input_nets, self.output_nets
        ids = {net: k for k, net in enumerate(dict.fromkeys(inputs))}
        base = len(ids)
        end = base + count
        ids.update(zip(outs, range(base, end)))
        report: list[str] = []
        # a port declared twice would be driven, or read, through one copy only
        if len(self._in_groups) < len(self.inputs) or base < len(inputs):
            report += [f"input group {name!r} is declared twice"
                       for name, n in Counter(grp.name for grp in self.inputs).items() if n > 1]
            report += [f"net {net!r} is named twice among the input rails and ackin"
                       for net, n in Counter(inputs).items() if n > 1]
        if self.ackout is not None:
            if self.ackout in outputs[:-1]:  # the rails before it
                report.append(f"ackout {self.ackout!r} is also an output rail")
            if self.ackout in inputs:
                report.append(f"ackout {self.ackout!r} is also an input net")
        arity = list(map(len, ins))
        if (len(set(map(itemgetter(0), gates))) < count
                or arity != list(map(ARITY.__getitem__, map(itemgetter(1), gates)))):
            seen: set[str] = set()
            for g in gates:
                if g.id in seen:
                    report.append(f"duplicate gate id {g.id!r}")
                seen.add(g.id)
                if len(g.inputs) != ARITY[g.kind]:
                    report.append(f"gate {g.id!r}: {g.kind.value} takes {ARITY[g.kind]} "
                                  f"inputs, got {len(g.inputs)}")

        if len(ids) < end:  # a net with two drivers, or a driven input
            # the first driver wins, also over an input
            ids.update(zip(reversed(outs), range(end - 1, base - 1, -1)))
            driven_primary = {net for net in islice(ids, base) if ids[net] >= base}
            extra: dict[str, list[int]] = {}  # every driver, only of nets with two or more
            for k, net in enumerate(outs):
                if (first := ids[net] - base) != k:
                    extra.setdefault(net, [first]).append(k)
            for net in sorted(extra.keys() | driven_primary, key=ids.__getitem__):
                who = [gates[k].id for k in extra.get(net, (ids[net] - base,))]
                if net in extra:
                    report.append(f"net {net!r} has multiple drivers: {who}")
                if net in driven_primary:
                    report.append(f"net {net!r} is both a primary input and driven by {who}")
        error = report[0] if report else None

        src = list(map(ids.get, chain.from_iterable(ins)))
        if None in src:  # a net that is neither driven nor an input
            report += [f"gate {g.id!r} input net {net!r} has no driver"
                       for g in gates for net in g.inputs if net not in ids]
        report += [f"port group {grp.name!r} references undriven net {net!r}"
                   for grp in self.outputs for net in grp.rails() if net not in ids]
        nets = chain(chain.from_iterable(ins) if None in src else (), outputs)
        if undriven := dict.fromkeys(net for net in nets if net not in ids):
            ids.update(zip(undriven, range(end, end + len(undriven))))
            src = list(map(ids.__getitem__, chain.from_iterable(ins)))
        out_nets = set(outputs)
        report += [f"net {net!r} dangles: no fanout and not a primary output"
                   for k in filterfalse(set(src).__contains__, range(base, end))
                   if ids[net := outs[k - base]] == k and net not in out_nets]

        off = list(accumulate(arity, initial=0))
        positions = _post_order(src, off, base)
        if positions is None:
            report.append("gate graph contains a cycle")
        return Structure(positions, tuple(report), error, ids, base, src, off)

    def topo_gates(self) -> tuple[Gate, ...]:
        """Gates in topological order: the check that loading, STA and the
        steady-state evaluator make before they walk `_structure`'s
        positions. When every gate follows its drivers, as in every generated
        netlist, this is the gate list itself, recognised in one pass; any
        other list gets `_post_order`'s depth-first post-order, built as a new
        tuple on each call. Raises ValueError with `Structure.error` (an input
        group, input net or ackout declared twice, an ackout that is an input
        net, a duplicate gate id or a wrong input count, whichever comes
        first, then a net with two drivers or a driven input), then on a
        cycle."""
        s = self._structure
        if s.error:
            raise ValueError(s.error)
        if s.positions is None:
            raise ValueError(f"netlist {self.name!r} contains a cycle")
        gates = self.gates
        return gates if type(s.positions) is range else tuple(map(gates.__getitem__, s.positions))

    def _settle(self, rails: dict, ones: int, held: Sequence | None = None,
                drop: bool = False) -> list:
        """Every net's steady level by net id in a phase whose inputs move one
        way: the input nets in `rails` (name: level) driven, the others at
        spacer, ackin at `ones`, the int mask of all lanes, each C2 holding
        its level in `held`, the previous phase's levels, or 0; after
        topo_gates(). With `drop`, each net that is not a port becomes None
        right after its last reader (`_dies_after`), so a level lives only
        while a later gate reads it."""
        s = self._structure
        ids, base, src, off, gates = s.ids, s.base, s.src, s.off, self.gates
        levels = [0] * len(ids)
        for net, level in rails.items():
            levels[ids[net]] = level
        if self.ackin is not None:
            levels[ids[self.ackin]] = ones
        dead = self._dies_after if drop else repeat(())
        for k, nets in zip(s.positions, dead):
            levels[base + k] = GATE_AT[gates[k].kind](
                levels, src[off[k]:off[k + 1]], 0 if held is None else held[base + k])
            for j in nets:
                levels[j] = None
        return levels

    @cached_property
    def _dies_after(self) -> tuple[tuple[int, ...], ...]:
        """The last-reader table of `_settle`'s walk: per walk step, the ids
        of the nets no later step reads (a gate output nothing reads dies at
        its own step), then one more entry, the nets the walk keeps: the
        ports (input rails, ackin, output rails, ackout). Built on first
        use from `_structure`'s src, off and positions in walk order, so
        validate() and STA never pay for it; after topo_gates()."""
        s = self._structure
        src, off, base, steps = s.src, s.off, s.base, len(s.positions)
        last = [steps] * len(s.ids)  # by net id: the step after which it dies
        for t, k in enumerate(s.positions):
            last[base + k] = t
            for j in src[off[k]:off[k + 1]]:
                last[j] = t
        for net in chain(self.input_nets, self.output_nets):
            last[s.ids[net]] = steps
        dies: list[list[int]] = [[] for _ in range(steps + 1)]
        for j, t in enumerate(last):
            dies[t].append(j)
        return tuple(map(tuple, dies))

    @cached_property
    def _fanout(self) -> tuple[tuple[tuple, ...], tuple[int | None, ...]]:
        """The event simulator's table, two tuples by net id: the gates that
        read the net, each as (its GATE_AT entry, its input ids by position,
        its output id, its kind), and the net's dual-rail partner, the other
        rail of its port pair, or None. Built on first use from
        `_structure`'s src and off in gate-list order, so validate(), STA
        and the steady walk never pay for it, and a cyclic netlist built
        in-process still gets one. Raises ValueError on `Structure.error`,
        topo_gates()'s message."""
        s = self._structure
        if s.error:
            raise ValueError(s.error)
        ids, base, src, off = s.ids, s.base, s.src, s.off
        fanout: list[list[tuple]] = [[] for _ in ids]
        for k, kind in enumerate(map(itemgetter(1), self.gates)):
            pos = tuple(src[off[k]:off[k + 1]])
            entry = (GATE_AT[kind], pos, base + k, kind)
            for j in pos:
                fanout[j].append(entry)
        partner: list[int | None] = [None] * len(ids)
        for grp in self.inputs + self.outputs:
            if grp.rail0 is not None:
                partner[ids[grp.rail1]], partner[ids[grp.rail0]] = ids[grp.rail0], ids[grp.rail1]
        return tuple(map(tuple, fanout)), tuple(partner)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        def grp(g: PortGroup) -> dict:
            return {"group": g.name, "rail1": g.rail1, "rail0": g.rail0}

        doc: dict = {
            "name": self.name,
            "inputs": [grp(g) for g in self.inputs],
            "outputs": [grp(g) for g in self.outputs],
            "gates": [
                {"id": g.id, "kind": g.kind.value, "in": list(g.inputs), "out": g.output}
                for g in self.gates
            ],
        }
        if self.ackin is not None or self.ackout is not None:
            doc["acks"] = {"ackin": self.ackin, "ackout": self.ackout}
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "Netlist":
        """The netlist `doc` describes. Raises ValueError on a name that is
        not a string or gate inputs that are not a list, and otherwise where
        topo_gates() does, with its message: a netlist loads only if it can
        be ordered."""
        def text(value, field: str, *, optional: bool = False) -> str | None:
            if isinstance(value, str) or (optional and value is None):
                return value
            raise ValueError(f"{field} must be a string, got {value!r}")

        def grp(d: dict) -> PortGroup:
            return PortGroup(text(d["group"], "port group"), text(d["rail1"], "rail1"),
                             text(d.get("rail0"), "rail0", optional=True))

        def gate(d: dict) -> Gate:
            if not isinstance(d["in"], list):
                raise ValueError(f"gate inputs must be a list, got {d['in']!r}")
            return Gate(text(d["id"], "gate id"), GateKind(d["kind"]),
                        tuple(text(x, "gate input") for x in d["in"]), text(d["out"], "gate output"))

        acks = doc.get("acks") or {}
        n = cls(
            name=text(doc["name"], "netlist name"),
            gates=[gate(d) for d in doc["gates"]],
            inputs=[grp(d) for d in doc["inputs"]],
            outputs=[grp(d) for d in doc["outputs"]],
            ackin=text(acks.get("ackin"), "ackin", optional=True),
            ackout=text(acks.get("ackout"), "ackout", optional=True),
        )
        n.topo_gates()
        return n

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "Netlist":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def __repr__(self) -> str:
        return f"Netlist({self.name!r}, gates={len(self.gates)}, in={len(self.inputs)}, out={len(self.outputs)})"
