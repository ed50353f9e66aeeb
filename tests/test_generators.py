import hashlib
import json

import pytest

from dradder.generators import (
    AdderSpec,
    gen_completion_detector,
    gen_dafa,
    gen_hybrid_rca,
    gen_safa,
    gen_stage,
)
from dradder.netlist import GateKind, Netlist


def _census(n):
    return {k: v for k, v in n.gate_census().items() if v}


def test_adder_spec_requires_consistent_partition():
    AdderSpec(32, 2, True)
    AdderSpec(32, 32, False)
    AdderSpec(4, 0, True)
    with pytest.raises(ValueError):
        AdderSpec(32, 3, True)  # remaining 29 bits not coverable by 2-bit stages
    with pytest.raises(ValueError):
        AdderSpec(32, 33, True)
    with pytest.raises(ValueError):
        AdderSpec(0, 0, True)
    # a width or stage count that is not an int, a bool included
    for width, safa in ((True, 1), (4.0, 2), (1, True), (4, 2.0)):
        with pytest.raises(ValueError, match="must be an int"):
            AdderSpec(width, safa, True)


def test_safa_census():
    n = gen_safa()
    assert _census(n) == {GateKind.AO22: 4, GateKind.C2: 4, GateKind.OR2: 2}
    assert n.validate() == []
    assert [p.name for p in n.inputs] == ["A", "B", "CIN"]
    assert [p.name for p in n.outputs] == ["SUM", "COUT"]


def test_dafa_census_redundant_vs_nonredundant():
    red = _census(gen_dafa(redundant=True))
    non = _census(gen_dafa(redundant=False))
    # the only difference is the carry construction: two AO21 gates
    # versus reusing the two propagate C-elements plus two OR2 gates
    delta = {
        k: red.get(k, 0) - non.get(k, 0)
        for k in set(red) | set(non)
        if red.get(k, 0) != non.get(k, 0)
    }
    assert delta == {GateKind.AO21: 2, GateKind.OR2: -2}
    assert gen_dafa(True).validate() == []
    assert gen_dafa(False).validate() == []


def test_dafa_ports():
    n = gen_dafa()
    assert [p.name for p in n.inputs] == ["A1", "A0", "B1", "B0", "CIN"]
    assert [p.name for p in n.outputs] == ["SUM1", "SUM0", "COUT2"]


def test_hybrid_rca_port_shape():
    n = gen_hybrid_rca(AdderSpec(8, 2, True))
    assert [p.name for p in n.inputs] == (
        [f"A{i}" for i in range(8)] + [f"B{i}" for i in range(8)] + ["CIN"]
    )
    assert [p.name for p in n.outputs] == [f"SUM{i}" for i in range(8)] + ["COUT"]
    assert n.validate() == []
    assert all(not p.scalar for p in n.inputs + n.outputs)


def test_hybrid_rca_census_composes_from_cells():
    # s SAFA cells plus (width - s) / 2 DAFA cells, no extra glue
    for width, s, red in [(8, 2, True), (8, 0, False), (6, 6, True), (12, 4, False)]:
        n = gen_hybrid_rca(AdderSpec(width, s, red))
        expect = {}
        cells = [gen_safa()] * s + [gen_dafa(red)] * ((width - s) // 2)
        for cell in cells:
            for k, v in _census(cell).items():
                expect[k] = expect.get(k, 0) + v
        assert _census(n) == expect
        assert n.validate() == []


def test_completion_detector_structure():
    n = gen_completion_detector(4)
    assert _census(n) == {GateKind.OR2: 4, GateKind.C2: 3}
    assert n.validate() == []
    assert len(n.outputs) == 1 and n.outputs[0].scalar


def test_completion_detector_tree_is_balanced():
    # depth of the C-element tree must be ceil(log2(pairs))
    import math

    for pairs in (2, 3, 4, 5, 8, 16, 32):
        n = gen_completion_detector(pairs)
        depth = {}
        for g in n.topo_gates():
            depth[g.output] = 1 + max((depth.get(i, 0) for i in g.inputs), default=0)
        c2_depth = max(
            depth[g.output] for g in n.gates if g.kind is GateKind.C2
        )
        assert c2_depth == 1 + math.ceil(math.log2(pairs))


def test_stage_adds_registers_and_completion_detector():
    fb = gen_hybrid_rca(AdderSpec(4, 2, True))
    stage = gen_stage(fb)
    assert stage.validate() == []
    regs = [g for g in stage.gates if g.id.startswith("reg/")]
    assert regs and all(g.kind is GateKind.C2 for g in regs)
    assert stage.ackin == "ackin"
    assert stage.ackout is not None
    # completion detector spans the function-block outputs
    cd_or = [g for g in stage.gates if g.id.startswith("cd/")]
    assert cd_or


def test_stage_register_count_matches_input_rails():
    fb = gen_hybrid_rca(AdderSpec(4, 2, True))
    stage = gen_stage(fb)
    rails = sum(1 if p.scalar else 2 for p in fb.inputs)
    regs = [g for g in stage.gates if g.id.startswith("reg/")]
    assert len(regs) == rails


def test_stage_rejects_scalar_data_ports():
    cd = gen_completion_detector(2)
    with pytest.raises(ValueError):
        gen_stage(cd)


def test_stage_rejects_a_block_that_is_already_a_stage():
    # wrapped twice, the inner completion detector's gate ids would repeat
    for block in (gen_safa(), gen_hybrid_rca(AdderSpec(4, 2, True))):
        stage = gen_stage(block)
        with pytest.raises(ValueError, match=f"{stage.name!r} already has handshake ports"):
            gen_stage(stage)
    for acks in ({"ackin": "ackin"}, {"ackout": "cg1"}):
        block = gen_safa()
        half = Netlist(block.name, block.gates, block.inputs, block.outputs, **acks)
        with pytest.raises(ValueError, match="already has handshake ports"):
            gen_stage(half)


@pytest.mark.parametrize("block", [
    gen_safa(), gen_dafa(True), gen_dafa(False),
    # every legal split at widths 1-8: `dradder build` writes what the
    # generators return without checking it
    *(gen_hybrid_rca(AdderSpec(width, safa, redundant)) for width in range(1, 9)
      for safa in range(width % 2, width + 1, 2) for redundant in (True, False)),
    gen_hybrid_rca(AdderSpec(16, 16, True)),
    *map(gen_completion_detector, (1, 3, 8)),
], ids=lambda n: n.name)
def test_generated_netlists_and_their_stages_declare_each_port_once(block):
    # no finding at all, port findings included; a completion detector's
    # scalar output cannot be wrapped in a stage
    assert block.validate() == []
    if not any(grp.scalar for grp in block.outputs):
        assert gen_stage(block).validate() == []


def _pinned_netlists():
    """Every generator output the pin below covers, in a fixed order."""
    for width in range(1, 11):
        for safa in range(width % 2, width + 1, 2):
            for redundant in (True, False):
                rca = gen_hybrid_rca(AdderSpec(width, safa, redundant))
                yield rca
                yield gen_stage(rca)
    yield gen_safa()
    yield gen_dafa(True)
    yield gen_dafa(False)
    yield from map(gen_completion_detector, range(1, 10))


# sha256 over the JSON form of each netlist: a refactor of the generators
# must not move a gate id, kind, input or position
PINNED_DIGEST = "c851c752172a771c8124bc3d0995be21eea6b58535b8274ddf6a88e95ae274be"


def test_generator_output_is_pinned():
    digest = hashlib.sha256()
    for n in _pinned_netlists():
        digest.update(json.dumps(n.to_dict()).encode())
    assert digest.hexdigest() == PINNED_DIGEST
