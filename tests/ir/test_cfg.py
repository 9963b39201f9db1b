"""Unit tests for CFG construction."""

import pytest

from repro.ir import build_cfg, compile_to_tac, tac
from repro.ir.simplify import simplify_cfg


def cfg_of(body: str, decls: str = "var x, y, i: int;"):
    return build_cfg(compile_to_tac(f"program t; {decls} begin {body} end."))


def test_straight_line_is_one_block():
    cfg = cfg_of("x := 1; y := 2; x := x + y")
    assert len(cfg.blocks) == 1
    assert isinstance(cfg.blocks[0].terminator, tac.Halt)


def test_every_block_has_terminator():
    cfg = cfg_of("if x > 0 then y := 1 else y := 2; x := 3")
    for block in cfg.blocks:
        assert block.terminator.is_terminator
        assert not any(i.is_terminator for i in block.body)


def test_if_produces_diamond():
    cfg = cfg_of("if x > 0 then y := 1 else y := 2; x := 3")
    entry = cfg.entry
    assert isinstance(entry.terminator, tac.CJump)
    assert len(entry.succs) == 2
    join_targets = [cfg.blocks[s].succs for s in entry.succs]
    # then side jumps to endif, else side falls through to it
    assert join_targets[0] != [] and join_targets[1] != []


def test_while_produces_back_edge():
    cfg = cfg_of("while x > 0 do x := x - 1")
    has_back = any(
        s <= b.index for b in cfg.blocks for s in b.succs
    )
    assert has_back


def test_preds_are_inverse_of_succs():
    cfg = cfg_of("while x > 0 do begin if y > 0 then y := 0; x := x - 1 end")
    for b in cfg.blocks:
        for s in b.succs:
            assert b.index in cfg.blocks[s].preds
        for p in b.preds:
            assert b.index in cfg.blocks[p].succs


def test_unreachable_code_dropped():
    # 'break' makes the tail of the loop body unreachable
    cfg = cfg_of("while x > 0 do begin break; x := 5 end")
    for block in cfg.blocks:
        assert not any(
            isinstance(i, tac.Unary)
            and i.op == "copy"
            and isinstance(i.a, tac.Const)
            and i.a.value == 5
            for i in block.instrs
        )


def test_labels_stripped_from_blocks():
    cfg = cfg_of("if x > 0 then y := 1; x := 2")
    for block in cfg.blocks:
        assert not any(isinstance(i, tac.Label) for i in block.instrs)


@pytest.mark.parametrize("body", [
    "while x > 0 do x := x - 1",
    "if x > 0 then y := 1 else y := 2; x := 3",
    "if x > 0 then y := y; x := 2",
], ids=["while", "if-else", "same-target"])
def test_labels_and_succs_locate_blocks(body):
    """Labels are unique, and a terminator's succs list its targets in
    order ([then, else] for a CJump, one entry when they agree), before
    and after simplification: jump threading indexes blocks by label
    and the interpreter follows succs."""
    for cfg in (cfg_of(body), simplify_cfg(cfg_of(body))):
        by_label = {b.label: b for b in cfg.blocks}
        assert len(by_label) == len(cfg.blocks)
        for block in cfg.blocks:
            last = block.terminator
            if isinstance(last, tac.Jump):
                targets = [last.target]
            elif isinstance(last, tac.CJump):
                targets = list(dict.fromkeys(
                    [last.then_target, last.else_target]
                ))
            else:
                targets = []
            assert [cfg.blocks[s] for s in block.succs] == [
                by_label[t] for t in targets
            ]


def test_fall_through_normalised_to_jump():
    cfg = cfg_of("if x > 0 then y := 1; x := 2")
    for block in cfg.blocks:
        last = block.terminator
        assert isinstance(last, (tac.Jump, tac.CJump, tac.Halt))


def test_cjump_same_target_single_succ():
    # a CJump whose branches reach the same block keeps one succ entry
    cfg = cfg_of("if x > 0 then y := y; x := 2")
    for block in cfg.blocks:
        assert len(block.succs) == len(set(block.succs))


def test_instructions_enumeration():
    cfg = cfg_of("x := 1; if x > 0 then y := 2")
    triples = cfg.instructions()
    assert all(cfg.blocks[b].instrs[p] is i for b, p, i in triples)
    total = sum(len(b.instrs) for b in cfg.blocks)
    assert len(triples) == total
