"""Cycle-by-cycle executor for scheduled LIW programs.

Lock-step semantics: within one long instruction every operation reads
machine state as it was at the start of the cycle (operand fetch), then
all results are committed (write-back).  This makes anti dependences
with latency 0 legal, exactly as the scheduler assumes.

The executor is allocation-agnostic.  Observers receive, per executed
long instruction, the *dynamic access event*: the scalar source values,
the concrete array elements touched, and the scalar destinations.  The
memory simulator (:mod:`repro.memsim`) turns those events into module
conflicts and transfer times under a given storage allocation.

Each static long instruction is decoded once per run, the first time its
block is entered (:class:`DecodedLiw`): its operand sets and transfers
do not change from cycle to cycle, and a long instruction touching no
array reports one shared event object every time it executes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from ..ir import tac
from ..ir.interp import (
    _BINARY_EVAL,
    _UNARY_EVAL,
    ExecutionLimitExceeded,
    InputExhausted,
)
from .schedule import LiwInstruction, Schedule


@dataclass(frozen=True, slots=True)
class ArrayTouch:
    """One resolved array-element access within an executed instruction."""

    array: str
    index: int
    is_store: bool


@dataclass(frozen=True, slots=True)
class AccessEvent:
    """The memory activity of one executed long instruction."""

    scalar_sources: frozenset[int]
    array_touches: tuple[ArrayTouch, ...]
    scalar_dests: frozenset[int]
    #: scheduled inter-module copies: (value, src_module, dst_module)
    transfers: tuple[tuple[int, int, int], ...] = ()

    @property
    def fetch_count(self) -> int:
        loads = sum(1 for t in self.array_touches if not t.is_store)
        return len(self.scalar_sources) + loads


@dataclass(frozen=True, slots=True)
class DecodedLiw:
    """The static parts of one long instruction, decoded once per run."""

    ops: tuple[tac.TacInstr, ...]
    sources: frozenset[int]
    dests: frozenset[int]
    transfers: tuple[tuple[int, int, int], ...]
    #: the event of every execution, when no op touches an array
    event: AccessEvent | None

    @classmethod
    def of(cls, liw: LiwInstruction) -> "DecodedLiw":
        sources = frozenset(liw.scalar_sources())
        dests = frozenset(liw.scalar_dests())
        transfers = tuple(
            (t.value.id, t.src_module, t.dst_module)  # type: ignore[union-attr]
            for t in liw.transfers()
        )
        event = (
            None
            if liw.array_accesses()
            else AccessEvent(sources, (), dests, transfers)
        )
        return cls(tuple(liw.all_ops()), sources, dests, transfers, event)


class Observer(Protocol):
    def __call__(self, event: AccessEvent) -> None: ...


@dataclass(slots=True)
class ExecResult:
    outputs: list[object]
    cycles: int
    scalars: dict[int, object] = field(default_factory=dict)


class LiwExecutor:
    def __init__(
        self,
        schedule: Schedule,
        inputs: list[object] | None = None,
        max_cycles: int = 5_000_000,
        observers: list[Observer] | None = None,
        initial_values: dict[int, object] | None = None,
    ):
        self._schedule = schedule
        self._inputs = list(inputs or [])
        self._input_pos = 0
        self._max_cycles = max_cycles
        self._observers = list(observers or [])
        # Memory-resident constants are initialised data (see
        # RenamedProgram.initial_values).
        self._values: dict[int, object] = dict(initial_values or {})
        self._arrays: dict[str, list[object]] = {
            info.name: [0.0 if info.element_base == "real" else 0] * info.size
            for info in schedule.cfg.arrays.values()
        }
        self._by_label = {bs.label: bs for bs in schedule.blocks}
        self._by_index = {bs.block_index: bs for bs in schedule.blocks}
        #: block_index -> its decoded long instructions, filled on entry
        self._decoded: dict[int, list[DecodedLiw]] = {}
        self.outputs: list[object] = []
        self.cycles = 0
        #: executions of each static long instruction, keyed by
        #: (block_index, position) — the profile that frequency-guided
        #: assignment consumes
        self.liw_counts: dict[tuple[int, int], int] = {}

    # -- operand helpers --------------------------------------------------

    def _value(self, op: tac.Operand) -> object:
        if isinstance(op, tac.Const):
            return op.value
        if isinstance(op, tac.Value):
            return self._values.get(op.id, 0)
        raise TypeError(f"executor needs renamed TAC, got {op!r}")

    def _read_input(self) -> object:
        if self._input_pos >= len(self._inputs):
            raise InputExhausted("LIW program read past end of input")
        v = self._inputs[self._input_pos]
        self._input_pos += 1
        return v

    def _array_index(self, name: str, index: object) -> int:
        arr = self._arrays[name]
        i = int(index)
        if not 0 <= i < len(arr):
            raise IndexError(f"array {name!r} index {i} out of range")
        return i

    # -- one long instruction ---------------------------------------------

    def _execute_liw(
        self, liw: DecodedLiw
    ) -> tuple[str | None, bool, AccessEvent]:
        """Returns (branch_target_label, halted, access event)."""
        writes_scalar: list[tuple[int, object]] = []
        writes_array: list[tuple[str, int, object]] = []
        out_values: list[object] = []
        touches: list[ArrayTouch] = []
        target: str | None = None
        halted = False

        for instr in liw.ops:
            if isinstance(instr, tac.Binary):
                a = self._value(instr.a)
                b = self._value(instr.b)
                writes_scalar.append(
                    (instr.dest.id, _BINARY_EVAL[instr.op](a, b))  # type: ignore[union-attr]
                )
            elif isinstance(instr, tac.Unary):
                writes_scalar.append(
                    (instr.dest.id, _UNARY_EVAL[instr.op](self._value(instr.a)))  # type: ignore[union-attr]
                )
            elif isinstance(instr, tac.Load):
                i = self._array_index(instr.array, self._value(instr.index))
                touches.append(ArrayTouch(instr.array, i, False))
                writes_scalar.append((instr.dest.id, self._arrays[instr.array][i]))  # type: ignore[union-attr]
            elif isinstance(instr, tac.Store):
                i = self._array_index(instr.array, self._value(instr.index))
                touches.append(ArrayTouch(instr.array, i, True))
                writes_array.append((instr.array, i, self._value(instr.src)))
            elif isinstance(instr, tac.ReadIn):
                writes_scalar.append((instr.dest.id, self._read_input()))  # type: ignore[union-attr]
            elif isinstance(instr, tac.ReadArr):
                i = self._array_index(instr.array, self._value(instr.index))
                touches.append(ArrayTouch(instr.array, i, True))
                writes_array.append((instr.array, i, self._read_input()))
            elif isinstance(instr, tac.WriteOut):
                out_values.append(self._value(instr.src))
            elif isinstance(instr, tac.Jump):
                target = instr.target
            elif isinstance(instr, tac.CJump):
                taken = bool(self._value(instr.cond))
                target = instr.then_target if taken else instr.else_target
            elif isinstance(instr, tac.Transfer):
                # The executor's state is per data value; a transfer only
                # moves a copy between modules — timing is the
                # simulator's concern.
                pass
            elif isinstance(instr, tac.Halt):
                halted = True
            else:  # pragma: no cover
                raise TypeError(f"cannot execute {instr!r}")

        # write-back phase
        for vid, val in writes_scalar:
            self._values[vid] = val
        for name, i, val in writes_array:
            self._arrays[name][i] = val
        self.outputs.extend(out_values)

        event = liw.event
        if event is None:
            event = AccessEvent(
                liw.sources, tuple(touches), liw.dests, liw.transfers
            )
        return target, halted, event

    # -- main loop ----------------------------------------------------------

    def run(self) -> ExecResult:
        sched = self._schedule
        if not sched.blocks:
            return ExecResult([], 0)
        current = self._by_index[0]
        while True:
            next_label: str | None = None
            halted = False
            decoded = self._decoded.get(current.block_index)
            if decoded is None:
                decoded = self._decoded[current.block_index] = [
                    DecodedLiw.of(liw) for liw in current.liws
                ]
            for pos, liw in enumerate(decoded):
                if self.cycles >= self._max_cycles:
                    raise ExecutionLimitExceeded(
                        f"exceeded {self._max_cycles} cycles"
                    )
                self.cycles += 1
                key = (current.block_index, pos)
                self.liw_counts[key] = self.liw_counts.get(key, 0) + 1
                target, stop, event = self._execute_liw(liw)
                for obs in self._observers:
                    obs(event)
                if stop:
                    halted = True
                    break
                if target is not None:
                    next_label = target
                    break  # the branch is the last op of the block
            if halted:
                return ExecResult(self.outputs, self.cycles, dict(self._values))
            if next_label is None:
                raise RuntimeError(
                    f"block {current.label!r} ended without a branch"
                )
            current = self._by_label[next_label]


def run_schedule(
    schedule: Schedule,
    inputs: list[object] | None = None,
    max_cycles: int = 5_000_000,
    observers: list[Observer] | None = None,
    initial_values: dict[int, object] | None = None,
) -> ExecResult:
    """Execute a scheduled program to completion."""
    return LiwExecutor(
        schedule, inputs, max_cycles, observers, initial_values
    ).run()


class TraceRecorder:
    """Observer that stores every access event (tests / small runs only)."""

    def __init__(self) -> None:
        self.events: list[AccessEvent] = []

    def __call__(self, event: AccessEvent) -> None:
        self.events.append(event)
