"""Three-address code (TAC): operands, instructions, and a linear program.

TAC is the compiler's mid-level IR.  Scalars appear as :class:`Sym`
operands before renaming and as :class:`Value` operands afterwards
(see :mod:`repro.ir.rename`); arrays are referenced by name from
:class:`Load`/:class:`Store` only, since only scalar placement is the
paper's subject.

Every instruction knows the scalar operands it reads (``uses``) and the
scalar it writes (``defs``), which drives dataflow analysis, renaming,
dependence construction, and the memory-access model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union


# --------------------------------------------------------------------------
# Operands
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Const:
    """Immediate constant — never occupies a memory module."""

    value: int | float | bool

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True, slots=True)
class Sym:
    """A named scalar (source variable or compiler temporary)."""

    name: str

    @property
    def is_temp(self) -> bool:
        return self.name.startswith("%")

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Value:
    """A renamed data value (paper terminology); produced by rename.py."""

    id: int

    def __str__(self) -> str:
        return f"v{self.id}"


Operand = Union[Const, Sym, Value]
Scalar = Union[Sym, Value]

#: Binary opcodes with their evaluation functions.
BINARY_OPS = frozenset(
    {
        "add", "sub", "mul", "div", "idiv", "imod", "floordiv", "floormod",
        "min", "max",
        "eq", "ne", "lt", "le", "gt", "ge",
        "and", "or",
    }
)

UNARY_OPS = frozenset(
    {
        "copy", "neg", "not", "abs",
        "sqrt", "sin", "cos", "exp", "ln",
        "trunc", "float",
    }
)


def _is_scalar(op: object) -> bool:
    return isinstance(op, (Sym, Value))


# --------------------------------------------------------------------------
# Instructions
# --------------------------------------------------------------------------


@dataclass(slots=True)
class TacInstr:
    """Base class.  Subclasses fill in ``uses``/``defs`` semantics."""

    def uses(self) -> tuple[Scalar, ...]:
        """Scalar operands read by this instruction."""
        return ()

    def defs(self) -> tuple[Scalar, ...]:
        """Scalar operands written by this instruction."""
        return ()

    def operands(self) -> tuple[Operand, ...]:
        """All source operands, including constants."""
        return ()

    @property
    def is_terminator(self) -> bool:
        return False


@dataclass(slots=True)
class Binary(TacInstr):
    dest: Scalar
    op: str
    a: Operand
    b: Operand

    def __post_init__(self) -> None:
        if self.op not in BINARY_OPS:
            raise ValueError(f"unknown binary op {self.op!r}")

    def uses(self) -> tuple[Scalar, ...]:
        return tuple(x for x in (self.a, self.b) if _is_scalar(x))  # type: ignore[misc]

    def defs(self) -> tuple[Scalar, ...]:
        return (self.dest,)

    def operands(self) -> tuple[Operand, ...]:
        return (self.a, self.b)

    def __str__(self) -> str:
        return f"{self.dest} = {self.op} {self.a}, {self.b}"


@dataclass(slots=True)
class Unary(TacInstr):
    dest: Scalar
    op: str
    a: Operand

    def __post_init__(self) -> None:
        if self.op not in UNARY_OPS:
            raise ValueError(f"unknown unary op {self.op!r}")

    def uses(self) -> tuple[Scalar, ...]:
        return (self.a,) if _is_scalar(self.a) else ()  # type: ignore[return-value]

    def defs(self) -> tuple[Scalar, ...]:
        return (self.dest,)

    def operands(self) -> tuple[Operand, ...]:
        return (self.a,)

    def __str__(self) -> str:
        return f"{self.dest} = {self.op} {self.a}"


@dataclass(slots=True)
class Load(TacInstr):
    """``dest = array[index]`` — one run-time array access."""

    dest: Scalar
    array: str
    index: Operand

    def uses(self) -> tuple[Scalar, ...]:
        return (self.index,) if _is_scalar(self.index) else ()  # type: ignore[return-value]

    def defs(self) -> tuple[Scalar, ...]:
        return (self.dest,)

    def operands(self) -> tuple[Operand, ...]:
        return (self.index,)

    def __str__(self) -> str:
        return f"{self.dest} = {self.array}[{self.index}]"


@dataclass(slots=True)
class Store(TacInstr):
    """``array[index] = src`` — one run-time array access."""

    array: str
    index: Operand
    src: Operand

    def uses(self) -> tuple[Scalar, ...]:
        return tuple(x for x in (self.index, self.src) if _is_scalar(x))  # type: ignore[misc]

    def operands(self) -> tuple[Operand, ...]:
        return (self.index, self.src)

    def __str__(self) -> str:
        return f"{self.array}[{self.index}] = {self.src}"


@dataclass(slots=True)
class Label(TacInstr):
    name: str

    def __str__(self) -> str:
        return f"{self.name}:"


@dataclass(slots=True)
class Jump(TacInstr):
    target: str

    @property
    def is_terminator(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"jump {self.target}"


@dataclass(slots=True)
class CJump(TacInstr):
    """``if cond then goto then_target else goto else_target``."""

    cond: Operand
    then_target: str
    else_target: str

    def uses(self) -> tuple[Scalar, ...]:
        return (self.cond,) if _is_scalar(self.cond) else ()  # type: ignore[return-value]

    def operands(self) -> tuple[Operand, ...]:
        return (self.cond,)

    @property
    def is_terminator(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"if {self.cond} then {self.then_target} else {self.else_target}"


@dataclass(slots=True)
class ReadIn(TacInstr):
    """``dest = read()`` — consume the next program input."""

    dest: Scalar

    def defs(self) -> tuple[Scalar, ...]:
        return (self.dest,)

    def __str__(self) -> str:
        return f"{self.dest} = read()"


@dataclass(slots=True)
class ReadArr(TacInstr):
    """``array[index] = read()``."""

    array: str
    index: Operand

    def uses(self) -> tuple[Scalar, ...]:
        return (self.index,) if _is_scalar(self.index) else ()  # type: ignore[return-value]

    def operands(self) -> tuple[Operand, ...]:
        return (self.index,)

    def __str__(self) -> str:
        return f"{self.array}[{self.index}] = read()"


@dataclass(slots=True)
class WriteOut(TacInstr):
    """``write(src)`` — append to the program output."""

    src: Operand

    def uses(self) -> tuple[Scalar, ...]:
        return (self.src,) if _is_scalar(self.src) else ()  # type: ignore[return-value]

    def operands(self) -> tuple[Operand, ...]:
        return (self.src,)

    def __str__(self) -> str:
        return f"write {self.src}"


@dataclass(slots=True)
class Transfer(TacInstr):
    """``copy value: M_src -> M_dst`` — a compile-time-scheduled data
    transfer between memory modules (paper §1: "multiple copies can be
    created by data transfers among memory modules that are scheduled at
    compile-time").

    Transfers are inserted *after* scheduling and allocation
    (:mod:`repro.liw.transfers`); they carry no register-level dataflow
    — the executor's state is per-value — but each one occupies a
    functional-unit slot and two memory accesses (read at the source
    module, write at the destination) in the simulator's Δ phase.
    """

    value: Scalar
    src_module: int
    dst_module: int

    def __str__(self) -> str:
        return f"xfer {self.value}: M{self.src_module + 1}->M{self.dst_module + 1}"


@dataclass(slots=True)
class Halt(TacInstr):
    """End of program."""

    @property
    def is_terminator(self) -> bool:
        return True

    def __str__(self) -> str:
        return "halt"


# --------------------------------------------------------------------------
# Program container
# --------------------------------------------------------------------------


@dataclass(slots=True)
class ArrayInfo:
    name: str
    size: int
    element_base: str  # 'int' | 'real'


@dataclass(slots=True)
class TacProgram:
    """A linear TAC program plus its declared arrays and scalar names.

    ``const_table`` maps memory-resident constant symbols (``%c…``) to
    their values: LIW machines have few immediate fields, so compilers
    place most literals in data memory, where they become ordinary
    (read-only, duplicable) data values.
    """

    name: str
    instrs: list[TacInstr] = field(default_factory=list)
    arrays: dict[str, ArrayInfo] = field(default_factory=dict)
    scalars: list[str] = field(default_factory=list)
    const_table: dict[str, int | float | bool] = field(default_factory=dict)

    def __iter__(self) -> Iterator[TacInstr]:
        return iter(self.instrs)

    def __len__(self) -> int:
        return len(self.instrs)

    def scalar_symbols(self) -> set[Sym]:
        """All scalar symbols (variables and temporaries) in the program."""
        syms: set[Sym] = set()
        for instr in self.instrs:
            for op in (*instr.uses(), *instr.defs()):
                if isinstance(op, Sym):
                    syms.add(op)
        return syms

    def pretty(self) -> str:
        lines = [f"; program {self.name}"]
        for arr in self.arrays.values():
            lines.append(f"; array {arr.name}[{arr.size}] of {arr.element_base}")
        for instr in self.instrs:
            if isinstance(instr, Label):
                lines.append(str(instr))
            else:
                lines.append(f"    {instr}")
        return "\n".join(lines)
