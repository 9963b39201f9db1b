"""Typed artifacts flowing between passes, and the pipeline options.

Artifacts are the values a pass reads and writes: the source text, the
AST, the CFG, the renamed program, the LIW schedule, the storage
result, the simulation result.  Each has a declared type in
:data:`ARTIFACTS`; the :class:`ArtifactStore` enforces the declaration
when a pass publishes a value, so a mis-wired pipeline fails loudly at
the pass boundary instead of deep inside a later pass.

Type declarations are dotted paths resolved lazily (on first check), so
this module imports nothing from the rest of the package and every
layer can depend on it without cycles.

:class:`CompiledProgram` and :class:`SimulationResult` — the public
result types of :mod:`repro.pipeline` — live here for the same reason:
the pass wrappers in ``repro.liw``/``repro.memsim`` and the pipeline
facade both need them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from importlib import import_module
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotation-only; no runtime imports (cycle-free)
    from ..ir.cfg import Cfg
    from ..ir.rename import RenamedProgram
    from ..liw.executor import ExecResult
    from ..liw.machine import MachineConfig
    from ..liw.schedule import Schedule
    from ..memsim.simulator import MemoryReport


# --------------------------------------------------------------------------
# Artifact declarations
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ArtifactSpec:
    """One named, typed artifact a pass may read or write."""

    name: str
    type_path: str  # dotted "module:attr" path, resolved lazily
    description: str = ""

    def resolve(self) -> type:
        return _resolve(self.type_path)  # type: ignore[return-value]


@cache
def _resolve(path: str) -> object:
    """The object a dotted ``module:attr`` path names."""
    module_name, _, attr = path.partition(":")
    return getattr(import_module(module_name), attr)


ARTIFACTS: dict[str, ArtifactSpec] = {}


def register_artifact(
    name: str, type_path: str, description: str = ""
) -> ArtifactSpec:
    """Declare (or re-declare) an artifact name and its expected type."""
    spec = ArtifactSpec(name, type_path, description)
    ARTIFACTS[name] = spec
    return spec


register_artifact("source", "builtins:str", "mini-language source text")
register_artifact("inputs", "builtins:list", "runtime input value stream")
register_artifact("ast", "repro.lang.ast_nodes:Program", "parse tree")
register_artifact(
    "symbols", "repro.lang.sema:SymbolTable", "semantic-analysis symbol table"
)
register_artifact("tac", "repro.ir.tac:TacProgram", "three-address code")
register_artifact("cfg", "repro.ir.cfg:Cfg", "control-flow graph")
register_artifact(
    "renamed", "repro.ir.rename:RenamedProgram", "program over data values"
)
register_artifact(
    "schedule", "repro.liw.schedule:Schedule", "long-instruction schedule"
)
register_artifact(
    "storage",
    "repro.core.strategies:StorageResult",
    "storage assignment (allocation + residual conflicts)",
)
register_artifact(
    "array_plan",
    "repro.core.arraylayout:ArrayLayoutPlan",
    "optimized per-array layouts + schedule moves (array-opt pass)",
)
register_artifact(
    "simulation",
    "repro.passes.artifacts:SimulationResult",
    "execution outputs + Δ-model memory report",
)


class ArtifactStore:
    """The artifacts produced so far in one pipeline run."""

    __slots__ = ("_data",)

    def __init__(self, initial: dict[str, object] | None = None):
        self._data: dict[str, object] = {}
        for name, value in (initial or {}).items():
            self.set(name, value)

    def set(self, name: str, value: object) -> None:
        spec = ARTIFACTS.get(name)
        if spec is None:
            raise KeyError(
                f"unknown artifact {name!r}; declare it with "
                f"repro.passes.register_artifact first"
            )
        expected = spec.resolve()
        if not isinstance(value, expected):
            raise TypeError(
                f"artifact {name!r} must be {expected.__name__}, "
                f"got {type(value).__name__}"
            )
        self._data[name] = value

    def get(self, name: str) -> object:
        try:
            return self._data[name]
        except KeyError:
            raise KeyError(
                f"artifact {name!r} has not been produced; is the pass "
                f"that writes it in the pipeline (before its readers)?"
            ) from None

    def get_optional(self, name: str, default: object = None) -> object:
        return self._data.get(name, default)

    def has(self, name: str) -> bool:
        return name in self._data

    def names(self) -> list[str]:
        return sorted(self._data)

    def as_dict(self) -> dict[str, object]:
        return dict(self._data)


# --------------------------------------------------------------------------
# Pipeline options
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PipelineOptions:
    """Every configuration knob of the standard pipeline, in one frozen
    record.  Each pass declares which fields feed its fingerprint
    (``Pass.config_keys``); changing any other field leaves that pass's
    cached artifacts valid.  :data:`OPTIONS` declares, once per option,
    how the CLI, the batch service and the wire protocol set, check and
    key it."""

    machine: "MachineConfig | None" = None
    # front end
    frontend: str = "mini"
    py_entry: str = ""
    unroll: int = 1
    unroll_innermost_only: bool = False
    constants_in_memory: bool = False
    immediate_limit: int = 15
    simplify: bool = True
    rename_mode: str = "web"
    # storage assignment
    strategy: str = "STOR1"
    method: str = "hitting_set"
    k: int | None = None
    seed: int = 0
    strategy_knobs: tuple[tuple[str, object], ...] = ()
    runner: str = "serial"
    array_layout: str = "fixed"
    # simulation
    layout: str = "interleaved"
    delta: float = 1.0
    max_cycles: int = 5_000_000
    scheduled_transfers: bool = False

    @classmethod
    def build(cls, **values: object) -> "PipelineOptions":
        """Options from values by option name; a knob-backed option
        (``max_atom_nodes``) goes into ``strategy_knobs`` when set."""
        knobs = {
            spec.name: value
            for spec in OPTIONS
            if spec.knob and (value := values.pop(spec.name, None)) is not None
        }
        options = cls(**values)  # type: ignore[arg-type]
        return options.with_knobs(**knobs) if knobs else options

    def checked(self) -> "PipelineOptions":
        """This record after every declared option passed its check
        (strategy names upper-cased); raises :class:`OptionError`, or
        the frontend registry's typed error."""
        changes: dict[str, object] = {}
        for spec in OPTIONS:
            value = spec.get(self)
            normal = spec.check(value)
            if normal != value:
                changes[spec.name] = normal
        return replace(self, **changes) if changes else self  # type: ignore[arg-type]

    def key_fields(self, job_knobs: bool = False) -> dict[str, object]:
        """The options a batch cache key covers, by wire name:
        ``key="always"`` options always, ``key="set"`` ones only when
        non-default (so adding an option leaves existing keys alone).
        ``job_knobs`` keeps just the knobs
        :func:`repro.service.cache.job_key` takes."""
        out: dict[str, object] = {}
        for spec in OPTIONS:
            if spec.key is None or (job_knobs and not spec.job_knob):
                continue
            value = spec.get(self)
            if spec.name == "k" and value is None:
                value = self.resolved_machine().k
            if spec.key == "always" or value != spec.default:
                out[spec.label] = value
        return out

    def resolved_machine(self) -> "MachineConfig":
        if self.machine is not None:
            return self.machine
        from ..liw.machine import MachineConfig

        return MachineConfig()

    def knobs(self) -> dict[str, object]:
        return dict(self.strategy_knobs)

    def with_knobs(self, **knobs: object) -> "PipelineOptions":
        merged = {**self.knobs(), **knobs}
        return replace(
            self, strategy_knobs=tuple(sorted(merged.items()))
        )


class OptionError(ValueError):
    """An option value outside its declared type, range or set."""


_NOUNS = {bool: "a bool", int: "an int", float: "a number", str: "a string"}


@dataclass(frozen=True, slots=True)
class OptionSpec:
    """How every entry point sets, checks and keys one option.

    ``name`` is the :class:`PipelineOptions` field the option sets (with
    ``knob``, its ``strategy_knobs`` entry instead); the default is that
    field's.  ``flag`` and ``wire`` name the CLI flag and the request
    field (None: not settable there).  ``accepts`` is a ``module:attr``
    path, resolved lazily, to the accepted values or to a validator
    that raises its own typed error.  ``key`` says when the option
    enters batch cache keys: ``"always"``, only when ``"set"`` to a
    non-default value, or never (None: execution policy and
    simulation-only settings); ``job_knob`` options also enter the
    ``job_key`` knobs.
    """

    name: str
    type: type
    flag: str | None = None
    wire: str | None = None
    help: str = ""
    accepts: str | None = None
    low: int | None = None
    high: int | None = None
    nullable: bool = False
    upper: bool = False
    key: str | None = "set"
    job_knob: bool = False
    knob: bool = False

    @property
    def label(self) -> str:
        return self.wire or self.name

    @property
    def default(self) -> object:
        if self.knob:
            return None
        return PipelineOptions.__dataclass_fields__[self.name].default

    def get(self, options: PipelineOptions) -> object:
        if self.knob:
            return options.knobs().get(self.name)
        return getattr(options, self.name)

    def check(self, value: object) -> object:
        """``value`` if this option accepts it (upper-cased for
        ``upper`` options), else :class:`OptionError`."""
        if value is None and self.nullable:
            return None
        kinds = (int, float) if self.type is float else self.type
        if (
            not isinstance(value, kinds)
            or (isinstance(value, bool) and self.type is not bool)
            or (self.low is not None and value < self.low)  # type: ignore[operator]
            or (self.high is not None and value > self.high)  # type: ignore[operator]
        ):
            raise OptionError(f"{self.label} must be {self._describe()}")
        if self.upper:
            value = value.upper()  # type: ignore[attr-defined]
        if self.accepts is not None:
            accepted = _resolve(self.accepts)
            if callable(accepted):
                accepted(value)
            elif value not in accepted:  # type: ignore[operator]
                raise OptionError(
                    f"unknown {self.label} {value!r} "
                    f"(valid: {list(accepted)})"  # type: ignore[call-overload]
                )
        return value

    def _describe(self) -> str:
        text = _NOUNS[self.type]
        if self.low is not None and self.high is not None:
            text += f" in {self.low}..{self.high}"
        elif self.low is not None:
            text += f" >= {self.low}"
        return text + (" or null" if self.nullable else "")


#: Every option a user sets, declared once: the CLI flags, the wire
#: protocol's checks, the client's keywords and the batch cache keys
#: all derive from this table.  Adding an option is one field above,
#: one row here, and the ``config_keys`` of the passes it feeds.
OPTIONS: tuple[OptionSpec, ...] = (
    OptionSpec("frontend", str, "--frontend", "frontend",
               accepts="repro.frontends:validate_frontend_name",
               help="source language: 'mini' (the paper's mini-language) "
                    "or 'python' (compile a CPython function's bytecode)"),
    OptionSpec("py_entry", str, "--entry", "entry",
               help="entry-function name for --frontend python (default: "
                    "the single top-level function)"),
    OptionSpec("unroll", int, "--unroll", "unroll", low=1, high=64,
               key="always", help="unroll factor"),
    OptionSpec("unroll_innermost_only", bool),
    OptionSpec("constants_in_memory", bool, "--memory-constants",
               "constants_in_memory", key="always",
               help="place large literals in data memory"),
    OptionSpec("immediate_limit", int, low=0),
    OptionSpec("simplify", bool, "--no-simplify",
               help="skip the CFG simplification pass"),
    OptionSpec("rename_mode", str, "--rename-mode",
               accepts="repro.ir.rename:RENAME_MODES",
               help="value-renaming granularity"),
    OptionSpec("strategy", str, "--strategy", "strategy", upper=True,
               accepts="repro.core.strategies:STRATEGIES", key="always"),
    OptionSpec("method", str, "--method", "method", key="always",
               accepts="repro.core.strategies:METHODS"),
    OptionSpec("k", int, None, "k", low=1, nullable=True, key="always"),
    OptionSpec("seed", int, "--seed", "seed", key="always", job_knob=True,
               help="tie-break seed for the storage strategies"),
    OptionSpec("max_atom_nodes", int, "--max-atom-nodes", "max_atom_nodes",
               low=1, nullable=True, job_knob=True, knob=True,
               help="clique-separator decomposition bound (components "
                    "above it are coloured whole)"),
    OptionSpec("runner", str, "--runner", "runner", key=None,
               accepts="repro.core.workunits:RUNNERS",
               help="atom work-unit execution mode (results are "
                    "identical across runners)"),
    OptionSpec("array_layout", str, "--array-layout", "array_layout",
               accepts="repro.core.arraylayout:ARRAY_LAYOUT_MODES",
               job_knob=True,
               help="'optimize' runs the compile-time array bank-conflict "
                    "minimizer (layout search + dependence-legal schedule "
                    "moves)"),
    OptionSpec("layout", str, "--layout", key=None,
               accepts="repro.memsim.interleave:LAYOUTS"),
    OptionSpec("delta", float, "--delta", key=None,
               help="Δ: one module transfer time"),
    OptionSpec("max_cycles", int, low=1, key=None),
    OptionSpec("scheduled_transfers", bool, key=None),
)

#: The options a compile request may carry, by wire name.
WIRE_OPTIONS = {spec.wire: spec for spec in OPTIONS if spec.wire is not None}


# --------------------------------------------------------------------------
# Public result records (re-exported by repro.pipeline)
# --------------------------------------------------------------------------


@dataclass(slots=True)
class CompiledProgram:
    """A program after the machine-independent and scheduling phases."""

    name: str
    cfg: "Cfg"
    renamed: "RenamedProgram"
    schedule: "Schedule"

    @property
    def machine(self) -> "MachineConfig":
        return self.schedule.machine


@dataclass(slots=True)
class SimulationResult:
    exec_result: "ExecResult"
    memory: "MemoryReport"

    @property
    def outputs(self) -> list[object]:
        return self.exec_result.outputs

    @property
    def cycles(self) -> int:
        return self.exec_result.cycles

    @property
    def total_time(self) -> float:
        """Execution cycles plus transfer-serialisation stall time beyond
        the one Δ-per-instruction already inside the cycle count."""
        return self.cycles + self.memory.stall_time


def compiled_program(store: ArtifactStore) -> CompiledProgram:
    """Assemble the public :class:`CompiledProgram` from a run's
    front-end artifacts."""
    tac = store.get("tac")
    return CompiledProgram(
        tac.name,  # type: ignore[attr-defined]
        store.get("cfg"),  # type: ignore[arg-type]
        store.get("renamed"),  # type: ignore[arg-type]
        store.get("schedule"),  # type: ignore[arg-type]
    )


__all__ = [
    "ARTIFACTS",
    "ArtifactSpec",
    "ArtifactStore",
    "CompiledProgram",
    "OPTIONS",
    "OptionError",
    "OptionSpec",
    "PipelineOptions",
    "SimulationResult",
    "WIRE_OPTIONS",
    "compiled_program",
    "register_artifact",
]
