"""Tape-bounded machines: the simulator and the acceptors for the
depth-q languages."""

from .machines import MAX_MACHINE_DEPTH, build_k3_machine, build_kn_machine
from .simulator import (
    ACCEPT,
    BLANK,
    CompiledMachine,
    DEFAULT_STEP_BUDGET,
    LEFT,
    MachineBuilder,
    REJECT,
    RIGHT,
    RunResult,
    STAY,
    TraceEntry,
    format_trace,
    run,
)

__all__ = [
    "ACCEPT",
    "BLANK",
    "CompiledMachine",
    "DEFAULT_STEP_BUDGET",
    "LEFT",
    "MAX_MACHINE_DEPTH",
    "MachineBuilder",
    "REJECT",
    "RIGHT",
    "RunResult",
    "STAY",
    "TraceEntry",
    "build_k3_machine",
    "build_kn_machine",
    "format_trace",
    "run",
]
