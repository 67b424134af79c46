"""Fused command programs: many worker commands, ONE broadcast/barrier.

The paper's cost model is synchronization: every master command costs one
broadcast + barrier no matter how little work it carries.  The batched
optimizers issue long sequences of tiny commands (prepare, then a
derivative pass, then guard evaluations, then per-partition parameter
writes) whose IPC round-trips dwarf the numpy kernel work.  A *program*
packs an ordered list of those commands into a single exchange: the
master broadcasts ``("prog", steps)`` once, each worker executes the
steps back to back over its private pattern slice and returns one partial
result per step, and the collective completion of the single exchange is
the only barrier.  Worker-side results are already reduction-ready
partials (partial lnL sums, partial (d1, d2) sums), so the master reduces
exactly as it would have for ``len(steps)`` separate broadcasts — the
fused exchange is semantically identical, just 1 barrier instead of N.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..core.trace import describe_command

__all__ = ["Program", "WIRE_VERSION", "program_steps"]

#: Version of the master<->worker wire protocol: the command-tuple
#: vocabulary, the ``("prog", steps)`` fusion format and the pickled
#: ``(tag, payload, busy)`` reply.  Documented as a protocol reference in
#: ``docs/ARCHITECTURE.md``; bump on any incompatible change to the
#: command vocabulary or reply framing.
WIRE_VERSION = 4


@dataclass(frozen=True)
class Program:
    """An ordered list of worker commands fused into one broadcast.

    ``steps`` is a tuple of ordinary command tuples (the same tuples
    :class:`~repro.parallel.worker.WorkerState` executes one at a time);
    the wire form is ``("prog", steps)``.  Programs do not nest and the
    ``"stop"`` sentinel is not a step.
    """

    steps: tuple[tuple, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("a program needs at least one step")
        for step in self.steps:
            if not isinstance(step, tuple) or not step:
                raise ValueError(f"malformed program step {step!r}")
            if step[0] in ("prog", "stop"):
                raise ValueError(f"{step[0]!r} cannot be a program step")

    @property
    def command(self) -> tuple:
        """The wire-format broadcast command."""
        return ("prog", self.steps)

    @property
    def label(self) -> str:
        """Human-readable tag, e.g. ``"prog(prepare_edges+deriv_edges)"``."""
        return describe_command(self.command)[0]


def program_steps(cmd: tuple) -> tuple[tuple, ...]:
    """The worker commands a broadcast executes (one for plain commands)."""
    return cmd[1] if cmd[0] == "prog" else (cmd,)
