"""Schedule IR for collective communication (the PR 4 refactor).

An *algorithm* no longer walks the binomial tree inline; it **compiles**
``(n_pes, root, counts/displacements, op)`` into a :class:`~.ir.Schedule`
— per-rank lists of stages of primitive steps (:class:`~.ir.Put`,
:class:`~.ir.Get`, :class:`~.ir.Reduce`, :class:`~.ir.Copy`,
:class:`~.ir.Fill`, :class:`~.ir.Barrier`), held as one step table (the
regular algorithms emit it directly; the tree is a view of it) — and a
single executor (:func:`~.executor.execute_schedule`) runs the schedule
over the runtime context.  Blocking, non-blocking and fault-resilient
execution all drive the same compiled schedule: non-blocking
collectives compile at initiation and execute at ``wait()``; resilient
collectives recompile over the survivor group after a failure.

Compilation is pure and cached (``functools.lru_cache``): every PE of a
call compiles once per argument shape and shares the result.

:mod:`~.lint` provides a static checker over any compiled schedule
(deadlock freedom, matched put/get pairs, buffer-range overlap within a
barrier phase, data conservation); :mod:`~.registry` enumerates every
builtin algorithm so CI can lint them all (``python -m
repro.collectives.schedule``).
"""

from .ir import (
    BARRIER,
    Barrier,
    Buffer,
    Copy,
    Fill,
    Get,
    Put,
    RankProgram,
    Recv,
    Reduce,
    Schedule,
    Send,
    Stage,
)
from .executor import PreparedCollective, execute_schedule
from .lint import LintIssue, lint_schedule
from .mailbox import lower_to_mailbox, max_fan_in

__all__ = [
    "BARRIER",
    "Barrier",
    "Buffer",
    "Copy",
    "Fill",
    "Get",
    "Put",
    "RankProgram",
    "Recv",
    "Reduce",
    "Schedule",
    "Send",
    "Stage",
    "PreparedCollective",
    "execute_schedule",
    "LintIssue",
    "lint_schedule",
    "lower_to_mailbox",
    "max_fan_in",
]
