"""Schedule IR for collective communication (the PR 4 refactor).

An *algorithm* no longer walks the binomial tree inline; it **compiles**
``(n_pes, root, counts/displacements, op)`` into a :class:`~.ir.Schedule`
— per-rank stages of primitive put, get, reduce, copy and fill steps
between barriers, held as one step table (:class:`~.ir.StepTable`,
which every compiler emits directly) — and a
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

from .ir import Buffer, Schedule
from .executor import PreparedCollective, execute_schedule
from .lint import LintIssue, lint_schedule
from .mailbox import lower_to_mailbox, max_fan_in

__all__ = [
    "Buffer",
    "Schedule",
    "PreparedCollective",
    "execute_schedule",
    "LintIssue",
    "lint_schedule",
    "lower_to_mailbox",
    "max_fan_in",
]
