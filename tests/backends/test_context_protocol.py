"""Protocol parity: one context core, overrides only at the seams.

``backends/base.py`` documents the PE context protocol and which members
each backend's context may override.  These tests hold the three context
classes to it, so the next copy-paste of a core method into a backend
fails here instead of drifting.
"""

from __future__ import annotations

import inspect
import re

import pytest

from repro.backends import base, get_backend
from repro.backends.mp import MPContext
from repro.backends.vec import VecContext
from repro.errors import AddressError, RuntimeStateError
from repro.runtime.collective_api import CollectiveAPI
from repro.runtime.context import XBRTime

from ..conftest import small_config

CONTEXTS = {"sim": XBRTime, "mp": MPContext, "vec": VecContext}

#: Everything a backend's context class may define itself — the seam
#: list of ``backends/base.py``.  A name missing here must live in the
#: core, once.
SEAM_OVERRIDES = {
    "sim": {"spans", "schedule_transport", "msg_send", "msg_recv",
            "msg_try_recv", "msg_probe", "_msg_deliver", "_msg_open",
            "_msg_take"},
    "mp": {"__init__", "release",
           "time_ns", "compute", "charge_access", "charge_stream",
           "executing_rank", "_sync", "barrier_team"},
    "vec": {"schedule_evaluator"},
}

_CLASS_BOILERPLATE = {"__module__", "__qualname__", "__doc__",
                      "__annotations__", "__firstlineno__",
                      "__static_attributes__", "backend_name"}


def protocol_names() -> list[str]:
    """First-column names of the protocol table in ``base.__doc__``."""
    rows = re.findall(r"^``([\w/()]+)``\s{2,}\S", base.__doc__, re.M)
    names = [n.rstrip("()") for row in rows for n in row.split("/")]
    assert "put" in names, "protocol table not found in backends/base.py"
    return names


@pytest.mark.parametrize("name", protocol_names())
def test_protocol_name_resolves_with_one_signature(name):
    signatures = set()
    for cls in CONTEXTS.values():
        if name in CollectiveAPI.__annotations__:
            continue  # instance attribute, bound by the core's _init_core
        member = getattr(cls, name)
        if callable(member):
            signatures.add(inspect.signature(member))
    assert len(signatures) <= 1, f"{name}: signatures differ: {signatures}"


@pytest.mark.parametrize("backend", sorted(CONTEXTS))
def test_context_defines_only_its_seams(backend):
    cls = CONTEXTS[backend]
    assert cls.__bases__ == (CollectiveAPI,)
    own = set(vars(cls)) - _CLASS_BOILERPLATE
    assert own <= SEAM_OVERRIDES[backend], (
        f"{cls.__name__} defines {sorted(own - SEAM_OVERRIDES[backend])} "
        "outside its seam list — move it to the context core, or add the "
        "seam to backends/base.py and SEAM_OVERRIDES"
    )


def test_core_members_are_one_object_everywhere():
    """Typed Table-1 wrappers included: nothing is defined twice."""
    strays = [
        f"{cls.__name__}.{name}"
        for name, core in vars(CollectiveAPI).items()
        if not name.startswith("__")
        for backend, cls in CONTEXTS.items()
        if name not in SEAM_OVERRIDES[backend]
        and inspect.getattr_static(cls, name) is not core
    ]
    assert not strays, f"not the core's own object: {strays}"


def _noop(ctx):
    ctx.init()
    ctx.close()


@pytest.mark.parametrize("backend", sorted(CONTEXTS))
def test_closed_session_raises_runtime_state_error(backend):
    session = get_backend(backend).session(small_config(2))
    session.run(_noop)
    session.close()
    with pytest.raises(RuntimeStateError, match="used after close"):
        session.run(_noop)


def _amo_alignment(ctx):
    ctx.init()
    cell = ctx.malloc(16)
    ctx.view(cell, "uint64", 2)[:] = (7, 9)
    ctx.barrier()
    other = 1 - ctx.my_pe()
    try:
        refused = ctx.amo(cell + 3, 5, other, "add")
    except AddressError as exc:
        refused = str(exc)
    ctx.barrier()
    untouched = ctx.view(cell, "uint64", 2).tolist()
    ctx.barrier()
    old = ctx.amo(cell + 8, 5, other, "add", "int64")
    ctx.barrier()
    after = ctx.view(cell, "uint64", 2).tolist()
    ctx.close()
    return refused, untouched, old, after


@pytest.mark.parametrize("backend", sorted(CONTEXTS))
def test_misaligned_amo_is_refused_everywhere(backend):
    """RISC-V AMOs need natural alignment: the context core refuses a
    misaligned one by PE and address, before any backend touches
    memory; the aligned neighbour still works."""
    with get_backend(backend).session(small_config(2)) as session:
        results = session.run(_amo_alignment)
    for rank, (refused, untouched, old, after) in enumerate(results):
        assert re.fullmatch(
            rf"PE {rank}: AMO at 0x[0-9a-f]+3 on PE {1 - rank} is not "
            r"8-byte aligned \(.*\)", refused), refused
        assert untouched == [7, 9]
        assert (old, after) == (9, [7, 14])
