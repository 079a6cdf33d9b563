"""The two fidelity levels of the transfer engine on one remote put:
the analytic model and the generated xBGAS loop executed on the
functional core move the same bytes, and the ISA path pays one network
message per element where the model path sends one aggregate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime import Machine

from ..conftest import small_config

NELEMS = 64


def remote_put(fidelity: str) -> tuple[list[int], int]:
    """PE 0 puts ``NELEMS`` longs to PE 1: what PE 1 holds, and the
    machine's message count."""
    def body(ctx):
        ctx.init()
        dest = ctx.malloc(8 * NELEMS)
        src = ctx.private_malloc(8 * NELEMS)
        if ctx.my_pe() == 0:
            ctx.view(src, "long", NELEMS)[:] = np.arange(NELEMS) * 3
            ctx.put(dest, src, NELEMS, 1, 1, "long")
        ctx.barrier()
        got = ctx.view(dest, "long", NELEMS).tolist()
        ctx.close()
        return got

    machine = Machine(small_config(2, cores_per_node=1, fidelity=fidelity))
    return machine.run(body)[1], int(machine.stats.messages)


@pytest.fixture(scope="module")
def both():
    return remote_put("model"), remote_put("isa")


def test_both_paths_deliver_identical_payloads(both):
    (model, _), (isa, _) = both
    assert model == isa == [3 * i for i in range(NELEMS)]


def test_isa_path_sends_a_message_per_element(both):
    (_, model_msgs), (_, isa_msgs) = both
    assert model_msgs == 1
    assert isa_msgs == NELEMS
