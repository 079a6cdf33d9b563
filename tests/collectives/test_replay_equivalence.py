"""Every way a schedule can be driven must be indistinguishable.

On the simulator's direct-handoff engine a PE parked inside a schedule
is continued by whichever thread would wake it (the executor's
continuations); ``Machine(fast_paths=False)`` keeps every PE on its own
thread over the same flat plan, and is the oracle here.  Random
programs — every builtin family and algorithm, ragged and zero counts,
a fused superstep flush, a non-blocking collective completed at
``wait()``, with seeded user-level ``put`` / ``get`` / ``put_nb`` /
``compute`` / ``barrier`` traffic between the calls so ranks reach each
collective at different clocks and with transfers in flight — must
agree bit for bit on everything the machine can show afterwards:
per-PE results, final clocks, memory bytes, ``SimStats``, per-PE cache
/ TLB counters and the network's link state; under fault injection the
fired-fault schedule, and with tracing the event stream and the span
tree.  The directed cases cover concurrent teams, hierarchical
(partitioned) schedules, the mailbox transport with and without
backpressure, crashes and drops, and traced runs.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.collectives.nonblocking import ibroadcast
from repro.collectives.schedule import execute_schedule
from repro.collectives.schedule.ir import (
    AUX_COPY,
    OP_COPY,
    OP_GET,
    OP_PUT,
    OP_RECV,
    OP_SEND,
    Buffer,
    Rows,
    Schedule,
    skeleton,
)
from repro.collectives.teams import Team
from repro.faults.plan import FaultPlan, RetryConfig, crash, drop, stall
from repro.params import MailboxParams
from repro.runtime import Machine
from repro.sim.spans import build_span_forest, walk

from ..conftest import small_config
from .helpers import ring_schedule

_SETTINGS = settings(max_examples=30, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

I64 = np.dtype("int64")
#: Elements per rank slot of the work buffers (6 elements, stride 2).
WIDTH = 12
#: Elements per rank slot of the user-traffic buffer.
TRAFFIC = 4


# -- observing a run ----------------------------------------------------------


def _observe(config, body, **machine_kw):
    n_pes = config.n_pes
    machine = Machine(config, **machine_kw)
    results = machine.run(body)
    net = machine.network
    seen = {}
    if machine.faults is not None:
        seen["fired"] = machine.faults.fired
    trace = machine.engine.trace
    if trace.enabled:
        seen["events"] = [
            (e.time_ns, e.pe, e.kind, e.detail, e.span_id, e.parent_id,
             e.dur_ns, e.attrs) for e in trace]
        seen["spans"] = [
            (s.sid, s.parent_id, s.pe, s.kind, s.name, s.t0, s.t1,
             s.attrs, len(s.children))
            for s in walk(build_span_forest(trace))]
    return seen | {
        "results": results,
        "clocks": [pe.clock for pe in machine.engine.pes],
        "memory": [mem.buf for mem in machine.memories],
        "stats": machine.stats,
        "caches": [
            (hier.stat_tuple(), hier.l1.writebacks, hier.l2.writebacks)
            for hier in map(machine.hierarchy_of, range(n_pes))],
        "network": (net._link_free, net._bus_free, net._fabric_free,
                    net.max_delivery),
    }


def assert_drivers_agree(n_pes, body, machine_kw=None, **config_kw):
    config = small_config(n_pes, **config_kw)
    machine_kw = machine_kw or {}
    fast = _observe(config, body, **machine_kw)
    per_rank = _observe(config, body, fast_paths=False, **machine_kw)
    for pe, (a, b) in enumerate(zip(fast.pop("memory"),
                                    per_rank.pop("memory"))):
        assert np.array_equal(a, b), f"PE {pe} memory differs"
    assert fast.keys() == per_rank.keys()
    for what in fast:
        assert fast[what] == per_rank[what], what
    return fast


# -- random programs ----------------------------------------------------------


def _counts(draw, n_pes):
    """Ragged per-rank element counts (zeros included) and their
    displacements."""
    msgs = tuple(draw(st.integers(0, 3)) for _ in range(n_pes))
    disp = tuple(int(x) for x in np.cumsum((0,) + msgs[:-1]))
    return msgs, disp


@st.composite
def _collective(draw, n_pes):
    kind = draw(st.sampled_from([
        "broadcast", "reduce", "allreduce", "scan", "scatter", "gather",
        "allgather", "alltoall", "reduce_scatter", "superstep", "ibroadcast",
    ]))
    act = {"kind": kind,
           "nelems": draw(st.integers(0, 6)),
           "stride": draw(st.integers(1, 2)),
           "root": draw(st.integers(0, n_pes - 1)),
           "op": draw(st.sampled_from(["sum", "min", "max"]))}
    if kind == "broadcast":
        act["algorithm"] = draw(st.sampled_from(["binomial", "linear",
                                                 "ring"]))
    elif kind == "reduce":
        act["algorithm"] = draw(st.sampled_from(["binomial", "linear"]))
    elif kind == "allreduce":
        act["algorithm"] = draw(st.sampled_from(
            ["doubling", "rabenseifner", "ring", "dual-pipelined"]))
        act["segments"] = draw(st.integers(1, 3))
    elif kind == "scan":
        act["inclusive"] = draw(st.booleans())
    elif kind in ("scatter", "gather"):
        act["msgs"], act["disp"] = _counts(draw, n_pes)
    elif kind == "allgather":
        act["algorithm"] = draw(st.sampled_from(["tree", "dissemination",
                                                 "pat"]))
        act["msgs"], act["disp"] = _counts(draw, n_pes)
        act["segments"] = draw(st.integers(1, 2))
    elif kind == "alltoall":
        act["nelems"] = draw(st.integers(0, 3))
    elif kind == "reduce_scatter":
        act["algorithm"] = draw(st.sampled_from(["ring", "pat"]))
        act["msgs"], act["disp"] = _counts(draw, n_pes)
        act["segments"] = draw(st.integers(1, 2))
    return act


@st.composite
def _programs(draw):
    n_pes = draw(st.integers(2, 9))
    actions = []
    for _ in range(draw(st.integers(1, 5))):
        actions.append({"kind": "traffic",
                        "seed": draw(st.integers(0, 2**31)),
                        "barrier": draw(st.booleans())})
        actions.append(draw(_collective(n_pes)))
    return {"n_pes": n_pes, "seed": draw(st.integers(0, 2**31)),
            "actions": actions}


def _traffic(ctx, act, traffic, tmp, handles):
    """This rank's share of one round of user-level traffic: a seeded
    few of put / get / put_nb / compute, then (all ranks or none) a
    barrier.  Puts land in the sender's own slot of the target's traffic
    buffer, so the bytes do not depend on who wins a race."""
    me, n = ctx.my_pe(), ctx.num_pes()
    rng = np.random.default_rng([act["seed"], me])
    mine = traffic + 8 * TRAFFIC * me
    for _ in range(int(rng.integers(0, 4))):
        what = int(rng.integers(0, 4))
        peer = int(rng.integers(0, n))
        count = int(rng.integers(1, TRAFFIC + 1))
        if what == 0:
            ctx.put(mine, tmp, count, 1, peer, "int64")
        elif what == 1:
            ctx.get(tmp, traffic + 8 * TRAFFIC * peer, count, 1, peer,
                    "int64")
        elif what == 2:
            handles.append(ctx.put_nb(mine, tmp, count, 1, peer, "int64"))
        else:
            ctx.compute(float(rng.integers(1, 700)))
    if act["barrier"]:
        ctx.barrier()


def _run_collective(ctx, act, dst, src):
    n = ctx.num_pes()
    kind, k, stride = act["kind"], act["nelems"], act["stride"]
    root, op = act["root"], act["op"]
    if kind == "broadcast":
        ctx.broadcast(dst, src, k, stride, root, "int64",
                      algorithm=act["algorithm"])
    elif kind == "reduce":
        ctx.reduce(dst, src, k, stride, root, op, "int64",
                   algorithm=act["algorithm"])
    elif kind == "allreduce":
        segments = (act["segments"]
                    if act["algorithm"] == "dual-pipelined" else None)
        ctx.allreduce(dst, src, k, stride, op, "int64",
                      algorithm=act["algorithm"], segments=segments)
    elif kind == "scan":
        ctx.scan(dst, src, k, stride, op, "int64",
                 inclusive=act["inclusive"])
    elif kind == "scatter":
        ctx.scatter(dst, src, act["msgs"], act["disp"], sum(act["msgs"]),
                    root, "int64")
    elif kind == "gather":
        ctx.gather(dst, src, act["msgs"], act["disp"], sum(act["msgs"]),
                   root, "int64")
    elif kind == "allgather":
        ctx.allgather(dst, src, act["msgs"], act["disp"], sum(act["msgs"]),
                      "int64", algorithm=act["algorithm"],
                      segments=act["segments"])
    elif kind == "alltoall":
        ctx.alltoall(dst, src, k, "int64")
    elif kind == "reduce_scatter":
        ctx.reduce_scatter(dst, src, act["msgs"], act["disp"],
                           sum(act["msgs"]), op, "int64",
                           algorithm=act["algorithm"],
                           segments=act["segments"])
    elif kind == "superstep":
        # Two collectives on disjoint halves of the buffers: the flush
        # fuses them into one schedule under shared barriers.
        half = 8 * WIDTH * n // 2
        with ctx.superstep():
            ctx.broadcast(dst, src, k, 1, root, "int64")
            ctx.allreduce(dst + half, src + half, k, 1, op, "int64")
    else:  # ibroadcast: compiled here, run at wait()
        handle = ibroadcast(ctx, dst, src, k, stride, root, I64)
        ctx.compute(37.0 * (ctx.my_pe() + 1))
        handle.wait()


def _program(case):
    def body(ctx):
        ctx.init()
        me, n = ctx.my_pe(), ctx.num_pes()
        src = ctx.malloc(8 * WIDTH * n)
        dst = ctx.malloc(8 * WIDTH * n)
        traffic = ctx.malloc(8 * TRAFFIC * n)
        tmp = ctx.private_malloc(8 * TRAFFIC)
        ctx.view(tmp, "int64", TRAFFIC)[:] = 1000 + me
        seen = hashlib.sha256()
        handles = []
        for step, act in enumerate(case["actions"]):
            if act["kind"] == "traffic":
                _traffic(ctx, act, traffic, tmp, handles)
                continue
            rng = np.random.default_rng([case["seed"], step, me])
            ctx.view(src, "int64", WIDTH * n)[:] = rng.integers(
                0, 8, WIDTH * n)
            _run_collective(ctx, act, dst, src)
            seen.update(ctx.view(dst, "int64", WIDTH * n).tobytes())
        for handle in handles:
            ctx.wait(handle)
        now = ctx.time_ns
        ctx.close()
        return seen.hexdigest(), now

    return body


@_SETTINGS
@given(case=_programs())
def test_random_programs_agree(case):
    assert_drivers_agree(case["n_pes"], _program(case))


# -- directed cases -----------------------------------------------------------


def _one(kind, **kw):
    act = {"kind": kind, "nelems": 5, "stride": 1, "root": 1, "op": "sum"}
    act.update(kw)
    return act


@pytest.mark.parametrize("n_pes", [2, 3, 8, 9])
@pytest.mark.parametrize("act", [
    # a charged copy before the first barrier and one after the last
    _one("scan", inclusive=True),
    _one("scan", inclusive=False),
    # one barrier per pipeline round
    _one("allreduce", algorithm="dual-pipelined", segments=3),
    _one("reduce_scatter", algorithm="pat", msgs=None, segments=2),
    _one("alltoall", nelems=0),
    _one("broadcast", algorithm="binomial", nelems=0),
    _one("superstep"),
    _one("ibroadcast"),
], ids=lambda act: "-".join(str(act[k]) for k in ("kind", "algorithm")
                            if k in act))
def test_each_shape_agrees_from_skewed_clocks(n_pes, act):
    if act.get("msgs", 0) is None:
        act = dict(act, msgs=(2,) * n_pes,
                   disp=tuple(range(0, 2 * n_pes, 2)))
    case = {"n_pes": n_pes, "seed": 7, "actions": [
        {"kind": "traffic", "seed": 11, "barrier": False}, act,
        {"kind": "traffic", "seed": 12, "barrier": False}, act]}
    assert_drivers_agree(n_pes, _program(case))


@pytest.mark.parametrize("barriers", [0, 1, 2])
def test_schedules_with_no_one_or_two_barriers_agree(barriers):
    n_pes = 4
    sched = ring_schedule(n_pes, barriers)

    def body(ctx):
        ctx.init()
        buf = ctx.malloc(16)
        ctx.view(buf, "int64", 2)[:] = (-1, ctx.my_pe())
        ctx.compute(100.0 * ctx.my_pe())
        execute_schedule(ctx, sched, ctx.world_group, ctx.rank,
                         {"buf": buf}, I64)
        ctx.barrier()
        got = int(ctx.view(buf, "int64", 1)[0])
        ctx.close()
        return got, ctx.pe.clock

    seen = assert_drivers_agree(n_pes, body)
    assert [got for got, _ in seen["results"]] == [3, 0, 1, 2]


def test_a_charged_copy_yields_to_an_earlier_rank():
    """A deliberately racy schedule pins the one checkpoint no builtin
    family reaches with skewed clocks: rank 0 puts (its clock moves
    ahead), then copies over the word rank 1 is about to get.  The
    engine runs rank 1's get first — its clock is smaller when rank 0
    reaches the copy's checkpoint — so rank 1 must read the old word."""
    # One barrier, then stage 0 (section 1, phase 1) of one barrier.
    rows = Rows()
    rows.add(0, 1, 1, OP_PUT, (0, 16), (0, 8), 1, 1, 1)
    rows.add(0, 1, 1, OP_COPY, (0, 0), (0, 8), 1, 1, aux=AUX_COPY)
    rows.add(1, 1, 1, OP_GET, (0, 24), (0, 0), 1, 1, 0)
    sched = Schedule.from_rows(
        "race", "test", 2, 8, rows, (skeleton(1, [(0, ())], 0),),
        buffers=(Buffer("buf", "user", 32, symmetric=True),))

    def body(ctx):
        ctx.init()
        buf = ctx.malloc(32)
        ctx.view(buf, "int64", 4)[:] = (100, 200, 0, 0)
        execute_schedule(ctx, sched, ctx.world_group, ctx.rank,
                         {"buf": buf}, I64)
        got = ctx.view(buf, "int64", 4).tolist()
        ctx.close()
        return got

    seen = assert_drivers_agree(2, body)
    assert seen["results"] == [[200, 200, 0, 0], [100, 200, 200, 100]]


def test_isa_fidelity_agrees():
    """Transfers executed as generated xBGAS loops on the functional
    cores take the same checkpoints, so they replay the same way."""
    case = {"n_pes": 3, "seed": 5, "actions": [
        {"kind": "traffic", "seed": 2, "barrier": False},
        _one("allreduce", algorithm="doubling"),
        _one("scan", inclusive=True)]}
    assert_drivers_agree(3, _program(case), fidelity="isa")


def test_single_pe_machine_agrees():
    case = {"n_pes": 1, "seed": 3, "actions": [
        _one("broadcast", algorithm="binomial", root=0),
        _one("allreduce", algorithm="doubling", root=0),
        _one("scan", inclusive=True, root=0)]}
    assert_drivers_agree(1, _program(case))


def test_team_collectives_side_by_side_then_a_whole_machine_one():
    """Two disjoint teams run their (per-rank driven) collectives
    concurrently and go straight into a whole-machine one: ranks of the
    faster team arrive at its first barrier while the other team is
    still mid-schedule."""
    n_pes = 8

    def body(ctx):
        ctx.init()
        me = ctx.my_pe()
        src = ctx.malloc(8 * 8)
        dst = ctx.malloc(8 * 8)
        ctx.view(src, "int64", 8)[:] = np.arange(8) + 10 * me
        team = Team(ctx, range(0, 3) if me < 3 else range(3, n_pes))
        team.allreduce(dst, src, 6, 1, "sum", I64)
        team.broadcast(src, dst, 6, 1, 0, I64)
        ctx.allreduce(dst, src, 8, 1, "sum", "int64")
        out = ctx.view(dst, "int64", 8).tolist()
        now = ctx.time_ns
        ctx.close()
        return out, now

    seen = assert_drivers_agree(n_pes, body)
    low = sum(np.arange(6) + 10 * r for r in range(0, 3))
    high = sum(np.arange(6) + 10 * r for r in range(3, n_pes))
    assert seen["results"][0][0][:6] == (3 * low + 5 * high).tolist()


# -- what used to keep every PE on its own thread -------------------------------


#: One of each family the random programs draw, at a fixed shape.
_EVERY_FAMILY = [
    _one("broadcast", algorithm="binomial"),
    _one("reduce", algorithm="binomial"),
    _one("allreduce", algorithm="doubling"),
    _one("allreduce", algorithm="dual-pipelined", segments=2),
    _one("scan", inclusive=True),
    _one("alltoall", nelems=2),
    _one("superstep"),
    _one("ibroadcast"),
]


def _skewed(n_pes, actions, seed=7):
    """``actions`` with seeded user traffic before each one."""
    steps = []
    for i, act in enumerate(actions):
        steps += [{"kind": "traffic", "seed": seed + i, "barrier": False},
                  act]
    return {"n_pes": n_pes, "seed": seed, "actions": steps}


@pytest.mark.parametrize("n_pes", [5, 8])
def test_concurrent_disjoint_teams_agree(n_pes):
    """Even and odd PEs each run a stream of team collectives at the
    same time, from skewed clocks, then meet in a world one."""
    def body(ctx):
        ctx.init()
        me = ctx.my_pe()
        src = ctx.malloc(8 * 8)
        dst = ctx.malloc(8 * 8)
        ctx.view(src, "int64", 8)[:] = np.arange(8) * (me + 1)
        team = Team(ctx, range(me % 2, n_pes, 2))
        for k in range(1, 4):
            ctx.compute(53.0 * ((me * k) % 5))
            team.allreduce(dst, src, k + 2, 1, "sum", I64)
            team.broadcast(src, dst, k + 1, 1, k % team.num_pes(), I64)
            team.reduce(dst, src, 4, 2, 0, "max", I64)
            team.alltoall(dst, src, 1, I64)
        ctx.allreduce(dst, src, 8, 1, "sum", "int64")
        out = ctx.view(dst, "int64", 8).tolist()
        now = ctx.time_ns
        ctx.close()
        return out, now

    assert_drivers_agree(n_pes, body)


@pytest.mark.parametrize("layout", ["blocked", "scattered"])
@pytest.mark.parametrize("n_pes", [6, 8])
def test_hierarchical_collectives_agree(n_pes, layout):
    """Hierarchical broadcast and reduce are partitioned schedules:
    their node-local stages barrier over blocks of the group."""
    node_map = (tuple(pe % 3 for pe in range(n_pes)) if layout == "scattered"
                else None)

    def body(ctx):
        ctx.init()
        me = ctx.my_pe()
        src = ctx.malloc(8 * 16)
        dst = ctx.malloc(8 * 16)
        ctx.view(src, "int64", 16)[:] = np.arange(16) + 100 * me
        seen = []
        for root in range(3):
            ctx.compute(31.0 * ((me + root) % 4))
            ctx.broadcast(dst, src, 9, 1, root, "int64",
                          algorithm="hierarchical")
            ctx.reduce(src, dst, 7, 2, n_pes - 1 - root, "sum", "int64",
                       algorithm="hierarchical")
            seen.append(ctx.view(dst, "int64", 16).tolist())
        now = ctx.time_ns
        ctx.close()
        return seen, now

    assert_drivers_agree(n_pes, body, cores_per_node=3,
                         pe_node_map=node_map)


@pytest.mark.parametrize("n_pes", [3, 8])
def test_mailbox_transport_agrees(n_pes):
    """Every family lowered onto send/receive pairs."""
    case = _skewed(n_pes, _EVERY_FAMILY)
    assert_drivers_agree(n_pes, _program(case),
                         machine_kw={"transport": "mailbox"})


@pytest.mark.parametrize("late", [0, 3, 6])
def test_a_send_into_a_full_queue_agrees(late):
    """Rank 0 sends three messages into rank 1's one-slot queue while
    rank 1 is still busy with its own gets: the sends meet backpressure,
    the one step a parked PE's own thread has to take."""
    rows = Rows()
    for i in range(3):
        rows.add(0, 0, 0, OP_SEND, b=(0, 8 * i), nelems=1, peer=1, aux=i)
        rows.add(1, 0, 0, OP_RECV, a=(0, 32 + 8 * i), nelems=1, peer=0,
                 aux=i)
    sched = Schedule.from_rows(
        "burst", "test", 2, 8, rows, (skeleton(0, (), 0),),
        buffers=(Buffer("buf", "user", 64, symmetric=True),))

    def body(ctx):
        ctx.init()
        buf = ctx.malloc(64)
        ctx.view(buf, "int64", 8)[:] = np.arange(8) + 10 * ctx.my_pe()
        if ctx.my_pe() == 1:
            for _ in range(late):
                ctx.compute(90.0)
                ctx.get(buf + 56, buf, 1, 1, 0, "int64")
        execute_schedule(ctx, sched, ctx.world_group, ctx.rank,
                         {"buf": buf}, I64)
        got = ctx.view(buf, "int64", 8).tolist()
        ctx.close()
        return got

    seen = assert_drivers_agree(2, body,
                                mailbox=MailboxParams(recv_depth=1))
    assert seen["results"][1][4:7] == [0, 1, 2]
    assert seen["stats"].mbx_stalls > 0


def test_stalls_crash_and_resilient_allreduce_agree():
    """PEs stall and crash inside a schedule; the survivors' degraded
    barrier and the rebuilt allreduce over them run the same way."""
    n_pes = 6

    def body(ctx):
        ctx.init()
        me = ctx.my_pe()
        src = ctx.malloc(8 * 8)
        dst = ctx.malloc(8 * 8)
        ctx.view(src, "int64", 8)[:] = np.arange(8) + 10 * me
        out = []
        for _ in range(4):
            ctx.compute(170.0 * ((me * 5) % n_pes))
            res = ctx.resilient_allreduce(dst, src, 8, 1, "sum", "int64")
            out.append((res.contributors, res.dead, res.restarts,
                        ctx.view(dst, "int64", 8).tolist()))
        now = ctx.time_ns
        ctx.close()
        return out, now

    # Each call takes about 2.6 us: the stalls and crashes land inside
    # schedules, where they fire before the step they stop yields.
    for at_ns in (2_000.0, 4_200.0, 7_000.0):
        stalls = tuple(stall(pe, t, 90.0 + 40.0 * pe)
                       for pe in range(n_pes)
                       for t in np.arange(900.0 + 37.0 * pe, 12_000.0, 410.0))
        plan = FaultPlan(seed=3, rules=stalls + (
            crash(2, at_ns), crash(4, at_ns + 2_500.0)))
        seen = assert_drivers_agree(n_pes, body,
                                    machine_kw={"faults": plan})
        assert seen["fired"], "no crash fired"


@pytest.mark.parametrize("transport", ["onesided", "mailbox"])
def test_drops_with_retry_agree(transport):
    n_pes = 5
    case = _skewed(n_pes, _EVERY_FAMILY, seed=19)
    plan = FaultPlan(seed=11, rules=(drop(0.2),))
    seen = assert_drivers_agree(
        n_pes, _program(case),
        machine_kw={"faults": plan, "retry": RetryConfig(),
                    "transport": transport})
    assert seen["stats"].retries > 0


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_programs())
def test_traced_random_programs_agree(case):
    """A traced run takes the same driver: the events and the span tree
    come out in the same order with the same times and ids."""
    seen = assert_drivers_agree(case["n_pes"], _program(case),
                                machine_kw={"trace": True})
    assert seen["spans"]


@pytest.mark.parametrize("n_pes", [4, 8])
def test_traced_teams_mailbox_and_hierarchy_agree(n_pes):
    case = _skewed(n_pes, _EVERY_FAMILY, seed=23)
    for machine_kw in ({"trace": True},
                       {"trace": True, "transport": "mailbox"}):
        assert_drivers_agree(n_pes, _program(case), machine_kw=machine_kw,
                             cores_per_node=2)
