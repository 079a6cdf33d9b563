"""The paper's figures and ablations as model-time sweep records.

Importing this module registers them in :mod:`repro.bench.sweeps`:
``fig4`` and ``fig5`` (Figures 4 and 5; the harness's shape checks are
their rules) and the ablations of EXPERIMENTS.md, whose claims are
their rules — ``transport`` (A2 and its two-sided table, plus the M1
micro-suite), ``unroll`` (A3), ``topology`` (A4), ``locality`` (A6),
``amo`` (A7) and ``allreduce_scan`` (A8).  Ablations time the undilated
``ctx.pe.clock``.  Rules judge only the points a document holds.
"""

from __future__ import annotations

from dataclasses import replace

from ..collectives.binomial import tree_stages
from ..params import MachineConfig
from ..runtime.context import Machine
from .gups import GupsParams, run_gups
from .harness import (
    PE_COUNTS,
    SweepPoint,
    check_figure4_shape,
    check_figure5_shape,
)
from .micro import get_latency, message_rate, put_bandwidth, put_latency
from .nas_is import IsParams, run_is
from .sweeps import SWEEPS, Axis, Sweep, Table

__all__ = ["FIG4_PARAMS", "FIG5_PARAMS", "fig4_point", "fig5_point"]


# -- Figures 4 and 5 -------------------------------------------------------

FIG4_PARAMS = GupsParams(updates_per_pe=1024)
FIG5_PARAMS = IsParams(problem_class="B-scaled")


def _gups(n_pes: int, params: GupsParams) -> dict:
    res = run_gups(MachineConfig(n_pes=n_pes), params)
    return {"sim_ns": round(res.sim_seconds * 1e9, 3),
            "mops_total": res.mops_total, "mops_per_pe": res.mops_per_pe,
            "errors": res.errors, "verified": res.passed}


def fig4_point(n_pes: int) -> dict:
    """One Figure 4 point: GUPs at ``n_pes`` PEs."""
    return {"n_pes": n_pes, **_gups(n_pes, FIG4_PARAMS)}


def fig5_point(n_pes: int) -> dict:
    """One Figure 5 point: NAS IS at ``n_pes`` PEs."""
    res = run_is(MachineConfig(n_pes=n_pes), FIG5_PARAMS)
    return {"n_pes": n_pes, "sim_ns": round(res.sim_seconds * 1e9, 3),
            "mops_total": res.mops_total, "mops_per_pe": res.mops_per_pe,
            "verified": bool(res.partial_verified and res.full_verified)}


def _shape(check):
    """A figure's shape check as the rule over its committed points."""
    return lambda doc: check([
        SweepPoint(p["n_pes"], p["mops_total"], p["mops_per_pe"],
                   p["verified"]) for p in doc["points"]])


# -- the ablations: one timed run, claims over present points --------------


def _config(n_pes: int = 8, **kw) -> MachineConfig:
    """16 MiB per PE: every payload fits; memory sizes are not timed."""
    return MachineConfig(n_pes=n_pes, memory_bytes_per_pe=16 << 20,
                         symmetric_heap_bytes=8 << 20,
                         collective_scratch_bytes=2 << 20, **kw)


def _timed(config: MachineConfig, op, nbytes: int = 8, *, sync: bool = True,
           private: bool = True, transport: str = "onesided"
           ) -> tuple[list[float], Machine]:
    """Per-PE ns of ``op(ctx, a, b)`` on a fresh machine (schedules on
    ``transport``), and the machine.  ``a`` is a symmetric buffer, ``b``
    a private one (unless not ``private``); the clock runs from a barrier
    to after ``op``, and through a closing barrier if ``sync`` (delivered
    time)."""
    def body(ctx):
        ctx.init()
        a = ctx.malloc(nbytes)
        b = ctx.private_malloc(nbytes) if private else ctx.malloc(nbytes)
        ctx.barrier()
        t0 = ctx.pe.clock
        op(ctx, a, b)
        if sync:
            ctx.barrier()
        dt = ctx.pe.clock - t0
        ctx.close()
        return dt

    machine = Machine(config, transport=transport)
    return machine.run(body), machine


def _put(nelems: int, pe: int = 1):
    def op(ctx, dest, src):
        if ctx.my_pe() == 0:
            ctx.put(dest, src, nelems, 1, pe, "long")
    return op


def _broadcast(nelems: int, algorithm: str = "binomial"):
    def op(ctx, dest, src):
        ctx.broadcast(dest, src, nelems, 1, 0, "long", algorithm=algorithm)
    return op


def _crossings(config: MachineConfig) -> int:
    """Edges of the recursive-halving tree that cross a node boundary."""
    return sum(config.node_of(a) != config.node_of(b)
               for stage in tree_stages(config.n_pes, "halving")
               for a, b in stage)


def _by(points: list[dict], coord: str) -> dict:
    return {p[coord]: p for p in points}


def _falling(values: list[float], strict: bool = True) -> bool:
    return all(a > b if strict else a >= b
               for a, b in zip(values, values[1:]))


def _unmet(claims: dict[str, bool]) -> list[str]:
    return [claim for claim, holds in claims.items() if not holds]


# -- A2 transport and M1 micro-suite ---------------------------------------

TRANSPORTS = ("xbgas", "rdma", "mpi")
MICRO_SIZES = (8, 512, 32768, 262144)


def transport_point(nelems: int) -> dict:
    """Delivered put and broadcast of ``nelems`` longs per transport."""
    def cost(op, transport):
        cfg = _config(cores_per_node=1).with_transport(transport)
        return max(_timed(cfg, op, 8 * nelems)[0])

    return {"nelems": nelems,
            "put_ns": {t: cost(_put(nelems), t) for t in TRANSPORTS},
            "broadcast_ns": {t: cost(_broadcast(nelems), t)
                             for t in TRANSPORTS}}


def two_sided_point(collective: str, nelems: int) -> dict:
    """One compiled collective of ``nelems`` longs, one-sided xBGAS
    against two-sided MPI: the mailbox transport under MPI costs."""
    op = (_broadcast(nelems) if collective == "broadcast" else
          lambda ctx, dest, src: ctx.allreduce(dest, src, nelems, 1))

    def cost(costs, transport):
        cfg = _config(cores_per_node=1).with_transport(costs)
        return max(_timed(cfg, op, 8 * nelems, private=False,
                          transport=transport)[0])

    return {"collective": collective, "nelems": nelems,
            "xbgas_ns": cost("xbgas", "onesided"),
            "mpi_ns": cost("mpi", "mailbox")}


def micro_point(transport: str) -> dict:
    """The OSB point-to-point suite on two single-core nodes."""
    cfg = _config(2, cores_per_node=1).with_transport(transport)
    return {"transport": transport,
            **{f"{kind}_us": {str(r.nbytes): r.latency_us
                              for r in latency(MICRO_SIZES, 16, cfg)}
               for kind, latency in (("put", put_latency),
                                     ("get", get_latency))},
            "bandwidth_mbps": put_bandwidth(MICRO_SIZES[-1:], 4, 8,
                                            cfg)[0].bandwidth_mbps,
            "rate_mops": message_rate(128, cfg).rate_mops}


def _transport_rules(doc: dict) -> list[str]:
    """§3.1: xBGAS < RDMA < MPI everywhere, and one-sided xBGAS beats
    the two-sided collectives; a get costs more than a put."""
    claims = {f"{p['nelems']}-element {kind}: xbgas < rdma < mpi":
              _falling([p[f"{kind}_ns"][t] for t in reversed(TRANSPORTS)])
              for p in doc["points"] for kind in ("put", "broadcast")}
    micro = doc["micro"]  # in TRANSPORTS order, as the grid check holds
    claims.update({f"{m['transport']} {size} B: get slower than put":
                   m["get_us"][size] > put
                   for m in micro for size, put in m["put_us"].items()})
    claims["put bandwidth: xbgas >= rdma >= mpi"] = _falling(
        [m["bandwidth_mbps"] for m in micro], strict=False)
    claims["message rate: xbgas > rdma > mpi"] = _falling(
        [m["rate_mops"] for m in micro])
    claims.update({f"{p['nelems']}-element {p['collective']}: xbgas "
                   f"one-sided < mpi two-sided": p["xbgas_ns"] < p["mpi_ns"]
                   for p in doc["two_sided"]})
    return _unmet(claims)


# -- A3 unrolling ----------------------------------------------------------

UNROLL_NELEMS, UNROLL_ISA_NELEMS = 4096, 1024


def unroll_point(unroll_factor: int) -> dict:
    """A local put on PE 0 with the loop unrolled ``unroll_factor`` times
    (1: the rolled loop): model-path ns and ISA-path instructions."""
    cfg = _config(2, unroll_factor=unroll_factor)
    model, _ = _timed(cfg, _put(UNROLL_NELEMS, pe=0), 8 * UNROLL_NELEMS,
                      sync=False)
    _, isa = _timed(cfg.with_(fidelity="isa"), _put(UNROLL_ISA_NELEMS, pe=0),
                    8 * UNROLL_ISA_NELEMS, sync=False)
    return {"unroll_factor": unroll_factor, "put_ns": model[0],
            "isa_instructions": int(isa.stats.instructions_executed)}


def _unroll_rules(doc: dict) -> list[str]:
    """§3.3: unrolling beats the rolled loop; a wider one is no slower."""
    by = _by(doc["points"], "unroll_factor")
    rolled = by.pop(1, None)
    claims = {}
    for u, p in by.items():
        if rolled:
            claims[f"U={u} put faster than rolled"] = (
                p["put_ns"] < rolled["put_ns"])
            claims[f"U={u} executes fewer instructions than rolled"] = (
                p["isa_instructions"] < rolled["isa_instructions"])
    if {2, 8} <= by.keys():
        claims["U=8 no slower than U=2"] = by[8]["put_ns"] <= by[2]["put_ns"]
    return _unmet(claims)


# -- A4 topology -----------------------------------------------------------


def topology_point(topology: str) -> dict:
    """8 KiB binomial broadcast over 8 single-core nodes."""
    cfg = _config(cores_per_node=1, topology=topology)
    return {"topology": topology,
            "broadcast_ns": max(_timed(cfg, _broadcast(1024), 8 * 1024)[0])}


def halving_point(cores_per_node: int) -> dict:
    """4 KiB broadcast over 8 PEs packed ``cores_per_node`` to a node."""
    cfg = _config(cores_per_node=cores_per_node)
    return {"cores_per_node": cores_per_node, "nodes": cfg.n_nodes,
            "broadcast_ns": max(_timed(cfg, _broadcast(512), 8 * 512)[0]),
            "inter_node_edges": _crossings(cfg)}


def _topology_rules(doc: dict) -> list[str]:
    """§4.2: the tree performs on every topology; with sequential ranks
    recursive halving crosses nodes - 1 boundaries, the fewest a tree
    spanning every node can."""
    ns = {p["topology"]: p["broadcast_ns"] for p in doc["points"]}
    base = ns.get("fully-connected", float("inf"))
    claims = {f"{t} under 3x fully-connected": t_ns < 3 * base
              for t, t_ns in ns.items()}
    if {"hypercube", "ring"} <= ns.keys():
        claims["hypercube no slower than ring"] = ns["hypercube"] <= ns["ring"]
    claims.update({f"{p['nodes']} nodes: {p['inter_node_edges']} crossing "
                   f"edges, not {p['nodes'] - 1}":
                   p["inter_node_edges"] == p["nodes"] - 1
                   for p in doc["halving"]})
    return _unmet(claims)


# -- A6 locality -----------------------------------------------------------

LOCALITY_NODES = 4


def locality_point(placement: str) -> dict:
    """4 KiB broadcast over 8 PEs on 4 nodes, flat and hierarchical;
    ``scattered`` deals ranks round-robin over the nodes."""
    pe_map = (tuple(i % LOCALITY_NODES for i in range(8))
              if placement == "scattered" else None)
    cfg = _config(cores_per_node=8 // LOCALITY_NODES, pe_node_map=pe_map)
    return {"placement": placement,
            "makespans_ns": {a: max(_timed(cfg, _broadcast(512, a),
                                           8 * 512)[0])
                             for a in ("binomial", "hierarchical")},
            "flat_inter_node_edges": _crossings(cfg)}


def _locality_rules(doc: dict) -> list[str]:
    """§7: sequential ranks are already locality-friendly; scattered ones
    hurt the flat tree, and the hierarchical tree wins there."""
    by = _by(doc["points"], "placement")
    seq, scat = by.get("sequential"), by.get("scattered")
    claims = {}
    if seq:
        ms = seq["makespans_ns"]
        claims["sequential: hierarchical within 1.3x of flat"] = (
            ms["hierarchical"] < 1.3 * ms["binomial"])
        claims["sequential: flat tree at the minimum crossings"] = (
            seq["flat_inter_node_edges"] <= LOCALITY_NODES - 1)
    if scat:
        ms = scat["makespans_ns"]
        claims["scattered: hierarchical beats flat"] = (
            ms["hierarchical"] < ms["binomial"])
    if seq and scat:
        claims["scattering slows the flat tree"] = (
            scat["makespans_ns"]["binomial"]
            > seq["makespans_ns"]["binomial"])
        claims["scattering adds crossing edges"] = (
            scat["flat_inter_node_edges"] > seq["flat_inter_node_edges"])
    return _unmet(claims)


# -- A7 remote atomics -----------------------------------------------------

AMO_OPS = ("add", "xor", "and", "or", "swap", "min", "max")
AMO_REPEATS = 16


def amo_point(idiom: str) -> dict:
    """Figure 4's GUPs at 8 PEs, remote update by ``idiom``."""
    params = replace(FIG4_PARAMS, use_amo=idiom == "eamoxor.d")
    return {"idiom": idiom, **_gups(8, params)}


def amo_latency_point(op: str) -> dict:
    """One AMO op from PE 0 to PE 1, averaged over 16 issues."""
    def issue(ctx, cell, _):
        if ctx.my_pe() == 0:
            for _ in range(AMO_REPEATS):
                ctx.amo(cell, 1, 1, op, "uint64")

    dts, _ = _timed(_config(2), issue, sync=False)
    return {"op": op, "latency_ns": dts[0] / AMO_REPEATS}


def _amo_rules(doc: dict) -> list[str]:
    """The atomic loses no update and is no slower; all ops share a path."""
    by = _by(doc["points"], "idiom")
    amo, gmp = by.get("eamoxor.d"), by.get("get-modify-put")
    ns = [p["latency_ns"] for p in doc["op_latency"]]
    claims = {"AMO ops within 1.2x of each other": max(ns) < 1.2 * min(ns)}
    if amo:
        claims["eamoxor.d GUPs verifies with 0 errors"] = amo["errors"] == 0
    if amo and gmp:
        claims["eamoxor.d GUPs no slower than get-modify-put"] = (
            amo["mops_total"] >= gmp["mops_total"])
    return _unmet(claims)


# -- A8 allreduce and scan -------------------------------------------------

ALLREDUCE_WAYS = ("doubling", "rabenseifner", "composed")


def allreduce_point(nelems: int) -> dict:
    """Allreduce of ``nelems`` longs on 8 single-core nodes, three ways:
    makespan, and barriers over the whole run."""
    def op(way):
        def run(ctx, src, dest):
            if way == "composed":
                ctx.reduce(dest, src, nelems, 1, 0, "sum", "long")
                ctx.broadcast(dest, dest, nelems, 1, 0, "long")
            else:
                ctx.allreduce(dest, src, nelems, 1, "sum", "long",
                              algorithm=way)
        return run

    runs = {way: _timed(_config(cores_per_node=1), op(way), 8 * nelems,
                        sync=False, private=False) for way in ALLREDUCE_WAYS}
    return {"nelems": nelems,
            "makespans_ns": {w: max(dts) for w, (dts, _) in runs.items()},
            "barriers": {w: int(m.stats.barriers)
                         for w, (_, m) in runs.items()}}


def scan_point(n_pes: int) -> dict:
    """Inclusive sum scan of 16 longs over ``n_pes`` single-core nodes."""
    dts, _ = _timed(_config(n_pes, cores_per_node=1),
                    lambda ctx, src, dest: ctx.scan(dest, src, 16, 1, "sum",
                                                    "long"),
                    8 * 16, sync=False)
    return {"n_pes": n_pes, "scan_ns": max(dts)}


def _allreduce_rules(doc: dict) -> list[str]:
    """Doubling synchronises less than reduce + broadcast; Rabenseifner
    wins the largest payload; the scan grows sub-quadratically."""
    claims = {f"{p['nelems']} elements: doubling barriers < composed":
              p["barriers"]["doubling"] < p["barriers"]["composed"]
              for p in doc["points"]}
    big = max(doc["points"], key=lambda p: p["nelems"])["makespans_ns"]
    claims["Rabenseifner beats doubling at the largest payload"] = (
        big["rabenseifner"] < big["doubling"])
    scan = {p["n_pes"]: p["scan_ns"] for p in doc["scan"]}
    if {2, 16} <= scan.keys():
        claims["16-PE scan under 12x the 2-PE scan"] = scan[16] < 12 * scan[2]
    return _unmet(claims)


# -- the records -----------------------------------------------------------

_NS = ",.0f"


def _figure(name: str, bench: str, params: dict, title: str, point,
            unit: str, rule, *extra) -> Sweep:
    columns = (("PEs", "n_pes", ""), (f"{unit} total", "mops_total", ".2f"),
               (f"{unit}/PE", "mops_per_pe", ".2f"),
               ("sim ns", "sim_ns", _NS), *extra, ("verified", "verified", ""))
    return Sweep(name, f"BENCH_{name}.json", bench, "sim",
                 meta={"config": params},
                 tables=(Table("points", title,
                               (Axis("n_pes", PE_COUNTS, "pe_counts"),),
                               point, columns),),
                 rules=_shape(rule), fresh={"n_pes": 1})


def _ablation(name: str, config: dict, tables: tuple, rules, fresh: dict,
              **meta) -> Sweep:
    return Sweep(name, f"BENCH_{name}.json", f"ablation-{name}", "sim",
                 meta={"config": config, **meta},
                 tables=tuple(Table(*t) for t in tables), rules=rules,
                 fresh=fresh)


SWEEPS.update({s.name: s for s in (
    _figure("fig4", "fig4-gups",
            {"log2_table_size": FIG4_PARAMS.log2_table_size,
             "updates_per_pe": FIG4_PARAMS.updates_per_pe,
             "verify": FIG4_PARAMS.verify},
            "Figure 4: GUPs, MOPS = million updates/s (2^21-word table, "
            "1024 updates/PE)", fig4_point, "MOPS",
            check_figure4_shape, ("errors", "errors", "")),
    _figure("fig5", "fig5-nas-is",
            {"problem_class": FIG5_PARAMS.problem_class,
             "total_keys": FIG5_PARAMS.total_keys,
             "max_key": FIG5_PARAMS.max_key,
             "iterations": FIG5_PARAMS.max_iterations},
            "Figure 5: NAS IS, Mop/s = million keys ranked/s "
            "(class B-scaled)", fig5_point, "Mop/s", check_figure5_shape),
    _ablation(
        "transport", {"n_pes": 8, "cores_per_node": 1, "dtype": "int64"},
        (("points", "A2: delivered put and broadcast (ns) by transport, "
                    "8 single-core nodes",
          (Axis("nelems", (1, 64, 256, 4096), "sizes"),), transport_point,
          (("elems", "nelems", ""),
           *((f"{kind} {t}", f"{key}.{t}", _NS)
             for kind, key in (("put", "put_ns"), ("bcast", "broadcast_ns"))
             for t in TRANSPORTS))),
         ("micro", "M1: point-to-point micro-suite, 2 single-core nodes "
                   "(latency µs by bytes)",
          (Axis("transport", TRANSPORTS, "transports"),), micro_point,
          (("transport", "transport", ""),
           *((f"{kind} {n} B", f"{kind}_us.{n}", ".3f")
             for kind in ("put", "get") for n in MICRO_SIZES),
           ("256 KiB put MB/s", "bandwidth_mbps", ",.0f"),
           ("8 B put Mops/s", "rate_mops", ".2f"))),
         ("two_sided", "A2: compiled collective (ns), one-sided xBGAS vs "
                       "two-sided MPI (mailbox transport), 8 single-core "
                       "nodes",
          (Axis("collective", ("broadcast", "allreduce"), None),
           Axis("nelems", (1, 64, 256, 4096), None)), two_sided_point,
          (("collective", "collective", ""), ("elems", "nelems", ""),
           ("xbgas one-sided", "xbgas_ns", _NS),
           ("mpi two-sided", "mpi_ns", _NS)))),
        _transport_rules, {"nelems": 256},
        micro={"n_pes": 2, "latency_iterations": 16, "bandwidth_window": 8,
               "rate_iterations": 128}),
    _ablation(
        "unroll", {"n_pes": 2, "unroll_threshold": 8,
                   "model_nelems": UNROLL_NELEMS,
                   "isa_nelems": UNROLL_ISA_NELEMS},
        (("points", f"A3: local put by unroll factor ({UNROLL_NELEMS}-element "
                    f"model path, {UNROLL_ISA_NELEMS}-element ISA path)",
          (Axis("unroll_factor", (1, 2, 4, 8), "unroll_factors"),),
          unroll_point,
          (("U", "unroll_factor", ""), ("model ns", "put_ns", _NS),
           ("ISA instructions", "isa_instructions", ","))),),
        _unroll_rules, {"unroll_factor": 4}),
    _ablation(
        "topology", {"n_pes": 8, "algorithm": "binomial"},
        (("points", "A4: 8 KiB binomial broadcast (ns) by topology, "
                    "8 single-core nodes",
          (Axis("topology", ("fully-connected", "hypercube", "torus",
                             "ring"), "topologies"),), topology_point,
          (("topology", "topology", ""),
           ("broadcast ns", "broadcast_ns", _NS))),
         ("halving", "A4: 4 KiB broadcast, 8 PEs with sequential ranks: "
                     "tree edges crossing a node boundary",
          (Axis("cores_per_node", (1, 2, 4), "cores_per_node"),),
          halving_point,
          (("cores/node", "cores_per_node", ""), ("nodes", "nodes", ""),
           ("broadcast ns", "broadcast_ns", _NS),
           ("crossing edges", "inter_node_edges", "")))),
        _topology_rules, {"topology": "torus"}),
    _ablation(
        "locality", {"n_pes": 8, "nodes": LOCALITY_NODES, "nbytes": 8 * 512},
        (("points", "A6: 4 KiB broadcast (ns), 8 PEs on 4 nodes",
          (Axis("placement", ("sequential", "scattered"), "placements"),),
          locality_point,
          (("placement", "placement", ""),
           ("flat binomial", "makespans_ns.binomial", _NS),
           ("hierarchical", "makespans_ns.hierarchical", _NS),
           ("flat crossing edges", "flat_inter_node_edges", ""))),),
        _locality_rules, {"placement": "scattered"}),
    _ablation(
        "amo", {"n_pes": 8, "updates_per_pe": FIG4_PARAMS.updates_per_pe,
                "latency_repeats": AMO_REPEATS},
        (("points", "A7: GUPs at 8 PEs by remote-update idiom",
          (Axis("idiom", ("get-modify-put", "eamoxor.d"), "idioms"),),
          amo_point,
          (("idiom", "idiom", ""), ("MOPS total", "mops_total", ".2f"),
           ("errors", "errors", ""), ("verified", "verified", ""))),
         ("op_latency", "A7: AMO latency (ns), PE 0 to PE 1",
          (Axis("op", AMO_OPS, "ops"),), amo_latency_point,
          (("op", "op", ""), ("latency ns", "latency_ns", ".1f")))),
        _amo_rules, {"idiom": "eamoxor.d"}),
    _ablation(
        "allreduce_scan", {"n_pes": 8, "cores_per_node": 1,
                           "dtype": "int64", "scan_nelems": 16},
        (("points", "A8: allreduce on 8 single-core nodes, ns (barriers "
                    "in the run)",
          (Axis("nelems", (8, 512, 8192, 65536), "sizes"),), allreduce_point,
          (("elems", "nelems", ""),
           *((w, f"makespans_ns.{w}", _NS) for w in ALLREDUCE_WAYS),
           *((f"({w})", f"barriers.{w}", "") for w in ALLREDUCE_WAYS))),
         ("scan", "A8: inclusive sum scan of 128 B (ns) by PE count",
          (Axis("n_pes", (2, 4, 8, 16), "scan_pe_counts"),), scan_point,
          (("PEs", "n_pes", ""), ("scan ns", "scan_ns", _NS)))),
        _allreduce_rules, {"nelems": 512}),
)})
