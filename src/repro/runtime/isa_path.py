"""ISA-fidelity transfer path: run the generated xBGAS loops for real.

In ``fidelity="isa"`` the runtime does what the paper's C library does —
it translates each get/put into an xBGAS assembly loop (unrolled above
the configured threshold, section 3.3) and *executes* it on the PE's
functional core.  Remote elements each cost one network operation, which
is the true per-element behaviour of remote load/store instructions;
the default ``model`` fidelity instead aggregates a transfer into one
bulk message.  ``benchmarks/bench_isa.py`` quantifies the difference.

Calling convention of the generated loops::

    a0 = source address        e10 = source object ID (0 = local)
    a1 = destination address   e11 = destination object ID (0 = local)
    a2 = element count
    a3 = stride in bytes

The same program text serves put and get: only the object IDs differ.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import SimulationError
from ..isa.assembler import assemble
from ..isa.cpu import Cpu

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .context import Machine

__all__ = ["IsaTransferPath"]

_MNEMONIC = {1: ("elb", "esb"), 2: ("elh", "esh"), 4: ("elw", "esw"),
             8: ("eld", "esd")}


def _copy_body(elem_bytes: int) -> str:
    """The per-element load/store pair(s) for one element width."""
    if elem_bytes == 16:
        # long double: two 64-bit halves per element.
        return ("    eld t0, 0(a0)\n    esd t0, 0(a1)\n"
                "    eld t0, 8(a0)\n    esd t0, 8(a1)\n")
    ld, st = _MNEMONIC[elem_bytes]
    return f"    {ld} t0, 0(a0)\n    {st} t0, 0(a1)\n"


def _gen_program(elem_bytes: int, unroll: int) -> str:
    """Generate the strided copy loop (optionally unrolled)."""
    body = _copy_body(elem_bytes)
    bump = "    add a0, a0, a3\n    add a1, a1, a3\n"
    if unroll <= 1:
        return (
            "    beqz a2, done\n"
            "loop:\n"
            + body + bump +
            "    addi a2, a2, -1\n"
            "    bnez a2, loop\n"
            "done:\n"
            "    halt\n"
        )
    # Unrolled main loop plus a scalar remainder loop.
    block = (body + bump) * unroll
    return (
        f"    andi t2, a2, {unroll - 1}\n"
        "    sub t3, a2, t2\n"
        "    beqz t3, rem\n"
        "main:\n"
        + block +
        f"    addi t3, t3, -{unroll}\n"
        "    bnez t3, main\n"
        "rem:\n"
        "    beqz t2, done\n"
        "rloop:\n"
        + body + bump +
        "    addi t2, t2, -1\n"
        "    bnez t2, rloop\n"
        "done:\n"
        "    halt\n"
    )


class _RemotePort:
    """Per-PE network/remote-memory port for the functional core."""

    def __init__(self, machine: "Machine", rank: int):
        self.machine = machine
        self.rank = rank
        #: Absolute simulated time when the current program started.
        self.t_base = 0.0
        self.cpu: Cpu | None = None

    def _now(self) -> float:
        assert self.cpu is not None
        return self.t_base + self.cpu.ns_elapsed

    def remote_load(self, target_pe: int, addr: int, nbytes: int,
                    signed: bool) -> tuple[int, float]:
        m = self.machine
        m.stats.remote_gets += 1
        t_now = self._now()
        rcost = m.hierarchy_of(target_pe).access(addr, nbytes, False,
                                                 use_tlb=False)
        # Per-instruction remote accesses have no software retry layer;
        # message-fault injection applies only to the model-fidelity
        # transfer engine.
        t_complete, _ = m.network.fetch(t_now, self.rank, target_pe, nbytes,
                                        faultable=False)
        value = m.memories[target_pe].load(addr, nbytes, signed)
        return value, (t_complete - t_now) + rcost

    def remote_store(self, target_pe: int, addr: int, nbytes: int,
                     value: int) -> float:
        m = self.machine
        m.stats.remote_puts += 1
        t_now = self._now()
        t_free, t_delivered, _ = m.network.send(
            t_now, self.rank, target_pe, nbytes, faultable=False)
        wcost = m.hierarchy_of(target_pe).access(addr, nbytes, True,
                                                 use_tlb=False)
        m.network.note_delivery(t_delivered + wcost)
        m.memories[target_pe].store(addr, nbytes, value)
        return t_free - t_now

    def remote_amo(self, target_pe: int, addr: int, op: str,
                   value: int) -> tuple[int, float]:
        from ..isa.cpu import amo_apply

        m = self.machine
        t_now = self._now()
        wcost = m.hierarchy_of(target_pe).access(addr, 8, True, use_tlb=False)
        t_complete, _ = m.network.fetch(t_now, self.rank, target_pe, 8,
                                        faultable=False)
        mem = m.memories[target_pe]
        old = mem.load(addr, 8)
        mem.store(addr, 8, amo_apply(op, old, value))
        return old, (t_complete - t_now) + wcost


class IsaTransferPath:
    """Owns the per-PE cores and the generated-program cache."""

    def __init__(self, machine: "Machine"):
        self.machine = machine
        cfg = machine.config
        self.ports = [_RemotePort(machine, r) for r in range(cfg.n_pes)]
        self.cpus = []
        for r in range(cfg.n_pes):
            pipe = None
            if cfg.pipeline:
                from ..isa.pipeline import PipelineModel

                pipe = PipelineModel(cycle_ns=cfg.cycle_ns)
            cpu = Cpu(
                pe=r,
                memory=machine.memories[r],
                memsys=machine.hierarchy_of(r),
                olb=machine.olbs[r],
                remote_port=self.ports[r],
                cycle_ns=cfg.cycle_ns,
                pipeline=pipe,
            )
            self.ports[r].cpu = cpu
            self.cpus.append(cpu)
        #: (elem_bytes, unrolled) -> code address; same on every PE.
        self._programs: dict[tuple[int, bool], int] = {}
        self._code_ptr = 0

    def _install(self, key: tuple, prog) -> int:
        """Write an assembled program into every PE's code region."""
        addr = self._code_ptr
        nbytes = 4 * len(prog.words)
        from .context import CODE_REGION_BYTES

        if addr + nbytes > CODE_REGION_BYTES:
            raise SimulationError("code region exhausted")
        self._code_ptr += (nbytes + 15) & ~15
        for cpu in self.cpus:
            pc = addr
            for w in prog.words:
                cpu.memory.store(pc, 4, w)
                pc += 4
        self._programs[key] = addr
        return addr

    def _program_addr(self, elem_bytes: int, unrolled: bool) -> int:
        key = (elem_bytes, unrolled)
        addr = self._programs.get(key)
        if addr is not None:
            return addr
        unroll = self.machine.config.unroll_factor if unrolled else 1
        return self._install(key, assemble(_gen_program(elem_bytes, unroll)))

    def amo(self, rank: int, addr: int, value: int, target: int,
            op: str) -> int:
        """Execute one ``eamoOP.d`` on PE ``rank``'s core; returns the
        old memory value."""
        key = (("amo", op), False)
        code_addr = self._programs.get(key)
        if code_addr is None:
            prog = assemble(f"    eamo{op}.d a2, a0, a1\n    halt\n")
            code_addr = self._install(key, prog)
        cpu = self.cpus[rank]
        pe = self.machine.engine.pes[rank]
        obj = 0 if target == rank else self.machine.olbs[rank].object_id_for(target)
        cpu.regs.write_x(10, addr)
        cpu.regs.write_x(11, value)
        cpu.regs.write_e(10, obj)
        cpu.pc = code_addr
        cpu.halted = None
        cpu.ns_elapsed = 0.0
        self.ports[rank].t_base = pe.clock
        reason = cpu.run(max_instructions=8)
        if reason is not reason.EBREAK:
            raise SimulationError(
                f"PE {rank}: generated AMO did not halt ({reason})"
            )
        pe.advance(cpu.ns_elapsed)
        self.machine.stats.instructions_executed += 2
        return cpu.regs.read_x(12)

    def transfer(self, rank: int, dest: int, src: int, nelems: int,
                 stride: int, target: int, elem_bytes: int, *,
                 is_put: bool) -> None:
        """Execute a strided copy loop on PE ``rank``'s core."""
        cfg = self.machine.config
        unrolled = nelems > cfg.unroll_threshold
        addr = self._program_addr(elem_bytes, unrolled)
        cpu = self.cpus[rank]
        port = self.ports[rank]
        pe = self.machine.engine.pes[rank]
        obj = 0 if target == rank else self.machine.olbs[rank].object_id_for(target)
        regs = cpu.regs
        regs.write_x(10, src)
        regs.write_x(11, dest)
        regs.write_x(12, nelems)
        regs.write_x(13, stride * elem_bytes)
        regs.write_e(10, 0 if is_put else obj)
        regs.write_e(11, obj if is_put else 0)
        cpu.pc = addr
        cpu.halted = None
        cpu.ns_elapsed = 0.0
        retired_before = cpu.instructions_retired
        port.t_base = pe.clock
        # Generous budget: ~16 instructions per element plus slack.
        reason = cpu.run(max_instructions=16 * max(nelems, 1) + 64)
        if reason is not reason.EBREAK:
            raise SimulationError(
                f"PE {rank}: generated transfer loop did not halt ({reason})"
            )
        pe.advance(cpu.ns_elapsed)
        self.machine.stats.instructions_executed += (
            cpu.instructions_retired - retired_before
        )
