"""The Object Look-aside Buffer (OLB).

Paper, section 3.2: every processing element carries an OLB mapping each
unique object ID to a remote physical resource.  When a remote
instruction executes, the upper 64 bits of the extended address (the
extended register) select the object; object ID 0 means "the local PE"
and bypasses the OLB entirely.

This reproduction follows the xbrtime convention: object ID ``k`` (k>0)
maps to processing element ``k - 1``, a mapping installed by the runtime
at ``xbrtime_init`` — but arbitrary remappings are supported for the
location-aware experiments (paper section 7).
"""

from __future__ import annotations

from ..errors import OlbMissError

__all__ = ["ObjectLookasideBuffer", "OLB_LOOKUP_NS"]

#: Object ID reserved for "the local processing element".
LOCAL_OBJECT_ID = 0

#: Cost of one OLB lookup, charged per remote operation.
OLB_LOOKUP_NS = 2.0


class ObjectLookasideBuffer:
    """Object-ID → PE translation table with hit/miss accounting."""

    def __init__(self, owner_pe: int, lookup_ns: float = OLB_LOOKUP_NS):
        self.owner_pe = owner_pe
        self.lookup_ns = lookup_ns
        self._map: dict[int, int] = {}
        self.lookups = 0
        self.misses = 0

    def install(self, object_id: int, pe: int) -> None:
        """Map ``object_id`` to processing element ``pe``."""
        if object_id == LOCAL_OBJECT_ID:
            raise OlbMissError("object ID 0 is reserved for the local PE")
        if object_id < 0 or pe < 0:
            raise OlbMissError("object IDs and PEs must be non-negative")
        self._map[object_id] = pe

    def install_default(self, n_pes: int) -> None:
        """The runtime's standard mapping: object ID k → PE k-1."""
        for k in range(1, n_pes + 1):
            self._map[k] = k - 1

    def is_local(self, object_id: int) -> bool:
        return object_id == LOCAL_OBJECT_ID

    def translate(self, object_id: int) -> int:
        """Resolve ``object_id`` to a PE; raises :class:`OlbMissError`."""
        self.lookups += 1
        try:
            return self._map[object_id]
        except KeyError:
            self.misses += 1
            raise OlbMissError(
                f"PE {self.owner_pe}: no OLB mapping for object ID "
                f"{object_id:#x}"
            ) from None

    def object_id_for(self, pe: int) -> int:
        """The object ID a program should place in an extended register to
        address ``pe`` (0 when ``pe`` is the OLB's owner)."""
        if pe == self.owner_pe:
            return LOCAL_OBJECT_ID
        for oid, target in self._map.items():
            if target == pe:
                return oid
        raise OlbMissError(f"PE {self.owner_pe}: no object ID maps to PE {pe}")

    def __len__(self) -> int:
        return len(self._map)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OLB(pe={self.owner_pe}, entries={len(self._map)})"
