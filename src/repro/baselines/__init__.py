"""The OpenSHMEM API surface the paper compares against (section 4.7).

* :mod:`~repro.baselines.shmem` — an OpenSHMEM-1.4-style API surface
  (size-suffixed calls, ``*_to_all`` reductions, collect/fcollect,
  active-set addressing) over the library's own collectives.

Section 3.1's other comparator, MPI-class two-sided messaging, needs no
module of its own: an MPI-style collective is the compiled schedule run
on ``Machine(config.with_transport("mpi"), transport="mailbox")``, and
the ``transport`` sweep record's ``two_sided`` table holds the ordering.
"""

from . import shmem

__all__ = ["shmem"]
