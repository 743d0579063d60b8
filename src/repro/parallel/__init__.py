"""Row blocks and per-block random streams of the MCMC inverse.

The reference MCMCMI implementation in the paper is a hybrid MPI+OpenMP code
run with 2 MPI processes and 4 OpenMP threads per process.  That layout is how
the authors scheduled the work, not part of any number reproduced here: every
Markov chain is independent, so the inverse decomposes into row blocks, and
what fixes the result is which rows a block holds and which stream it draws
from:

* :mod:`repro.parallel.partition` -- contiguous row blocks, balanced by the
  per-row non-zero count (the dominant cost driver of a walk);
* :mod:`repro.parallel.rng` -- one independent random stream per block via
  ``SeedSequence`` spawning, keyed on ``(master seed, block index)``.
"""

from repro.parallel.partition import (
    Partition,
    partition_rows,
    partition_by_weight,
)
from repro.parallel.rng import TaskRNGFactory

__all__ = [
    "Partition",
    "partition_rows",
    "partition_by_weight",
    "TaskRNGFactory",
]
