"""Per-solve phase timers for the Krylov solvers.

A Krylov solve spends its time in three places: applications of ``A``
(*matvec*), applications of the preconditioner (*precond_apply*), and — for
GMRES — the Gram--Schmidt *orthogonalization* (both CGS2 passes and the
norm).
Knowing the split per matrix fingerprint is what turns "this solve was slow"
into "this matrix's preconditioner apply dominates; trade setup cost for a
cheaper apply".

The recorder is ambient: :func:`record_phases` activates a
:class:`PhaseTimings` accumulator through a :mod:`contextvars` variable, and
:class:`~repro.krylov.base.SolveRun` — the one object every solve runs inside
— asks :func:`solve_phase_timings` **once** at entry.  When no recorder is
active the solvers run their original arithmetic with no timing calls at all
— phase timing is zero-cost unless requested.  When one is active, each solve
accumulates into its *own* :class:`PhaseTimings` (attached to the returned
:class:`~repro.krylov.base.SolveResult` as ``phase_timings``) and its exit
merges it into the ambient recorder, so a multi-rhs batch aggregates
naturally.

Timing never changes the arithmetic — wrapped operators return exactly what
the bare operators return — so phase-timed solves are bit-identical to
untimed ones.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator

__all__ = [
    "PHASE_MATVEC",
    "PHASE_PRECOND",
    "PHASE_ORTHO",
    "PhaseTimings",
    "record_phases",
    "solve_phase_timings",
    "finish_solve_phases",
    "timed_operator",
]

PHASE_MATVEC = "matvec"
PHASE_PRECOND = "precond_apply"
PHASE_ORTHO = "orthogonalization"

_PHASE_RECORDER: ContextVar["PhaseTimings | None"] = ContextVar(
    "repro_phase_recorder", default=None)


class PhaseTimings:
    """Accumulated seconds (and call counts) per solver phase.

    Not thread-safe by design: each solve owns a private instance; the
    ambient recorder a batch merges into is only touched from the thread
    running that batch's solves (the scheduler activates one recorder per
    group, and runs a group's solves in the thread that executes the batch).
    """

    __slots__ = ("seconds", "calls")

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}

    def add(self, phase: str, seconds: float, calls: int = 1) -> None:
        """Accumulate ``seconds`` (and ``calls``) under ``phase``."""
        self.seconds[phase] = self.seconds.get(phase, 0.0) + float(seconds)
        self.calls[phase] = self.calls.get(phase, 0) + int(calls)

    def merge(self, other: "PhaseTimings") -> None:
        """Fold another accumulator into this one."""
        for phase, seconds in other.seconds.items():
            self.add(phase, seconds, other.calls.get(phase, 0))

    def as_dict(self) -> dict[str, float]:
        """``{phase: seconds}`` (plain JSON-serialisable floats)."""
        return {phase: float(seconds)
                for phase, seconds in sorted(self.seconds.items())}

    def total(self) -> float:
        """Sum of all recorded phase seconds."""
        return float(sum(self.seconds.values()))

    def __bool__(self) -> bool:
        return bool(self.seconds)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{phase}={seconds * 1e3:.2f}ms"
                          for phase, seconds in sorted(self.seconds.items()))
        return f"PhaseTimings({inner})"


@contextmanager
def record_phases() -> Iterator[PhaseTimings]:
    """Activate phase recording for every solve inside the block.

    Yields the accumulator that collects the (merged) timings of all solves
    performed while the context is active.
    """
    recorder = PhaseTimings()
    token = _PHASE_RECORDER.set(recorder)
    try:
        yield recorder
    finally:
        _PHASE_RECORDER.reset(token)


def solve_phase_timings() -> PhaseTimings | None:
    """Per-solve accumulator, or ``None`` when no recorder is active.

    Called once per solve: the result being ``None`` selects the bare
    (untimed) operators, keeping the disabled path free of timing calls.
    """
    return None if _PHASE_RECORDER.get() is None else PhaseTimings()


def finish_solve_phases(timings: PhaseTimings | None
                        ) -> dict[str, float] | None:
    """Merge a solve's accumulator into the ambient recorder; return a dict.

    Returns the plain ``{phase: seconds}`` dict to attach to the
    :class:`~repro.krylov.base.SolveResult` (``None`` when timing was off).
    """
    if timings is None:
        return None
    recorder = _PHASE_RECORDER.get()
    if recorder is not None:
        recorder.merge(timings)
    return timings.as_dict()


def timed_operator(operator: Callable, timings: PhaseTimings | None,
                   phase: str) -> Callable:
    """Wrap a one-argument operator so its wall time accrues to ``phase``.

    With ``timings is None`` the operator is returned untouched — callers
    bind the wrapper once at solver entry, so the disabled path performs no
    timing work at all.  The wrapper forwards the result unchanged (timing
    is bit-neutral by construction).
    """
    if timings is None:
        return operator

    def timed(argument):
        start = time.perf_counter()
        result = operator(argument)
        timings.add(phase, time.perf_counter() - start)
        return result

    return timed
