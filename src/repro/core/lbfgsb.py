"""L-BFGS-B from many starting points in lockstep.

The acquisition step (Sec. 3.2, Algorithm 1) refines a few dozen random
starts with L-BFGS-B.  ``scipy.optimize.minimize`` runs one start at a time
and asks for the objective one point at a time, so a proposal pays the
surrogate's per-call dispatch about a thousand times.  :class:`LockstepLBFGSB`
keeps one L-BFGS-B state per start and advances them together, in the way
BoTorch's ``gen_candidates_scipy`` stacks its restarts: :meth:`~LockstepLBFGSB.ask`
steps every running start to its next objective request and returns all
those points as one ``(k, n)`` batch, and :meth:`~LockstepLBFGSB.tell` hands
back their values and gradients.

Each start runs exactly ``minimize(fun, x0, jac=True, method="L-BFGS-B",
bounds=..., options={"maxiter": maxiter})``: the same compiled routine
(``scipy.optimize._lbfgsb.setulb``, private, hence the scipy pin in
``setup.py``) with the same settings and the same driving loop as
``scipy.optimize._lbfgsb_py._minimize_lbfgsb``, and the same caching as its
``ScalarFunction`` (the starting point is evaluated first, and a point equal
to the one just evaluated is not evaluated again).  Its iterates, objective
calls and result are ``minimize``'s bit for bit, whichever other starts run
beside it; ``tests/test_core_lbfgsb.py`` checks that against ``minimize``.
``minimize``'s ``maxfun`` (15000) is not mirrored: ``maxiter`` iterations
of at most ``maxls`` line-search steps stop far below it.

>>> import numpy as np
>>> lbfgsb = LockstepLBFGSB([[2.0, 2.0], [-1.0, 0.5]], [-3.0, -3.0], [0.5, 3.0])
>>> while (points := lbfgsb.ask()) is not None:
...     lbfgsb.tell(np.sum(points**2, axis=1), 2.0 * points)
>>> np.abs(lbfgsb.x).max() < 1e-8, lbfgsb.nit
(np.True_, array([2, 2]))
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import _lbfgsb

__all__ = ["LockstepLBFGSB"]

# ``_minimize_lbfgsb``'s defaults, as ``minimize`` passes them.
_MAXCOR = 10
_MAXLS = 20
_FACTR = 2.2204460492503131e-09 / np.finfo(float).eps
_PGTOL = 1e-5

# ``setulb``'s task codes (``task[0]``) and the stop reason ``minimize`` sets
# when ``maxiter`` is reached.
_TASK_FG = 3
_TASK_NEW_X = 1
_TASK_STOP = 5
_STOP_MAXITER = 504


class _Start:
    """One start's L-BFGS-B state, as ``_minimize_lbfgsb`` holds it."""

    def __init__(self, x0: np.ndarray) -> None:
        n = x0.size
        self.x = x0
        self.f = np.array(0.0, dtype=np.float64)
        self.g = np.zeros(n, dtype=np.float64)
        self.wa = np.zeros(2 * _MAXCOR * n + 5 * n + 11 * _MAXCOR * _MAXCOR
                           + 8 * _MAXCOR, dtype=np.float64)
        self.iwa = np.zeros(3 * n, dtype=np.int32)
        self.task = np.zeros(2, dtype=np.int32)
        self.ln_task = np.zeros(2, dtype=np.int32)
        self.lsave = np.zeros(4, dtype=np.int32)
        self.isave = np.zeros(44, dtype=np.int32)
        self.dsave = np.zeros(29, dtype=np.float64)
        self.nit = 0
        # ``ScalarFunction``'s cache: the latest point evaluated and its
        # value and gradient.
        self.x_evaluated = None
        self.f_evaluated = None
        self.g_evaluated = None


class LockstepLBFGSB:
    """L-BFGS-B minimisation from every row of ``starts`` at once.

    Parameters
    ----------
    starts:
        ``(n_starts, n)`` starting points; each is clipped into the box.
    lower, upper:
        Finite bounds of the box, length ``n``.
    maxiter:
        Iterations per start, as ``minimize``'s ``options["maxiter"]``.

    After :meth:`ask` returns ``None``, :attr:`x` holds every start's final
    point and :attr:`nit` its iteration count.
    """

    def __init__(self, starts, lower, upper, *, maxiter: int = 60) -> None:
        lower = np.asarray(lower, dtype=np.float64)
        upper = np.asarray(upper, dtype=np.float64)
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValueError("LockstepLBFGSB needs a finite box")
        starts = np.clip(np.asarray(starts, dtype=np.float64), lower, upper)
        self._lower = lower.copy()
        self._upper = upper.copy()
        self._nbd = np.full(lower.size, 2, dtype=np.int32)
        self._maxiter = maxiter
        self._starts = [_Start(row.copy()) for row in starts]
        #: Indices of the starts whose points the latest :meth:`ask` returned.
        self.pending: list[int] = list(range(len(self._starts)))
        self._first = True

    def ask(self) -> np.ndarray | None:
        """The ``(k, n)`` points at which the running starts need the
        objective next, in start order (their indices in :attr:`pending`),
        or ``None`` once every start has stopped.

        The first call returns every starting point.
        """
        if not self._first:
            self.pending = [index for index in self.pending
                            if self._advance(self._starts[index])]
        self._first = False
        if not self.pending:
            return None
        return np.array([self._starts[index].x for index in self.pending])

    def tell(self, f: np.ndarray, g: np.ndarray) -> None:
        """Objective values ``(k,)`` and gradients ``(k, n)`` at the points
        of the latest :meth:`ask`, row for row."""
        for row, index in enumerate(self.pending):
            start = self._starts[index]
            start.x_evaluated = start.x.copy()
            start.f_evaluated = f[row]
            start.g_evaluated = np.array(g[row], dtype=np.float64)
            start.f, start.g = start.f_evaluated, start.g_evaluated

    def _advance(self, start: _Start) -> bool:
        """Run ``setulb`` until ``start`` needs the objective at a new point
        (``True``) or stops (``False``): ``_minimize_lbfgsb``'s loop."""
        while True:
            start.g = start.g.astype(np.float64)
            _lbfgsb.setulb(_MAXCOR, start.x, self._lower, self._upper,
                           self._nbd, start.f, start.g, _FACTR, _PGTOL,
                           start.wa, start.iwa, start.task, start.lsave,
                           start.isave, start.dsave, _MAXLS, start.ln_task)
            task = start.task[0]
            if task == _TASK_FG:
                if not np.array_equal(start.x, start.x_evaluated):
                    return True
                start.f, start.g = start.f_evaluated, start.g_evaluated
            elif task == _TASK_NEW_X:
                start.nit += 1
                if start.nit >= self._maxiter:
                    start.task[0] = _TASK_STOP
                    start.task[1] = _STOP_MAXITER
            else:
                return False

    @property
    def x(self) -> np.ndarray:
        """Every start's current point, ``(n_starts, n)``."""
        return np.array([start.x for start in self._starts])

    @property
    def nit(self) -> np.ndarray:
        """Every start's iteration count so far."""
        return np.array([start.nit for start in self._starts])
