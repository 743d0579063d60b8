"""Vectorised random-walk engine for Ulam--von Neumann matrix inversion.

Given the Jacobi iteration matrix ``B`` (``A_hat = D (I - B)``), row ``i`` of
the Neumann sum ``S = sum_{k>=0} B^k`` is estimated by independent Markov
chains starting at state ``i``:

* transition probabilities are the *Monte Carlo almost-optimal* (MAO) choice
  ``p_{st} = |B_{st}| / sum_u |B_{su}|``;
* the walk carries a signed weight ``W_k`` with ``W_0 = 1`` and
  ``W_{k+1} = W_k * B_{s_k s_{k+1}} / p_{s_k s_{k+1}}
            = W_k * sign(B_{s_k s_{k+1}}) * sum_u |B_{s_k u}|``;
* at every step the walk deposits ``W_k`` into the estimate of ``S_{i, s_k}``;
* the walk stops when its length reaches the ``delta``-derived maximum, when
  its weight falls below the truncation threshold, or when it reaches a
  dead-end row (no non-zeros).

The engine is fully vectorised over walks: all chains of a block of starting
rows advance simultaneously using a padded per-row transition table, which is
what keeps a pure-NumPy implementation fast enough for the paper-scale
matrices.  A step samples by a binary search over each walk's row of
cumulative probabilities, so it touches ``O(log max_row_nnz)`` entries per
walk rather than the whole padded row: a matrix with one dense row costs its
5-point rows no more than a few extra rounds, and the chosen entries are the
ones a linear count along the row picks, bit for bit.  The engine draws from
whatever generator it is given; the inverse (:mod:`repro.mcmc.inversion`)
seeds each row block's generator from child ``i`` of
``SeedSequence(seed).spawn(n_blocks)``, a stream keyed by the block index
alone, which is what makes the result deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ParameterError
from repro.sparse.csr import ensure_csr

__all__ = ["TransitionTable", "WalkStatistics", "WalkEngine",
           "UniformBlockSource"]


class UniformBlockSource:
    """Serves uniforms from pre-generated blocks, preserving stream order.

    ``numpy``'s ``Generator.random`` fills its output sequentially from the
    underlying bit stream, so splitting one large draw into consecutive
    slices yields *bitwise* the same values as separate per-step calls.
    :meth:`take` exploits that: it hands out consecutive slices of a
    pre-generated block and refills in bulk, so the walk engine issues one
    RNG call per ~``block_size`` uniforms instead of one per step, while
    every served value is identical to what per-step ``rng.random(k)`` calls
    would have produced.

    The only observable difference is the generator's *final* position: a
    refill may over-draw past the last value actually served (the remainder
    of the final block is discarded).  Callers that reuse the generator
    afterwards for other draws therefore must not assume the per-step
    position; within this library every walk batch owns a dedicated
    ``SeedSequence``-derived stream, so the over-draw is unobservable.
    """

    def __init__(self, rng: np.random.Generator, block_size: int = 8192) -> None:
        if block_size < 1:
            raise ParameterError(
                f"block_size must be >= 1, got {block_size}")
        self._rng = rng
        self._block_size = int(block_size)
        self._buffer = np.empty(0, dtype=np.float64)
        self._cursor = 0

    def take(self, count: int) -> np.ndarray:
        """The next ``count`` stream values (identical to ``rng.random(count)``)."""
        if count < 0:
            raise ParameterError(f"count must be non-negative, got {count}")
        available = self._buffer.size - self._cursor
        if count <= available:
            out = self._buffer[self._cursor:self._cursor + count]
            self._cursor += count
            return out
        out = np.empty(count, dtype=np.float64)
        out[:available] = self._buffer[self._cursor:]
        needed = count - available
        self._buffer = self._rng.random(max(self._block_size, needed))
        out[available:] = self._buffer[:needed]
        self._cursor = needed
        return out


@dataclass(frozen=True)
class WalkStatistics:
    """Aggregate statistics of one batch of walks (for diagnostics/benchmarks).

    The termination categories are **mutually exclusive**: every walk is
    attributed to exactly one of ``absorbed``, ``exploded``,
    ``truncated_by_weight``, ``truncated_by_length`` or ``still_active``, so

    ``absorbed + exploded + truncated_by_weight + truncated_by_length
    + still_active == n_walks``.

    When several termination conditions coincide at the same step, the
    documented priority order is ``absorbed > exploded > truncated_by_weight``
    (absorption is a property of the chain itself, weight-based truncation a
    property of the estimator).  ``truncated_by_length`` covers walks cut by
    the step cap; ``still_active`` counts walks a caller stopped advancing
    before any termination criterion fired (always 0 for
    :meth:`WalkEngine.estimate_rows`, which runs every walk to termination).
    """

    n_walks: int
    total_steps: int
    mean_length: float
    max_length: int
    truncated_by_weight: int
    truncated_by_length: int
    absorbed: int
    exploded: int = 0
    still_active: int = 0

    def merge(self, other: "WalkStatistics") -> "WalkStatistics":
        """Combine statistics from two batches."""
        n_walks = self.n_walks + other.n_walks
        total_steps = self.total_steps + other.total_steps
        mean = total_steps / n_walks if n_walks else 0.0
        return WalkStatistics(
            n_walks=n_walks,
            total_steps=total_steps,
            mean_length=mean,
            max_length=max(self.max_length, other.max_length),
            truncated_by_weight=self.truncated_by_weight + other.truncated_by_weight,
            truncated_by_length=self.truncated_by_length + other.truncated_by_length,
            absorbed=self.absorbed + other.absorbed,
            exploded=self.exploded + other.exploded,
            still_active=self.still_active + other.still_active,
        )

    @staticmethod
    def empty() -> "WalkStatistics":
        """Neutral element for :meth:`merge`."""
        return WalkStatistics(0, 0, 0.0, 0, 0, 0, 0)


class TransitionTable:
    """Padded per-row transition table derived from the iteration matrix ``B``.

    For each row the table stores, padded to the maximum row length:

    * the cumulative MAO transition probabilities (for inverse-CDF sampling),
    * the column indices of the non-zeros,
    * the weight multiplier ``B_{st} / p_{st} = sign(B_{st}) * sum_u |B_{su}|``.

    Rows without non-zeros are *absorbing*: a walk entering them terminates.

    A row's real cumulative entries never decrease and the last one is
    forced to ``1.0``, which is what lets :meth:`step` binary-search a row
    instead of scanning its padding.

    The construction is fully vectorised over the CSR arrays (segment sums
    via ``np.add.reduceat``, a padded-scatter followed by a row-wise
    ``np.cumsum`` for the inverse-CDF tables) — no per-row Python loop — which
    makes the table build essentially free next to the walks themselves even
    for paper-scale matrices.
    """

    def __init__(self, b_matrix: sp.spmatrix) -> None:
        csr = ensure_csr(b_matrix)
        if csr.shape[0] != csr.shape[1]:
            raise ParameterError(
                f"iteration matrix must be square, got shape {csr.shape}")
        self._n = csr.shape[0]
        row_counts = np.diff(csr.indptr).astype(np.int64)
        max_nnz = int(row_counts.max()) if csr.nnz else 0
        self._max_nnz = max_nnz
        width = max(max_nnz, 1)

        self._columns = np.zeros((self._n, width), dtype=np.int64)
        self._multiplier = np.zeros((self._n, width), dtype=np.float64)
        self._row_abs_sum = np.zeros(self._n, dtype=np.float64)

        data, indices, indptr = csr.data, csr.indices, csr.indptr
        nnz = int(csr.nnz)
        if nnz == 0:
            self._row_nnz = np.zeros(self._n, dtype=np.int64)
            self._last = self._row_nnz
            self._cumprob = np.ones((self._n, width), dtype=np.float64)
            return

        abs_data = np.abs(data)
        nonempty = row_counts > 0
        # Per-row sums of |B|: reduceat over the starts of the non-empty rows
        # (consecutive starts bound exactly one row's segment).
        self._row_abs_sum[nonempty] = np.add.reduceat(
            abs_data, indptr[:-1][nonempty])
        # Rows whose stored entries are all (numerically) zero are absorbing.
        self._row_nnz = np.where(self._row_abs_sum > 0.0, row_counts, 0)

        # Flat index of every stored entry in the padded (n, width) tables:
        # entry k of row r lands at r * width + k, i.e. its CSR position plus
        # a per-row shift of (r * width - indptr[r]).
        shifts = np.arange(self._n, dtype=np.int64) * width - indptr[:-1]
        flat = np.arange(nnz, dtype=np.int64) + np.repeat(shifts, row_counts)
        totals = np.repeat(self._row_abs_sum, row_counts)
        if np.any(self._row_abs_sum[nonempty] == 0.0):
            live = totals > 0.0
            flat, totals = flat[live], totals[live]
            data, indices, abs_data = data[live], indices[live], abs_data[live]

        probabilities = np.zeros(self._n * width, dtype=np.float64)
        probabilities[flat] = abs_data / totals
        # Row-wise cumulative sums reproduce the per-row inverse-CDF tables
        # (trailing zero padding after a row's last entry holds the row total;
        # :meth:`step` never reads it).
        cumprob = np.cumsum(probabilities.reshape(self._n, width), axis=1)
        # Guard against round-off: the last real cumulative value must be >= 1.
        self._last = np.maximum(self._row_nnz, 1) - 1
        cumprob[np.arange(self._n), self._last] = 1.0
        self._cumprob = cumprob

        self._columns.ravel()[flat] = indices
        self._multiplier.ravel()[flat] = np.sign(data) * totals

    # -- simple accessors ---------------------------------------------------
    @property
    def dimension(self) -> int:
        """Number of states (matrix dimension)."""
        return self._n

    @property
    def max_row_nnz(self) -> int:
        """Maximum number of non-zeros in any row (padding width)."""
        return self._max_nnz

    @property
    def row_abs_sums(self) -> np.ndarray:
        """``sum_u |B_{su}|`` per row (the weight multipliers' magnitude)."""
        return self._row_abs_sum

    @property
    def row_nnz(self) -> np.ndarray:
        """Stored non-zeros per row (0 for absorbing rows)."""
        return self._row_nnz

    @property
    def norm_inf_b(self) -> float:
        """``||B||_inf = max_s sum_u |B_{su}|`` of the iteration matrix."""
        return float(self._row_abs_sum.max()) if self._n else 0.0

    def is_absorbing(self, states: np.ndarray) -> np.ndarray:
        """Boolean mask of states that terminate a walk."""
        return self._row_nnz[states] == 0

    # -- sampling -----------------------------------------------------------
    def step(self, states: np.ndarray, rng: np.random.Generator | None = None,
             *, uniforms: np.ndarray | None = None
             ) -> tuple[np.ndarray, np.ndarray]:
        """Advance one step from ``states``.

        Returns ``(next_states, multipliers)`` where ``multipliers`` are the
        factors by which the walk weights must be multiplied.  Callers must
        not pass absorbing states (filter with :meth:`is_absorbing` first).
        The uniforms may be supplied directly (one per state, e.g. from a
        :class:`UniformBlockSource`) instead of drawn from ``rng``.

        Each walk takes the first entry of its row's cumulative probabilities
        that is ``>= u``, found by a binary search over the row's real
        entries ``[0, row_nnz - 1]``: ``(max_row_nnz - 1).bit_length()``
        rounds, each a gather, compare and ``np.where`` on ``(walks,)``
        arrays that advances a walk by a halving power of two when the
        probed entry is ``< u``.
        This is the index the inverse CDF defines, counting every cumulative
        value ``< u`` along the padded row and clamping to ``row_nnz - 1``:

        * the real entries are cumulative sums of non-negative values, so the
          ones ``< u`` form a prefix that the search finds;
        * the last real entry is ``1.0``, above every ``u`` in ``[0, 1)``, so
          the search never needs to look past it;
        * a padding entry (the row total) is ``< u`` only when every real
          entry before the last is too, and the clamp maps that count to
          ``row_nnz - 1``, where the search stops.
        """
        if states.size == 0:
            return states.copy(), np.empty(0, dtype=np.float64)
        if uniforms is None:
            if rng is None:
                raise ParameterError("step needs either rng or uniforms")
            uniforms = rng.random(states.size)
        elif uniforms.size != states.size:
            raise ParameterError(
                f"got {uniforms.size} uniforms for {states.size} states")
        width = self._cumprob.shape[1]
        cumulative = self._cumprob.ravel()
        # Flat indices into the padded tables: row r's entry k is r * width + k.
        choice = np.asarray(states, dtype=np.int64) * width
        last = choice + self._last.take(states)
        # Invariant: every entry before ``choice`` is < u.  Probe the entry
        # ``step`` ahead, never past the last real one (1.0, so not < u).
        for shift in reversed(range((width - 1).bit_length())):
            step = 1 << shift
            probe = np.minimum(choice + (step - 1), last)
            below = cumulative.take(probe) < uniforms
            choice = np.where(below, choice + step, choice)
        # Only a uniform above 1.0 passes the last entry; as the linear
        # count's clamp did, keep it there rather than in the next row.
        np.minimum(choice, last, out=choice)
        return (self._columns.ravel().take(choice),
                self._multiplier.ravel().take(choice))


class WalkEngine:
    """Runs batches of Ulam--von Neumann walks and accumulates row estimates.

    Parameters
    ----------
    table:
        Pre-computed :class:`TransitionTable` for the iteration matrix ``B``.
    weight_cutoff:
        Walks whose absolute weight drops below this value are truncated
        (this implements the ``delta`` truncation-error criterion at the level
        of individual chains).
    max_steps:
        Hard upper bound on the walk length (the ``delta``-derived length for
        contractions, a safety cap otherwise).
    rng_block_size:
        Uniform draws are pre-generated in blocks of (at least) this many
        values instead of one ``rng.random`` call per step; see
        :class:`UniformBlockSource`.  The estimates are bitwise identical to
        the historical per-step draws for any block size — only RNG call
        overhead changes — so this is purely a performance knob (short walks
        on small matrices previously spent a measurable fraction of their
        time in per-step RNG dispatch).
    """

    #: Walks whose weight magnitude exceeds this bound are terminated: the
    #: Neumann series is clearly divergent and letting the weight grow further
    #: only produces floating-point overflow (the divergence scenarios the
    #: paper deliberately includes, e.g. near-zero ``alpha``, hit this path).
    WEIGHT_EXPLOSION_CAP = 1e8

    #: Default pre-generated uniform block size (one RNG call per ~8k draws).
    DEFAULT_RNG_BLOCK_SIZE = 8192

    def __init__(self, table: TransitionTable, *, weight_cutoff: float,
                 max_steps: int,
                 rng_block_size: int = DEFAULT_RNG_BLOCK_SIZE) -> None:
        if weight_cutoff < 0:
            raise ParameterError(
                f"weight_cutoff must be non-negative, got {weight_cutoff}")
        if max_steps < 1:
            raise ParameterError(f"max_steps must be >= 1, got {max_steps}")
        if rng_block_size < 1:
            raise ParameterError(
                f"rng_block_size must be >= 1, got {rng_block_size}")
        self._table = table
        self._weight_cutoff = float(weight_cutoff)
        self._max_steps = int(max_steps)
        self._rng_block_size = int(rng_block_size)

    @property
    def max_steps(self) -> int:
        """Maximum number of transitions per walk."""
        return self._max_steps

    @property
    def weight_cutoff(self) -> float:
        """Relative weight below which a walk is truncated."""
        return self._weight_cutoff

    def estimate_rows(self, start_rows: np.ndarray, chains_per_row: int,
                      rng: np.random.Generator
                      ) -> tuple[sp.csr_matrix, WalkStatistics]:
        """Estimate the Neumann-sum rows ``S[start_rows, :]``.

        Every deposit is kept as a flat key ``walk_row * n + state`` beside
        its weight, in step order.  ``np.unique`` sorts the keys into CSR
        order and ``np.bincount`` sums each key's weights in input order from
        0.0 -- the additions ``np.add.at`` into a dense ``(rows, n)`` buffer
        makes -- so every sum is bitwise the same while memory scales with
        the walk steps instead of ``rows * n``.

        Returns
        -------
        estimates:
            ``csr_matrix`` of shape ``(len(start_rows), n)`` holding the Monte
            Carlo estimate of ``sum_k B^k`` restricted to the requested rows.
            Every entry some walk deposited into is stored, including sums
            that cancelled to zero.
        statistics:
            Aggregate :class:`WalkStatistics` for the batch.
        """
        start_rows = np.asarray(start_rows, dtype=np.int64).ravel()
        if (isinstance(chains_per_row, bool)
                or not isinstance(chains_per_row, (int, np.integer))
                or chains_per_row < 1):
            raise ParameterError(
                f"chains_per_row must be an integer >= 1, got {chains_per_row!r}")
        n_rows = start_rows.size
        n = self._table.dimension
        if n_rows == 0:
            return sp.csr_matrix((0, n), dtype=np.float64), WalkStatistics.empty()
        if start_rows.min() < 0 or start_rows.max() >= n:
            raise ParameterError(
                f"start rows must lie in [0, {n}), got {start_rows.min()} "
                f"to {start_rows.max()}")

        # One walk per (row, chain) pair, all advanced in lock-step.
        row_keys = np.repeat(np.arange(n_rows, dtype=np.int64) * n,
                             chains_per_row)
        states = np.repeat(start_rows, chains_per_row)
        weights = np.ones(states.size, dtype=np.float64)
        n_walks = states.size

        # Step 0 contribution: the identity term of the Neumann series.
        keys = [row_keys + states]
        deposits = [weights.copy()]

        lengths = np.zeros(n_walks, dtype=np.int64)
        truncated_weight = 0
        truncated_length = 0
        absorbed = 0
        exploded_count = 0

        active = ~self._table.is_absorbing(states)
        absorbed += int(np.count_nonzero(~active))
        active_indices = np.flatnonzero(active)

        uniforms = UniformBlockSource(rng, self._rng_block_size)
        step = 0
        while active_indices.size and step < self._max_steps:
            step += 1
            current_states = states[active_indices]
            next_states, multipliers = self._table.step(
                current_states, uniforms=uniforms.take(current_states.size))
            new_weights = weights[active_indices] * multipliers

            states[active_indices] = next_states
            weights[active_indices] = new_weights
            lengths[active_indices] = step

            # Deposit the contribution of this step.
            keys.append(row_keys[active_indices] + next_states)
            deposits.append(new_weights)

            # Decide which walks keep going.  Termination attribution follows
            # the documented priority order absorbed > exploded >
            # truncated_by_weight so the categories stay mutually exclusive.
            abs_weights = np.abs(new_weights)
            below_cutoff = abs_weights < self._weight_cutoff
            exploded = abs_weights > self.WEIGHT_EXPLOSION_CAP
            now_absorbing = self._table.is_absorbing(next_states)
            keep = ~(below_cutoff | now_absorbing | exploded)
            absorbed += int(np.count_nonzero(now_absorbing))
            exploded_count += int(np.count_nonzero(exploded & ~now_absorbing))
            truncated_weight += int(np.count_nonzero(below_cutoff
                                                     & ~now_absorbing
                                                     & ~exploded))
            active_indices = active_indices[keep]

        # Walks surviving to the step cap were truncated by length.
        truncated_length += int(active_indices.size)

        keys, inverse = np.unique(np.concatenate(keys), return_inverse=True)
        sums = np.bincount(inverse, weights=np.concatenate(deposits),
                           minlength=keys.size)
        sums /= float(chains_per_row)
        # Divergent parameter regimes can still overflow within a single step;
        # scrub non-finite values so downstream code sees a (useless but
        # well-formed) preconditioner rather than NaNs.
        if not np.all(np.isfinite(sums)):
            sums = np.nan_to_num(sums, nan=0.0,
                                 posinf=self.WEIGHT_EXPLOSION_CAP,
                                 neginf=-self.WEIGHT_EXPLOSION_CAP)
        indptr = np.searchsorted(keys, np.arange(n_rows + 1, dtype=np.int64) * n)
        estimates = sp.csr_matrix((sums, keys % n, indptr), shape=(n_rows, n))
        statistics = WalkStatistics(
            n_walks=n_walks,
            total_steps=int(lengths.sum()),
            mean_length=float(lengths.mean()) if n_walks else 0.0,
            max_length=int(lengths.max()) if n_walks else 0,
            truncated_by_weight=truncated_weight,
            truncated_by_length=truncated_length,
            absorbed=absorbed,
            exploded=exploded_count,
            still_active=0,
        )
        return estimates, statistics
