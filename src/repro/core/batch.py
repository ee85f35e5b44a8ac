"""Batched speed-model evaluation — the cluster-scale solver's engine room.

The FPM partitioner's inner loop asks one question of every model: *how
much work finishes within time T?*  Answered per model in Python (the
pre-vectorisation :func:`repro.core.partition.partition_fpm`), a
10 000-device solve spends its whole budget on interpreter overhead.
This module answers it for **all models at once**: one NumPy
ray-intersection per solver iteration, following the cluster extension of
the FPM method (Lastovetsky/Reddy/Rychkov/Clarke, arXiv:1109.3074).

The piecewise-linear speed function makes the *time* function piecewise
rational, so each model's inverse time is closed-form once the crossing
segment is known.  :class:`BatchSpeedModels` precomputes, per model, an
**augmented segment table** — head, interior and tail segments in a
uniform ``x(T) = clip(T * a / (1 - T * b), lo, hi)`` shape — and stacks
the tables into padded matrices, one NumPy pass per distinct sample
count (:func:`_stack_rows`).  Evaluating all models at a finish time
``T`` is then: count crossed knots (one comparison over the knot-time
matrix), gather each model's active row of the table (one fancy index),
and apply the closed form elementwise.

Bit-identity contract
---------------------
Every kernel here has a one-model form that performs the *same*
floating-point operations in the *same* order.  The time kernel's is
:meth:`SpeedFunction.time` itself.  The others run only in tests: the
one-model row build ``row_params`` lives in ``tests/oracles/batch.py``,
the allocation kernel's ``allocation_row_at`` with the scalar reference
partitioner in ``tests/oracles/partition.py``.  The oracles walk models
with the one-model forms; the vectorised partitioner uses the matrix
kernels — and the two are **bit-identical** on every input, which the
property suite enforces.  A formula change here must update the oracles
too, or the identity tests will fail.

Models whose knot times are not non-decreasing (no monotone time
function, so no well-defined closed-form inverse) fall back to
:meth:`SpeedFunction.max_size_within_time` in *both* paths — identical
by construction, merely not vectorised; measured models are repaired
monotone before partitioning, so this path is cold.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.core.speed_function import SpeedFunction

#: Denominators below this are treated as the segment's vertical asymptote
#: (allocation pinned to the segment's upper end) in every kernel.
_TINY_DENOM = 1e-300

#: Live batch representations, keyed by the model tuple they stack.  An
#: entry lives exactly as long as some solve state, result or caller
#: holds its batch, so a solve and the rounding or simulation that
#: follows it share one stacking, and a dropped plan frees its rows.
_batch_cache: weakref.WeakValueDictionary[tuple, "BatchSpeedModels"] = (
    weakref.WeakValueDictionary()
)


def asum(values) -> float:
    """The solver's canonical summation: NumPy pairwise reduction.

    The vectorised solver and its scalar test oracle total allocations
    through this one helper, so their convergence decisions compare the
    *same* float regardless of which path produced the addends.
    """
    return float(np.add.reduce(np.asarray(values, dtype=float)))


# --------------------------------------------------------------- model rows
def _padded(p: int, width: int):
    """Uninitialised solver matrices for ``p`` models of up to ``width`` samples.

    ``(knot_times, sizes, speeds, table, nseg, caps, monotone)``; a
    second knot column keeps the time kernel's interior gather in bounds
    for single-sample models (its result is overridden anyway).
    """
    pad = max(width, 2)
    return (
        np.empty((p, pad)),
        np.empty((p, pad)),
        np.empty((p, pad)),
        np.empty((p, width + 1, 4)),
        np.empty(p, dtype=np.intp),
        np.empty(p),
        np.empty(p, dtype=bool),
    )


def _stack_rows(fns, out, at) -> None:
    """Write the solver rows of ``fns`` into rows ``at`` of :func:`_padded` ``out``.

    The one row formula of the solver.  Models are grouped by sample
    count ``m``; each group's sizes and speeds become one ``(g, m)``
    matrix, and knot times, segment slopes and intercepts, head and tail
    rows, capacities and the monotone flag are computed for the whole
    group with the same elementwise operations a single model would get.
    So a 10 000-model build costs a handful of NumPy calls per distinct
    sample count, not dozens per model.

    Row ``k`` of a model's augmented segment table (columns
    ``a, b, lo, hi``) is the active segment when exactly ``k`` knot
    times lie strictly below the queried finish time:

    * ``k == 0`` — constant-speed head: ``x = T * s0`` capped at the
      first sample;
    * ``1 <= k <= m - 1`` — interior segment ``k - 1`` solved in closed
      form (``b`` is the speed slope, ``a`` the intercept);
    * ``k == m`` — tail: the bounded model's full range, or the
      constant-speed extension to infinity.

    Every written row is padded too: +inf knots are never "crossed", and
    table rows past a model's own tail (zeros) are never selected.
    ``at`` must be ascending.
    """
    knot_times, sizes, speeds, table, nseg, caps, monotone = out
    groups: dict[int, tuple[list[int], list[SpeedFunction]]] = {}
    for row, fn in zip(at, fns):
        rows, members = groups.setdefault(fn.sizes.size, ([], []))
        rows.append(row)
        members.append(fn)
    for m, (rows, members) in groups.items():
        g = len(members)
        # the usual case (one sample count, or one replaced model) writes
        # through a slice; fancy-index writes cost several times more
        contiguous = rows[-1] - rows[0] == g - 1
        idx = slice(rows[0], rows[-1] + 1) if contiguous else np.asarray(rows)
        xs = np.concatenate([fn.sizes for fn in members]).reshape(g, m)
        ss = np.concatenate([fn.speeds for fn in members]).reshape(g, m)
        bounded = np.fromiter((fn.bounded for fn in members), bool, g)
        kt = xs / ss
        cap = np.where(bounded, xs[:, -1], np.inf)
        slope = (ss[:, 1:] - ss[:, :-1]) / (xs[:, 1:] - xs[:, :-1])
        rows_table = np.zeros((g, table.shape[1], 4))
        # a: head s0, interior intercepts, tail s_last (0 when bounded)
        rows_table[:, 0, 0] = ss[:, 0]
        rows_table[:, 1:m, 0] = ss[:, :-1] - slope * xs[:, :-1]
        rows_table[:, m, 0] = np.where(bounded, 0.0, ss[:, -1])
        # b: interior slopes; head and tail are constant-speed
        rows_table[:, 1:m, 1] = slope
        # lo, hi: the head spans [0, x0], interior row k [x(k-1), x(k)],
        # the tail [x_last, cap]
        rows_table[:, 1 : m + 1, 2] = xs
        rows_table[:, :m, 3] = xs
        rows_table[:, m, 3] = cap
        knot_times[idx, :m] = kt
        knot_times[idx, m:] = np.inf
        sizes[idx, :m] = xs
        sizes[idx, m:] = np.inf
        speeds[idx, :m] = ss
        speeds[idx, m:] = 0.0
        table[idx] = rows_table
        nseg[idx] = m
        caps[idx] = cap
        monotone[idx] = (kt[:, 1:] >= kt[:, :-1] * (1.0 - 1e-12)).all(axis=1)


class BatchSpeedModels:
    """Stacked solver rows of a model set; one matrix query per iteration.

    Build through :func:`batch_models`, which shares a batch with every
    caller that asks for the same model objects while one of them still
    holds it — a solve, the rounding after it and the simulation of its
    plan stack the rows once.
    """

    __slots__ = (
        "__weakref__",
        "fns",
        "count",
        "_kt",
        "_sizes",
        "_speeds",
        "_table",
        "_rows",
        "_caps",
        "_nseg",
        "_irregular",
        "_s_first",
        "_s_last",
        "_x_last",
    )

    def __init__(self, fns: tuple[SpeedFunction, ...]):
        if not fns:
            raise ValueError("need at least one speed function")
        out = _padded(len(fns), max(fn.sizes.size for fn in fns))
        _stack_rows(fns, out, range(len(fns)))
        self._assign(fns, out)

    def _assign(self, fns, out) -> None:
        """Adopt stacked matrices (:func:`_padded` layout) for ``fns``."""
        self.fns = fns
        self.count = len(fns)
        (
            self._kt,
            self._sizes,
            self._speeds,
            self._table,
            self._nseg,
            self._caps,
            monotone,
        ) = out
        self._rows = np.arange(self.count)
        self._irregular = tuple(np.flatnonzero(~monotone).tolist())
        self._s_first = self._speeds[:, 0].copy()
        self._s_last = self._speeds[self._rows, self._nseg - 1]
        self._x_last = self._sizes[self._rows, self._nseg - 1]

    @property
    def caps(self) -> np.ndarray:
        """Per-model capacity (max size for bounded models, else +inf)."""
        return self._caps

    # ----------------------------------------------------- incremental clone
    def holds(self, fns) -> bool:
        """True when every model of ``fns`` fits this batch's row padding.

        :meth:`with_updates` stacks replacements that fit into the
        parent's rows and rebuilds the whole batch otherwise.
        """
        width = self._table.shape[1] - 1
        return all(fn.sizes.size <= width for fn in fns)

    def with_updates(
        self, replacements=None, dropped=()
    ) -> "BatchSpeedModels":
        """A derived batch with some rows replaced and/or removed.

        ``replacements`` maps model index to its new
        :class:`SpeedFunction`; ``dropped`` lists indices to remove (a
        failed device, say).  Only the replacement rows are stacked (by
        :func:`_stack_rows`, at the parent's padding width) — the rest of
        the stacked matrices are copied wholesale — so a 10 000-device
        re-solve after a handful of model refreshes touches only those
        models.  Every kernel of the result is **bit-identical** to a
        fresh ``BatchSpeedModels(new_fns)``: row padding beyond a model's
        own samples never participates in any kernel (+inf knots are
        never crossed, rows past the tail are never gathered), so
        inheriting the parent's padding width is harmless.  A replacement
        with more samples than the parent's padding can hold falls back
        to the full rebuild — identical by construction, merely not
        incremental.  Like :func:`batch_models`, the result is shared:
        while it is held, :func:`cached_batch` finds it by its models.

        Returns ``self`` unchanged when there is nothing to do.
        """
        reps: dict[int, SpeedFunction] = {}
        for i, fn in (replacements or {}).items():
            idx = int(i)
            if not 0 <= idx < self.count:
                raise ValueError(
                    f"replacement index {idx} out of range for "
                    f"{self.count} models"
                )
            reps[idx] = fn
        drop = sorted({int(i) for i in dropped})
        for i in drop:
            if not 0 <= i < self.count:
                raise ValueError(
                    f"dropped index {i} out of range for {self.count} models"
                )
            if i in reps:
                raise ValueError(f"index {i} is both replaced and dropped")
        if len(drop) >= self.count:
            raise ValueError("cannot drop every model")
        if not reps and not drop:
            return self

        fns = list(self.fns)
        for i, fn in reps.items():
            fns[i] = fn
        if not self.holds(reps.values()):
            for i in reversed(drop):
                del fns[i]
            return batch_models(fns)

        monotone = np.ones(self.count, dtype=bool)
        monotone[list(self._irregular)] = False
        out = [
            a.copy()
            for a in (
                self._kt,
                self._sizes,
                self._speeds,
                self._table,
                self._nseg,
                self._caps,
            )
        ]
        out.append(monotone)
        if reps:
            idx = sorted(reps)
            _stack_rows([reps[i] for i in idx], out, idx)
        if drop:
            keep = np.ones(self.count, dtype=bool)
            keep[drop] = False
            out = [a[keep] for a in out]
            fns = [fn for fn, kept in zip(fns, keep.tolist()) if kept]

        clone = object.__new__(BatchSpeedModels)
        clone._assign(tuple(fns), out)
        # findable while held, so rounding on the updated models reuses it
        _batch_cache.setdefault(clone.fns, clone)
        return clone

    # ------------------------------------------------------------ kernels
    def allocations_at(self, finish_time: float) -> np.ndarray:
        """Every model's largest workload finishing within ``finish_time``.

        One knot-count, one gather, one closed-form evaluation —
        regardless of model count.
        """
        counts = (self._kt < finish_time).sum(axis=1)
        sel = self._table[self._rows, counts]
        b = sel[:, 1]
        lo = sel[:, 2]
        hi = sel[:, 3]
        denom = 1.0 - finish_time * b
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x = finish_time * sel[:, 0] / denom
        x = np.where(np.abs(denom) < _TINY_DENOM, hi, x)
        x = np.minimum(np.maximum(x, lo), hi)
        for i in self._irregular:
            fn = self.fns[i]
            x[i] = min(fn.max_size_within_time(finish_time), self._caps[i])
        return x

    def allocations_at_many(self, finish_times: np.ndarray) -> np.ndarray:
        """:meth:`allocations_at` for a vector of finish times.

        Returns the ``(len(finish_times), count)`` allocation matrix;
        row ``g`` is bit-identical to ``allocations_at(finish_times[g])``
        (broadcast elementwise arithmetic — same operations per element).
        """
        ts = np.asarray(finish_times, dtype=float)
        counts = (self._kt[None, :, :] < ts[:, None, None]).sum(axis=2)
        sel = self._table[self._rows[None, :], counts]
        b = sel[:, :, 1]
        lo = sel[:, :, 2]
        hi = sel[:, :, 3]
        t_col = ts[:, None]
        denom = 1.0 - t_col * b
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x = t_col * sel[:, :, 0] / denom
        x = np.where(np.abs(denom) < _TINY_DENOM, hi, x)
        x = np.minimum(np.maximum(x, lo), hi)
        for i in self._irregular:
            fn = self.fns[i]
            cap = self._caps[i]
            for g, t in enumerate(ts):
                x[g, i] = min(fn.max_size_within_time(float(t)), cap)
        return x

    def times_at(self, sizes, rows=None) -> np.ndarray:
        """:meth:`SpeedFunction.time` of many (model, size) pairs at once.

        Element ``k`` is ``fns[rows[k]].time(sizes[k])`` bit for bit;
        without ``rows``, element ``i`` is model ``i``'s time at
        ``sizes[i]``.  The segment is chosen the way
        :meth:`SpeedFunction.speed` chooses it — head at or below the
        first sample, tail at or above the last, otherwise the segment
        ``bisect_right`` finds — and interpolated with the same
        operations.  Sizes must be non-negative and, for bounded models,
        within range; neither is checked.
        """
        xs = np.asarray(sizes, dtype=float)
        # every model in order reads the matrices as they are; named rows
        # gather theirs
        r, at = (self._rows, slice(None)) if rows is None else (rows, rows)
        knots = self._sizes[at]
        # interior segment: samples <= x (bisect_right; the +inf padding
        # never counts), clamped so head and tail still index real columns
        ki = np.minimum(
            np.maximum((knots <= xs[:, None]).sum(axis=1), 1),
            np.maximum(self._nseg[at] - 1, 1),
        )
        x0 = self._sizes[r, ki - 1]
        s0 = self._speeds[r, ki - 1]
        # sizes strictly increase and speeds are positive: no 0/0 here
        s = s0 + ((xs - x0) / (self._sizes[r, ki] - x0)) * (self._speeds[r, ki] - s0)
        s = np.where(xs >= self._x_last[at], self._s_last[at], s)
        s = np.where(xs <= knots[:, 0], self._s_first[at], s)
        return np.where(xs == 0.0, 0.0, xs / s)


def cached_batch(models) -> BatchSpeedModels | None:
    """The live batch of exactly these speed functions, if there is one.

    A lookup only: nothing is built.  Callers that receive the model
    list a solve just used (rounding after ``Solver.solve``, say) get its
    stacked rows without normalising the models again — as long as the
    solve's result or state is still held somewhere.
    """
    try:
        return _batch_cache.get(tuple(models))
    except TypeError:  # an unhashable model; normalising rejects it
        return None


def batch_models(fns) -> BatchSpeedModels:
    """The batch representation of a model sequence, shared while held.

    Keyed by the *identity* of the model tuple's members: callers that
    hold a batch (or a solve state or result carrying one) and ask again
    for the same model objects get it back; freshly constructed equal
    models, or models whose last batch holder has gone, build anew.
    """
    key = tuple(fns)
    hit = _batch_cache.get(key)
    if hit is None:
        # threads that miss at once each build a correct batch; the
        # entry keeps the last one
        hit = _batch_cache[key] = BatchSpeedModels(key)
    return hit
