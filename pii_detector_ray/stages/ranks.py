"""Exact ranks and running sums over one global sort: the shared
sorted-prefix primitive of the rank queries (``value_time_spearman``,
``weighted_median_price``, ``score_auc`` and ``value_ks_test``).

``sorted_prefix`` sorts once and summarizes each block: its first key, its
last key, and a per-``part`` row count or weight sum.  It orders the
summaries by first key and hands each block ref its exclusive per-part
prefix, the count (or weight) of that part's rows in every earlier block.
Only summaries leave the workers, never rows; a block task then finishes
its own rows with vectorized numpy (``midranks``, ``prefix_before``,
``per_part``).

Tie-run invariant: no run of equal sort keys straddles two blocks, so each
block can rank or collapse its own ties.  It holds because Ray's sort
range-partitions on sampled boundaries and a reducer takes every row whose
key falls in its boundary interval, so equal keys meet in one reducer.
That is Ray's implementation rather than its contract, so ``block_prefixes``
asserts it: each block's first key must be strictly greater than the
previous block's last key.

Keys must be non-NULL and non-NaN: Ray's sort can't order None, and it
compares keys to sampled boundaries, which a NaN boundary breaks.
``null_key`` encodes a string column without NULLs, and ``nan_last``
gives a float column a NaN-free key that ranks NaN as one final run, the
way DuckDB orders it.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

Column = pa.Array | pa.ChunkedArray


@ray.remote
def _summarize(t: pa.Table, keys: list[str], part: str,
               weight: str | None):
    if t.num_rows == 0:
        return None
    agg = t.group_by(part).aggregate(
        [(weight, 'sum')] if weight else [([], 'count_all')])
    return (tuple(t.column(k)[0].as_py() for k in keys),
            tuple(t.column(k)[-1].as_py() for k in keys),
            dict(zip(agg.column(part).to_pylist(), agg.column(
                f'{weight}_sum' if weight else 'count_all').to_pylist())))


def block_prefixes(summaries: list) -> tuple[list[int], list[dict], dict]:
    """Order block summaries ``(first_key, last_key, per_part_sums)`` (None
    for an empty block) by first key; return that order, each block's
    exclusive per-part prefix and the per-part totals.  Raises if two
    blocks' key ranges touch or overlap."""
    order = sorted((i for i, s in enumerate(summaries) if s is not None),
                   key=lambda i: summaries[i][0])
    prefixes, running, last = [], {}, None
    for i in order:
        first, end, sums = summaries[i]
        if last is not None and not first > last:
            raise AssertionError('sorted blocks overlap: a tie run '
                                 'straddles two blocks')
        last = end
        prefixes.append(dict(running))
        for p, s in sums.items():
            running[p] = running.get(p, 0) + s
    return order, prefixes, running


def sorted_prefix(ds: ray.data.Dataset, keys: list[str], part: str,
                  weight: str | None = None) -> tuple[list, dict]:
    """Sort ``ds`` by ``keys`` once; return ``[(block_ref, prefix)]`` in key
    order, where ``prefix[p]`` is the number of rows (or the ``weight``
    sum) of part ``p`` in all earlier blocks, and the per-part totals.

    ``part`` must be a small alphabet (an event type, a return flag, a
    label): every block summary and prefix holds one entry per part value.
    Empty blocks are dropped."""
    mat = ds.sort(keys).materialize()
    refs = [ref for bundle in mat.iter_internal_ref_bundles()
            for ref, meta in bundle.blocks if meta.num_rows != 0]
    summaries = ray.get([_summarize.remote(r, keys, part, weight)
                         for r in refs])
    order, prefixes, totals = block_prefixes(summaries)
    return [(refs[i], p) for i, p in zip(order, prefixes)], totals


def run_starts(t: pa.Table, cols: list[str]) -> np.ndarray:
    """Mask of the rows of a sorted table that start a run of equal
    ``cols``."""
    n = t.num_rows
    start = np.zeros(n, bool)
    start[:1] = True
    for c in cols if n > 1 else ():
        a = t.column(c)
        start[1:] |= pc.not_equal(a.slice(1), a.slice(0, n - 1)).to_numpy()
    return start


def per_part(t: pa.Table, part: str, values: dict) -> np.ndarray:
    """``values[part]`` (0 when absent) for every row of a ``part``-sorted
    block; one dict lookup per part run, not per row."""
    head = run_starts(t, [part])
    runs = t.column(part).filter(pa.array(head)).to_pylist()
    return np.array([values.get(p, 0) for p in runs],
                    np.int64)[np.cumsum(head) - 1]


def prefix_before(t: pa.Table, part: str, w: np.ndarray,
                  offsets: dict) -> np.ndarray:
    """Per row of a ``part``-sorted block: ``offsets[part]`` plus the sum of
    ``w`` over the earlier rows of its part in the block."""
    head = run_starts(t, [part])
    excl = np.cumsum(w) - w
    first = np.maximum.accumulate(np.where(head, np.arange(len(w)), 0))
    return per_part(t, part, offsets) + excl - excl[first]


def midranks(t: pa.Table, part: str, col: str, offsets: dict) -> np.ndarray:
    """Doubled midrank ``2P + g + 1`` of every row of a ``(part, col)``-sorted
    block: ``P`` counts the rows of the part with a smaller ``col`` (with
    ``offsets`` from ``sorted_prefix``), ``g`` is the row's tie-run size.
    An integer, so rank sums stay exact."""
    n = t.num_rows
    before = prefix_before(t, part, np.ones(n, np.int64), offsets)
    start = run_starts(t, [part, col])
    heads = np.flatnonzero(start)
    run = np.cumsum(start) - 1
    g = np.diff(np.append(heads, n))
    return 2 * before[heads][run] + g[run] + 1


def nan_last(v: Column) -> dict:
    """Sort-key columns ``{'_nan': int8, 'value': float64}`` for a float
    column: NaN becomes ``(1, 0.0)``, one run after every number."""
    isnan = pc.fill_null(pc.is_nan(v), False)
    return {'_nan': pc.cast(isnan, pa.int8()),
            'value': pc.if_else(isnan, 0.0, v)}


def null_key(s: Column) -> Column:
    """Sortable, injective encoding of a string column: ``''`` for NULL,
    ``'v' + s`` otherwise; ``null_key_value`` decodes it."""
    return pc.fill_null(pc.binary_join_element_wise('v', s, ''), '')


def null_key_value(k: Column) -> Column:
    """The string column a ``null_key`` column encodes."""
    return pc.if_else(pc.equal(k, ''), pa.scalar(None, pa.string()),
                      pc.utf8_slice_codeunits(k, 1))
