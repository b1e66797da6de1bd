"""Exact ranks and running sums over one global sort: the shared
sorted-prefix primitive of the rank and window queries.  Its callers are
``value_time_spearman``, ``weighted_median_price``, ``score_auc``,
``value_ks_test``, ``orders_cume_dist``, ``orders_percent_rank``,
``sequence_packing``, ``token_budget_selection`` and
``user_activity_gini``.

``sorted_prefix`` sorts once and summarizes each block: its first key, its
last key, and a per-``part`` row count or weight sum (``part=None``: one
part, keyed ``None``).  It orders the summaries by first key and hands each
block ref its exclusive per-part prefix, the count (or weight) of that
part's rows in every earlier block.  Only summaries leave the workers,
never rows; a block task then finishes its own rows with vectorized numpy
(``rank_ties``, ``midranks``, ``prefix_before``, ``per_part``), and
``map_blocks`` collects row outputs as one Dataset.

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
gives a float column a NULL- and NaN-free key that ranks NaN as one run
after every number and NULL as one run after NaN, the way DuckDB orders
them.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

Column = pa.Array | pa.ChunkedArray


@ray.remote
def _summarize(t: pa.Table, keys: list[str], part: str | None,
               weight: str | None):
    if t.num_rows == 0:
        return None
    if part is None:
        sums = {None: pc.sum(t.column(weight)).as_py() if weight
                else t.num_rows}
    else:
        agg = t.group_by(part).aggregate(
            [(weight, 'sum')] if weight else [([], 'count_all')])
        sums = dict(zip(agg.column(part).to_pylist(), agg.column(
            f'{weight}_sum' if weight else 'count_all').to_pylist()))
    return (tuple(t.column(k)[0].as_py() for k in keys),
            tuple(t.column(k)[-1].as_py() for k in keys), sums)


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


def sorted_prefix(ds: ray.data.Dataset, keys: list[str], part: str | None,
                  weight: str | None = None) -> tuple[list, dict]:
    """Sort ``ds`` by ``keys`` once; return ``[(block_ref, prefix)]`` in key
    order, where ``prefix[p]`` is the number of rows (or the ``weight``
    sum) of part ``p`` in all earlier blocks, and the per-part totals.

    ``part`` must be a small alphabet (an event type, a return flag, a
    label): every block summary and prefix holds one entry per part value.
    ``part=None`` makes every row one part, keyed ``None``.  Empty blocks
    are dropped."""
    mat = ds.sort(keys).materialize()
    refs = [ref for bundle in mat.iter_internal_ref_bundles()
            for ref, meta in bundle.blocks if meta.num_rows != 0]
    summaries = ray.get([_summarize.remote(r, keys, part, weight)
                         for r in refs])
    order, prefixes, totals = block_prefixes(summaries)
    return [(refs[i], p) for i, p in zip(order, prefixes)], totals


def map_blocks(fn, blocks: list, schema: pa.Schema,
               *args) -> ray.data.Dataset:
    """One Dataset of the tables ``fn(block, prefix, *args)`` of the
    ``sorted_prefix`` blocks, in key order; with no block, a Dataset of
    ``schema`` with no rows."""
    if not blocks:
        return ray.data.from_arrow(schema.empty_table())
    task = ray.remote(fn)
    return ray.data.from_arrow_refs([task.remote(ref, prefix, *args)
                                     for ref, prefix in blocks])


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


def _cols(part: str | None) -> list[str]:
    return [] if part is None else [part]


def per_part(t: pa.Table, part: str | None, values: dict) -> np.ndarray:
    """``values[part]`` (0 when absent) for every row of a ``part``-sorted
    block; one dict lookup per part run, not per row."""
    if part is None:
        return np.full(t.num_rows, values.get(None, 0), np.int64)
    head = run_starts(t, [part])
    runs = t.column(part).filter(pa.array(head)).to_pylist()
    return np.array([values.get(p, 0) for p in runs],
                    np.int64)[np.cumsum(head) - 1]


def prefix_before(t: pa.Table, part: str | None, w: np.ndarray,
                  offsets: dict) -> np.ndarray:
    """Per row of a ``part``-sorted block: ``offsets[part]`` plus the sum of
    ``w`` over the earlier rows of its part in the block."""
    head = run_starts(t, _cols(part))
    excl = np.cumsum(w) - w
    first = np.maximum.accumulate(np.where(head, np.arange(len(w)), 0))
    return per_part(t, part, offsets) + excl - excl[first]


def rank_ties(t: pa.Table, part: str | None, cols: list[str],
              offsets: dict) -> tuple[np.ndarray, np.ndarray]:
    """Per row of a ``[part] + cols``-sorted block: ``P``, the number of
    rows of its part with smaller ``cols`` (with ``offsets`` from
    ``sorted_prefix``), and ``g``, the size of its run of equal ``cols``."""
    n = t.num_rows
    before = prefix_before(t, part, np.ones(n, np.int64), offsets)
    start = run_starts(t, _cols(part) + cols)
    heads = np.flatnonzero(start)
    run = np.cumsum(start) - 1
    g = np.diff(np.append(heads, n))
    return before[heads][run], g[run]


def midranks(t: pa.Table, part: str, col: str, offsets: dict) -> np.ndarray:
    """Doubled midrank ``2P + g + 1`` of every row of a ``(part, col)``-sorted
    block (``rank_ties``).  An integer, so rank sums stay exact."""
    p, g = rank_ties(t, part, [col], offsets)
    return 2 * p + g + 1


def nan_last(v: Column) -> dict:
    """Sort-key columns ``{'_nan': int8, 'value': float64}`` for a float
    column: NaN becomes ``(1, 0.0)``, one run after every number, and NULL
    ``(2, 0.0)``, one run after NaN."""
    tag = pc.if_else(pc.is_null(v), pa.scalar(2, pa.int8()),
                     pc.cast(pc.is_nan(v), pa.int8()))
    return {'_nan': tag, 'value': pc.if_else(pc.equal(tag, 0), v, 0.0)}


def null_key(s: Column) -> Column:
    """Sortable, injective encoding of a string column: ``''`` for NULL,
    ``'v' + s`` otherwise; ``null_key_value`` decodes it."""
    return pc.fill_null(pc.binary_join_element_wise('v', s, ''), '')


def null_key_value(k: Column) -> Column:
    """The string column a ``null_key`` column encodes."""
    return pc.if_else(pc.equal(k, ''), pa.scalar(None, pa.string()),
                      pc.utf8_slice_codeunits(k, 1))
