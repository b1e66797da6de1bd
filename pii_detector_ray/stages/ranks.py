"""Exact ranks, running sums and per-key sequences over one global sort:
the shared primitives of the rank, window and event-sequence queries.

``sorted_prefix``'s callers are ``value_time_spearman``,
``weighted_median_price``, ``score_auc``, ``value_ks_test``,
``orders_cume_dist``, ``orders_percent_rank``, ``sequence_packing``,
``token_budget_selection`` and ``user_activity_gini``.
``sorted_sequences``' callers are the operators ``event_transitions``,
``event_deltas``, ``cumulative_sum`` and ``rolling_sum`` below, run by the
queries ``event_transitions``, ``event_markov2``, ``event_deltas``,
``user_cumulative`` and ``user_rolling3``.

``sorted_prefix`` sorts once and summarizes each block: its first key, its
last key, and a per-``part`` row count or weight sum (``part=None``: one
part, keyed ``None``).  It orders the summaries by first key and hands each
block ref its exclusive per-part prefix, the count (or weight) of that
part's rows in every earlier block.  Only summaries leave the workers,
never rows; a block task then finishes its own rows with vectorized numpy
(``rank_ties``, ``midranks``, ``prefix_before``, ``per_part``), and
``map_blocks`` collects row outputs as one Dataset.

``sorted_sequences`` sorts once by (key, order columns) and summarizes each
block by its last key run: that run's last ``tail`` rows and weight sum.
A driver fold (``sequence_carries``) hands each block the carry of the key
that straddles into it, so a block task sees its first key's preceding
rows and running sum, and needs no other block: lag is a shifted compare,
and keys split at ``run_starts``.  A mega-key spans several blocks like
any other key, so no task holds all of its rows.

Tie-run invariant: no run of equal sort keys straddles two blocks, so each
block can rank or collapse its own ties.  It holds because Ray's sort
range-partitions on sampled boundaries and a reducer takes every row whose
key falls in its boundary interval, so equal keys meet in one reducer.
That is Ray's implementation rather than its contract, so ``block_order``
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
def _summarize(t: pa.Table, keys: list[str], fn, *args):
    if t.num_rows == 0:
        return None
    return (tuple(t.column(k)[0].as_py() for k in keys),
            tuple(t.column(k)[-1].as_py() for k in keys), fn(t, *args))


def _part_sums(t: pa.Table, part: str | None, weight: str | None) -> dict:
    if part is None:
        return {None: pc.sum(t.column(weight)).as_py() if weight
                else t.num_rows}
    agg = t.group_by(part).aggregate(
        [(weight, 'sum')] if weight else [([], 'count_all')])
    return dict(zip(agg.column(part).to_pylist(), agg.column(
        f'{weight}_sum' if weight else 'count_all').to_pylist()))


def block_order(summaries: list) -> list[int]:
    """Indices of the block summaries ``(first_key, last_key, ...)`` (None
    for an empty block) in first-key order.  Raises if two blocks' key
    ranges touch or overlap."""
    order = sorted((i for i, s in enumerate(summaries) if s is not None),
                   key=lambda i: summaries[i][0])
    last = None
    for i in order:
        if last is not None and not summaries[i][0] > last:
            raise AssertionError('sorted blocks overlap: a tie run '
                                 'straddles two blocks')
        last = summaries[i][1]
    return order


def block_prefixes(summaries: list) -> tuple[list[int], list[dict], dict]:
    """``block_order`` of summaries ``(first_key, last_key, per_part_sums)``,
    each block's exclusive per-part prefix in that order, and the per-part
    totals."""
    order = block_order(summaries)
    prefixes, running = [], {}
    for i in order:
        prefixes.append(dict(running))
        for p, s in summaries[i][2].items():
            running[p] = running.get(p, 0) + s
    return order, prefixes, running


def _sorted_blocks(ds: ray.data.Dataset, keys: list[str], fn,
                   *args) -> tuple[list, list]:
    """Sort ``ds`` by ``keys`` once; return the refs of its non-empty
    blocks and their summaries ``(first_key, last_key, fn(block, *args))``,
    in block order (not yet key order)."""
    mat = ds.sort(keys).materialize()
    refs = [ref for bundle in mat.iter_internal_ref_bundles()
            for ref, meta in bundle.blocks if meta.num_rows != 0]
    return refs, ray.get([_summarize.remote(r, keys, fn, *args)
                          for r in refs])


def sorted_prefix(ds: ray.data.Dataset, keys: list[str], part: str | None,
                  weight: str | None = None) -> tuple[list, dict]:
    """Sort ``ds`` by ``keys`` once; return ``[(block_ref, prefix)]`` in key
    order, where ``prefix[p]`` is the number of rows (or the ``weight``
    sum) of part ``p`` in all earlier blocks, and the per-part totals.

    ``part`` must be a small alphabet (an event type, a return flag, a
    label): every block summary and prefix holds one entry per part value.
    ``part=None`` makes every row one part, keyed ``None``.  Empty blocks
    are dropped."""
    refs, summaries = _sorted_blocks(ds, keys, _part_sums, part, weight)
    order, prefixes, totals = block_prefixes(summaries)
    return [(refs[i], p) for i, p in zip(order, prefixes)], totals


def block_tasks(fn, blocks: list, *args) -> list:
    """Refs of the tables ``fn(block, prefix, *args)`` of the
    ``sorted_prefix`` (or ``sorted_sequences``) blocks, in key order."""
    task = ray.remote(fn)
    return [task.remote(ref, prefix, *args) for ref, prefix in blocks]


def map_blocks(fn, blocks: list, schema: pa.Schema,
               *args) -> ray.data.Dataset:
    """One Dataset of the ``block_tasks`` tables, in key order; with no
    block, a Dataset of ``schema`` with no rows.  It is materialized, which
    for tables already in the object store costs no Ray Data execution, so
    reading it back (``to_pandas``) costs none either."""
    if not blocks:
        return ray.data.from_arrow(schema.empty_table()).materialize()
    return ray.data.from_arrow_refs(block_tasks(fn, blocks, *args)) \
        .materialize()


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


# ---------------------------------------------------------------------------
# Per-key sequences: lag, transitions, running and rolling sums over the rows
# of each key in (ts, event_id) order, on one sort.
# ---------------------------------------------------------------------------

KEY = ['_n0', '_v0']   # sort-key columns of the partition key


def _sequence_keys(t: pa.Table, cols: list[str]) -> pa.Table:
    """``t`` plus, per column ``cols[i]``, a NULL flag ``_n<i>`` (int8, 1
    for NULL, so NULL sorts last as DuckDB orders it) and its values
    ``_v<i>`` with NULL filled (a timestamp as int64 microseconds)."""
    for i, c in enumerate(cols):
        a = t.column(c)
        if pa.types.is_timestamp(a.type):
            a = pc.cast(a, pa.int64())
        text = pa.types.is_string(a.type) or pa.types.is_large_string(a.type)
        fill = pa.scalar('' if text else 0, a.type)
        t = t.append_column(f'_n{i}', pc.cast(pc.is_null(a), pa.int8())) \
            .append_column(f'_v{i}', pc.fill_null(a, fill))
    return t


def _last_run(t: pa.Table, tail: int, weight: str | None) -> tuple:
    """The last ``tail`` rows of the sorted block's last key run, that run's
    ``weight`` total (an int64 pair: the sum of its non-NULL values and
    their count; 0 without ``weight``), and whether it fills the block."""
    n = t.num_rows
    head = int(np.flatnonzero(run_starts(t, KEY))[-1])
    total = 0
    if weight:
        w = t.column(weight).slice(head)
        total = np.array([pc.sum(w).as_py() or 0, len(w) - w.null_count],
                         np.int64)
    return t.take(np.arange(max(head, n - tail), n)), total, head == 0


def sequence_carries(summaries: list, tail: int) -> list[tuple]:
    """Driver fold over ordered ``_last_run`` block summaries: per block,
    the carry ``(rows, total)`` of the key its first row continues, namely
    that key's last ``tail`` rows and its ``weight`` total in all earlier
    blocks; ``(None, 0)`` when the block starts a new key.  A key can span
    several blocks, so a block that holds one key only extends the carry."""
    out, key, rows, total = [], None, None, 0
    for first, last, (run, s, whole) in summaries:
        cont = key == first[:2]
        out.append((rows, total) if cont else (None, 0))
        if cont and whole:
            rows = pa.concat_tables([rows, run])
            rows, total = rows.slice(max(rows.num_rows - tail, 0)), total + s
        else:
            key, rows, total = last[:2], run, s
    return out


def sorted_sequences(ds: ray.data.Dataset, key: str, order: list[str],
                     tail: int = 0, weight: str | None = None) -> list:
    """Sort ``ds`` once by ``key`` then ``order`` (NULLs last); return
    ``[(block_ref, carry)]`` in key order.  ``carry`` is
    ``sequence_carries``' ``(rows, total)``: the last ``tail`` rows of the
    key that straddles into the block from earlier blocks (``None`` when it
    starts a new key), and that key's ``weight`` total there (``_last_run``).

    Blocks carry ``_sequence_keys``' columns; ``KEY`` marks the partition
    key, and ``_n1``/``_v1`` the first ``order`` column.  A mega-key is
    range-partitioned over several blocks like any other, so no task holds
    more than one block of it."""
    cols = [key] + order
    keyed = ds.map_batches(_sequence_keys, fn_args=(cols,),
                           batch_format='pyarrow')
    refs, summaries = _sorted_blocks(
        keyed, [f'_{x}{i}' for i in range(len(cols)) for x in 'nv'],
        _last_run, tail, weight)
    ordered = block_order(summaries)
    carries = sequence_carries([summaries[i] for i in ordered], tail)
    return [(refs[i], c) for i, c in zip(ordered, carries)]


def _with_carry(t: pa.Table, carry: tuple) -> tuple[pa.Table, np.ndarray]:
    """The block with its carried rows in front, and the mask of the rows
    that start a key run there."""
    rows = carry[0]
    if rows is not None:
        t = pa.concat_tables([rows, t])
    t = t.combine_chunks()
    return t, run_starts(t, KEY)


def _user_events(ds: ray.data.Dataset, **kwargs) -> list:
    return sorted_sequences(ds, 'user_id', ['ts', 'event_id'], **kwargs)


TRANSITIONS = pa.schema([('prev_type', pa.string()),
                         ('next_type', pa.string()),
                         ('n_transitions', pa.int64())])


def _transitions(t: pa.Table, carry: tuple) -> pa.Table:
    t, start = _with_carry(t, carry)
    n = t.num_rows
    tp = t.column('event_type')
    prev, nxt = tp.slice(0, n - 1), tp.slice(1)
    keep = pc.and_(pa.array(~start[1:]), pc.is_valid(prev))
    pairs = pa.table({'prev_type': prev.filter(keep),
                      'next_type': nxt.filter(keep)})
    return pairs.group_by(['prev_type', 'next_type'], use_threads=False) \
        .aggregate([([], 'count_all')])


def event_transitions(ds: ray.data.Dataset) -> pa.Table:
    """First-order Markov transition counts ``TRANSITIONS``: per user,
    consecutive (event_type, next event_type) pairs in (ts, event_id)
    order, counted over all users.  Input columns: user_id, event_id, ts,
    event_type.  A pair whose previous type is NULL never counts, while a
    NULL next type forms its own group (`_EVENT_TRANSITIONS_SQL`'s
    ``WHERE prev_type IS NOT NULL ... GROUP BY``).  Each block counts its
    pairs, the first one against the carried last row of its user; the
    driver sums the per-block counts."""
    parts = ray.get(block_tasks(_transitions, _user_events(ds, tail=1)))
    if not parts:
        return TRANSITIONS.empty_table()
    counts = pa.concat_tables(parts).group_by(
        ['prev_type', 'next_type']).aggregate([('count_all', 'sum')])
    return counts.select(['prev_type', 'next_type', 'count_all_sum']) \
        .rename_columns(TRANSITIONS.names)


def _deltas(t: pa.Table, carry: tuple) -> pa.Table:
    t, start = _with_carry(t, carry)
    null = t.column('_n1').to_numpy() != 0
    ts = t.column('_v1').to_numpy()
    keep = ~start[1:] & ~null[1:] & ~null[:-1]
    return pa.table({
        'event_id': pc.cast(t.column('event_id').slice(1), pa.int64())
        .filter(pa.array(keep)),
        'delta_us': pa.array((ts[1:] - ts[:-1])[keep], pa.int64())})


def event_deltas(ds: ray.data.Dataset) -> ray.data.Dataset:
    """lag() window: per event, microseconds since the user's previous
    event in (ts, event_id) order; the first event of each user, and an
    event with a NULL ts or after one, yield no row.  Input columns:
    user_id, event_id, ts.  Output: event_id, delta_us."""
    return map_blocks(_deltas, _user_events(ds, tail=1), pa.schema(
        [('event_id', pa.int64()), ('delta_us', pa.int64())]))


def _window_sums(t: pa.Table, carry: tuple, val_col: str,
                 window: int | None, out_col: str) -> pa.Table:
    c = 0 if carry[0] is None else carry[0].num_rows
    t, start = _with_carry(t, carry)
    n = t.num_rows
    col = t.column(val_col)
    idx = np.arange(n)
    head = np.maximum.accumulate(np.where(start, idx, 0))
    lo = head if window is None else np.maximum(head, idx + 1 - window)
    # rows of the first run continue the carried key's running total
    first = head == 0
    carried = np.zeros(2, np.int64) + carry[1]
    sums, counts = (
        np.cumsum(np.concatenate(([0], x.to_numpy(zero_copy_only=False)
                                  .astype(np.int64))))
        for x in (pc.fill_null(col, 0), pc.is_valid(col)))
    out = sums[1:] - sums[lo] + np.where(first, carried[0], 0)
    seen = counts[1:] - counts[lo] + np.where(first, carried[1], 0)
    return pa.table({
        'event_id': pc.cast(t.column('event_id').slice(c), pa.int64()),
        out_col: pa.array(out[c:], pa.int64(), mask=seen[c:] == 0)})


def cumulative_sum(ds: ray.data.Dataset, *, val_col: str) -> ray.data.Dataset:
    """Per event, the running total of ``val_col`` (int64) over the user's
    events up to and including it in (ts, event_id) order.  Input columns:
    user_id, event_id, ts, ``val_col``.  Output: event_id,
    cum_<val_col>.  As SQL ``sum``, NULL values are skipped, and the total
    is NULL until the user's first non-NULL value.  A block's first user
    continues from the carried sum and count of its values in earlier
    blocks."""
    out_col = f'cum_{val_col}'
    return map_blocks(
        _window_sums, _user_events(ds, weight=val_col),
        pa.schema([('event_id', pa.int64()), (out_col, pa.int64())]),
        val_col, None, out_col)


def rolling_sum(ds: ray.data.Dataset, *, val_col: str,
                window: int = 3) -> ray.data.Dataset:
    """Per event, the sum of ``val_col`` (int64) over the user's last
    ``window`` events (including this one) in (ts, event_id) order.  Input
    columns: user_id, event_id, ts, ``val_col``.  Output: event_id,
    win_<val_col>, skipping NULL values and NULL for a window of only
    NULLs, as SQL ``sum``.  A block's first user is completed by its
    carried last ``window - 1`` rows from earlier blocks."""
    out_col = f'win_{val_col}'
    return map_blocks(
        _window_sums, _user_events(ds, tail=window - 1),
        pa.schema([('event_id', pa.int64()), (out_col, pa.int64())]),
        val_col, window, out_col)
