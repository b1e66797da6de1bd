"""Mega-key (skew) handling for the per-key window operators.

``sessionize`` / ``asof_join`` / ``event_deltas`` / ``cumulative_sum`` /
``rolling_sum`` co-partition by a key and process each key in ONE
``map_groups`` task — fine for per-user event streams, fatal for a
mega-key (one user holding 10^8 events is one task's memory).  This
module supplies the standard mitigation (VERDICT r2 #4),
the same time-bucket-salt + boundary-carry pattern as ``stages/hostagg.py``:

1. :func:`hot_keys` — a NARROW two-phase count (per-batch ``group_by``
   partial, one int row per key per batch crosses the shuffle) finds keys
   above a row-count threshold; the resulting set is tiny by definition.
2. The caller routes hot keys through a salted variant — groups become
   ``(key, ts // bucket_us)`` so no task ever holds more than one bucket of
   one key — and merges bucket-boundary state in a second, BOUNDED pass
   (<= 1-2 summary rows per bucket per key, never raw events).
3. Cold keys take the plain single-groupby path; results are unioned.

All salted variants are EXACT (asserted against the plain path in
``tests/test_skew.py``); salting only changes the shuffle/group shape.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.aggregate import Sum

# one day of microseconds — matches the per-user event-stream shape (a
# mega-user's day is bounded even when their history is not)
DEFAULT_BUCKET_US = 86_400_000_000

# largest int64 magnitude exactly representable in float64; the as-of merge
# round-trips side-missing int columns through float64 (typed nulls force
# the pandas coercion), which is exact only below this bound
MAX_FLOAT_EXACT_INT = 1 << 53


def check_float_exact(name: str, lo, hi) -> None:
    """Raise when [lo, hi] leaves the float64-exact int range.  Past the
    bound the float round-trip is a SILENT low-bit corruption (2^53 + 1 →
    2^53.0 → 2^53), undetectable after the fact — so the tagging stages
    call this per batch on every at-risk int column."""
    if lo is None or hi is None:
        return
    if lo < -MAX_FLOAT_EXACT_INT or hi > MAX_FLOAT_EXACT_INT:
        raise ValueError(
            f'asof_join: int column {name!r} holds values beyond 2^53; the '
            f'null-fill float64 round-trip would corrupt them. Cast the '
            f'column to string (or decimal) before joining.')


def parquet_total_rows(paths: str | list[str]) -> int | None:
    """Total row count from parquet FOOTERS — zero data scanned.  Lets a
    caller skip the hot-key screen entirely (``hot_key_threshold=None``)
    when the whole table holds fewer rows than the threshold: no key can
    be hot, and the screen — shuffle-free but a full re-execution of the
    lazy upstream chain — costs a second pass over the input.  Returns
    None when any path is not a parquet file/dir (caller keeps the guard).
    """
    import os

    import pyarrow.parquet as pq
    total = 0
    stack = [paths] if isinstance(paths, str) else list(paths)
    try:
        while stack:
            p = stack.pop()
            if os.path.isdir(p):
                stack.extend(os.path.join(p, n) for n in os.listdir(p)
                             if not n.startswith(('.', '_')))
            else:
                total += pq.ParquetFile(p).metadata.num_rows
    except Exception:
        return None
    return total


def hot_threshold_for(paths: str | list[str],
                      threshold: int = 1_000_000) -> int | None:
    """``threshold`` if the table COULD hold a hot key, else None (guard
    skipped).  Footer-only; safe because per-key counts never exceed total
    rows."""
    total = parquet_total_rows(paths)
    return None if total is not None and total < threshold else threshold


def split_hot(datasets: list, key_col: str, threshold: int | None):
    """Shared hot-key routing for the per-key window operators: find keys
    whose row count across ALL ``datasets`` reaches ``threshold`` and split
    each dataset on them.  Returns ``(hot_parts, cold_parts)`` —
    ``hot_parts`` is ``None`` when the guard is disabled or no key is hot,
    and ``cold_parts`` is then the input list unchanged (no filter stage
    added)."""
    if threshold is None:
        return None, list(datasets)
    keys = datasets[0].select_columns([key_col])
    for d in datasets[1:]:
        keys = keys.union(d.select_columns([key_col]))
    hot = hot_keys(keys, key_col, threshold)
    if not hot:
        return None, list(datasets)
    pairs = [split_by_keys(d, key_col, hot) for d in datasets]
    return [p[0] for p in pairs], [p[1] for p in pairs]


def hot_keys(ds: ray.data.Dataset, key_col: str, threshold: int) -> set:
    """Keys of ``ds`` with row count >= ``threshold``.

    Two-stage, so the common no-hot-key case costs ONE shuffle-free scan:

    1. **Pigeonhole screen** — each batch emits one row (its max per-key
       count + its row count); no shuffle, partials reduce on the driver.
       A key with >= ``threshold`` rows across B batches must put
       >= threshold/B rows into SOME batch, so
       ``max_batch_count < threshold / n_batches`` PROVES no hot key
       exists — zero false negatives, and the screen also exits early when
       total rows < threshold.
    2. **Exact count** — only when the screen fires: per-batch ``group_by``
       partials (one int row per key per batch crosses the shuffle) →
       global sum → filter; only keys above the threshold reach the driver.
    """
    narrow = ds.select_columns([key_col])

    def screen(t: pa.Table) -> pa.Table:
        agg = pa.table({key_col: t.column(key_col)}) \
            .group_by(key_col).aggregate([([], 'count_all')])
        mx = pc.max(agg.column('count_all')).as_py() or 0
        return pa.table({'_max': pa.array([int(mx)], pa.int64()),
                         '_rows': pa.array([len(t)], pa.int64())})

    parts = narrow.map_batches(screen, batch_format='pyarrow').take_all()
    n_batches = max(len(parts), 1)
    total = sum(p['_rows'] for p in parts)
    max_batch = max((p['_max'] for p in parts), default=0)
    if total < threshold or max_batch < threshold / n_batches:
        return set()

    def partial(t: pa.Table) -> pa.Table:
        agg = pa.table({key_col: t.column(key_col)}) \
            .group_by(key_col).aggregate([([], 'count_all')])
        return pa.table({key_col: agg.column(key_col),
                         '_n': pc.cast(agg.column('count_all'), pa.int64())})

    counts = (narrow.map_batches(partial, batch_format='pyarrow')
              .groupby(key_col).aggregate(Sum('_n', alias_name='n')))
    rows = counts.filter(expr=f'n >= {int(threshold)}').take_all()
    # NULL keys never route hot: SQL equality joins drop them, so the cold
    # co-partitioned path (Ray's native join) already gives the right
    # semantics; including None here would also poison sorted() in
    # split_by_keys.  (A pathologically null-heavy GROUPBY key would need
    # its own mitigation — none of the salted operators key on nullable
    # columns today.)
    return {r[key_col] for r in rows if r[key_col] is not None}


def split_by_keys(ds: ray.data.Dataset, key_col: str,
                  keys: set) -> tuple[ray.data.Dataset, ray.data.Dataset]:
    """(rows with key in ``keys``, rows without).  The (small) key set is
    broadcast once via ``ray.put``; both outputs re-execute the lazy
    upstream — measured cheaper than a materialize barrier for narrow
    pruned reads (see memory: lazy double-execution beat materialization).

    NULL handling: rows with a null key always land on the WITHOUT side
    (``pc.is_in`` returns False for null inputs when the value set has no
    null — verified); a None in ``keys`` is sorted last rather than
    tripping ``sorted()`` on a mixed set."""
    non_null = sorted(k for k in keys if k is not None)
    if len(non_null) < len(keys):        # None was in the set
        non_null.append(None)
    ref = ray.put(pa.array(non_null))

    def mk(keep_in: bool):
        def f(t: pa.Table) -> pa.Table:
            mask = pc.is_in(t.column(key_col), value_set=ray.get(ref))
            if not keep_in:
                mask = pc.invert(mask)
            return t.filter(mask)
        return f

    return (ds.map_batches(mk(True), batch_format='pyarrow'),
            ds.map_batches(mk(False), batch_format='pyarrow'))


# ---------------------------------------------------------------------------
# Salted sessionize: per-(user, day-bucket) local sessions; only each
# bucket's FIRST and LAST session can merge across the boundary (interior
# sessions are separated from the bucket edge by a full session gap), so the
# per-user merge pass sees <= 2 summary rows per bucket — bounded even when
# every event is its own session.
# ---------------------------------------------------------------------------

def sessionize_salted(ds: ray.data.Dataset, *, gap_us: int,
                      bucket_us: int = DEFAULT_BUCKET_US) -> ray.data.Dataset:
    """Exact gap-based sessionization with bounded per-task memory.
    Input columns: user_id, ts (timestamp), value.  Output matches
    ``sessionize.sessionize``: user_id, session_start, n_events, sum_value.
    """
    from pii_detector_ray.functions.rounding import sql_round_np

    def prep(t: pa.Table) -> pa.Table:
        ts = pc.cast(t.column('ts'), pa.int64())
        bucket = pc.divide(ts, bucket_us)   # int64 floor-div (ts >= 0)
        return pa.table({'user_id': t.column('user_id'), '_ts': ts,
                         'value': t.column('value'), '_bucket': bucket})

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values('_ts', kind='mergesort')
        ts = g['_ts'].to_numpy()
        new_s = np.ones(len(ts), dtype=bool)
        new_s[1:] = (ts[1:] - ts[:-1]) > gap_us
        sid = np.cumsum(new_s) - 1
        agg = pd.DataFrame({'sid': sid, 'ts': ts,
                            'value': g['value'].to_numpy()}) \
            .groupby('sid').agg(session_start=('ts', 'min'),
                                session_end=('ts', 'max'),
                                n_events=('ts', 'size'),
                                sum_value=('value', 'sum')).reset_index()
        last = agg['sid'].max()
        agg['_border'] = (agg['sid'] == 0) | (agg['sid'] == last)
        agg.insert(0, 'user_id', g['user_id'].iloc[0])
        return agg.drop(columns=['sid'])

    local = ds.map_batches(prep, batch_format='pyarrow') \
        .groupby(['user_id', '_bucket']) \
        .map_groups(per_bucket, batch_format='pandas')

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            'user_id': df['user_id'].to_numpy(),
            'session_start': df['session_start'].astype('int64'),
            'n_events': df['n_events'].astype('int64'),
            'sum_value': sql_round_np(df['sum_value'].to_numpy(), 2),
        })

    interior = local.filter(expr='_border == False') \
        .map_batches(finish, batch_format='pandas')

    def merge_user(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values('session_start', kind='mergesort')
        starts = g['session_start'].to_numpy()
        ends = g['session_end'].to_numpy()
        new_s = np.ones(len(g), dtype=bool)
        new_s[1:] = (starts[1:] - ends[:-1]) > gap_us
        sid = np.cumsum(new_s) - 1
        agg = pd.DataFrame({'sid': sid, 'session_start': starts,
                            'n_events': g['n_events'].to_numpy(),
                            'sum_value': g['sum_value'].to_numpy()}) \
            .groupby('sid').agg(session_start=('session_start', 'min'),
                                n_events=('n_events', 'sum'),
                                sum_value=('sum_value', 'sum')).reset_index(drop=True)
        agg.insert(0, 'user_id', g['user_id'].iloc[0])
        return finish(agg)

    border = local.filter(expr='_border == True') \
        .groupby('user_id').map_groups(merge_user, batch_format='pandas')
    return interior.union(border)


# ---------------------------------------------------------------------------
# Salted lag(): per-(user, day-bucket) local diffs; one boundary-summary row
# per bucket (first event's id+ts, last event's ts) feeds a per-user pass
# that resolves the cross-bucket deltas.
# ---------------------------------------------------------------------------

def event_deltas_salted(ds: ray.data.Dataset, *,
                        bucket_us: int = DEFAULT_BUCKET_US) -> ray.data.Dataset:
    """Exact per-user lag deltas with bounded per-task memory.  Input
    columns: user_id, event_id, ts.  Output matches the plain path:
    event_id, delta_us (first event per user dropped)."""
    def prep(t: pa.Table) -> pa.Table:
        ts = pc.cast(t.column('ts'), pa.int64())
        return pa.table({'user_id': t.column('user_id'),
                         'event_id': t.column('event_id'), '_ts': ts,
                         '_bucket': pc.divide(ts, bucket_us)})

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(['_ts', 'event_id'], kind='mergesort')
        ts = g['_ts'].to_numpy()
        eid = g['event_id'].astype('int64').to_numpy()
        d = np.diff(ts)
        # interior deltas are final (_b = -1); the boundary row carries
        # (first event id+ts, last ts) for the per-user cross-bucket pass
        out = pd.DataFrame({'event_id': eid[1:], 'delta_us': d,
                            '_last_ts': np.int64(0), '_b': np.int64(-1)})
        head = pd.DataFrame({'event_id': eid[:1], 'delta_us': ts[:1],
                             '_last_ts': ts[-1:],
                             '_b': g['_bucket'].iloc[:1].astype('int64')})
        out = pd.concat([head, out], ignore_index=True)
        out.insert(0, 'user_id', g['user_id'].iloc[0])
        return out

    local = ds.map_batches(prep, batch_format='pyarrow') \
        .groupby(['user_id', '_bucket']) \
        .map_groups(per_bucket, batch_format='pandas')

    interior = local.filter(expr='_b == -1') \
        .select_columns(['event_id', 'delta_us'])

    def merge_user(g: pd.DataFrame) -> pd.DataFrame:
        # one row per bucket: delta_us holds the bucket's FIRST ts here
        g = g.sort_values('_b', kind='mergesort')
        first_ts = g['delta_us'].to_numpy()
        last_ts = g['_last_ts'].to_numpy()
        eid = g['event_id'].astype('int64').to_numpy()
        return pd.DataFrame({'event_id': eid[1:],
                             'delta_us': first_ts[1:] - last_ts[:-1]})

    border = local.filter(expr='_b >= 0') \
        .groupby('user_id').map_groups(merge_user, batch_format='pandas') \
        .select_columns(['event_id', 'delta_us'])
    return interior.union(border)


def event_deltas(ds: ray.data.Dataset, *,
                 hot_key_threshold: int | None = 1_000_000,
                 bucket_us: int = DEFAULT_BUCKET_US) -> ray.data.Dataset:
    """lag() window: per event, microseconds since the user's previous
    event in (ts, event_id) order (first event per user dropped).  Input
    columns: user_id, event_id, ts.  Plain path: one per-user
    ``map_groups`` with a vectorized diff; mega-keys route through
    :func:`event_deltas_salted` (VERDICT r2 #4)."""
    hot_parts, (ds,) = split_hot([ds], 'user_id', hot_key_threshold)
    salted = None
    if hot_parts is not None:
        salted = event_deltas_salted(hot_parts[0], bucket_us=bucket_us)

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({'user_id': t.column('user_id'),
                         'event_id': t.column('event_id'),
                         '_ts': pc.cast(t.column('ts'), pa.int64())})

    def deltas(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(['_ts', 'event_id'], kind='mergesort')
        d = g['_ts'].diff()
        out = pd.DataFrame({'event_id': g['event_id'].astype('int64'),
                            'delta_us': d})
        out = out[out['delta_us'].notna()]
        out['delta_us'] = out['delta_us'].astype('int64')
        return out

    plain = (ds.map_batches(prep, batch_format='pyarrow')
             .groupby('user_id').map_groups(deltas, batch_format='pandas'))
    return plain.union(salted) if salted is not None else plain


def event_transitions(ds: ray.data.Dataset, *,
                      hot_key_threshold: int | None = 1_000_000,
                      bucket_us: int = DEFAULT_BUCKET_US
                      ) -> ray.data.Dataset:
    """First-order Markov transition partials: per user, consecutive
    (prev event_type, next event_type) pairs in (ts, event_id) order,
    pre-counted per group.  Input columns: user_id, event_id, ts,
    event_type.  Output: (prev_type, next_type, _n) PARTIALS — the caller
    closes the (type x type)-bounded aggregate.  Mega-users route through
    :func:`event_transitions_salted` (the event_deltas hot-key contract)."""
    hot_parts, (ds,) = split_hot([ds], 'user_id', hot_key_threshold)
    salted = None
    if hot_parts is not None:
        salted = event_transitions_salted(hot_parts[0], bucket_us=bucket_us)

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({'user_id': t.column('user_id'),
                         'event_id': t.column('event_id'),
                         'event_type': t.column('event_type'),
                         '_ts': pc.cast(t.column('ts'), pa.int64())})

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(['_ts', 'event_id'], kind='mergesort')
        tp = g['event_type'].to_numpy()
        if len(tp) < 2:
            return pd.DataFrame({'prev_type': [], 'next_type': [],
                                 '_n': []}).astype(
                {'prev_type': 'object', 'next_type': 'object',
                 '_n': 'int64'})
        return _pair_counts(tp[:-1], tp[1:])

    plain = (ds.map_batches(prep, batch_format='pyarrow')
             .groupby('user_id').map_groups(pairs, batch_format='pandas'))
    return plain.union(salted) if salted is not None else plain


def _pair_counts(prev: np.ndarray, nxt: np.ndarray) -> pd.DataFrame:
    """(prev_type, next_type, _n) counts under the transition operators'
    NULL contract (the `_EVENT_TRANSITIONS_SQL` oracle): a pair whose
    PREV type is NULL never counts (`WHERE prev_type IS NOT NULL` — it
    conflates lag-at-first-row with a genuinely NULL-typed prev event),
    while a NULL NEXT type forms its own group (SQL GROUP BY emits the
    NULL group; pandas' default dropna=True silently dropped it — the
    debounce NULL-group divergence class, ADVICE r5)."""
    keep = pd.notna(prev)
    return pd.DataFrame({'prev_type': prev[keep], 'next_type': nxt[keep]}) \
        .groupby(['prev_type', 'next_type'], sort=False, dropna=False) \
        .size().rename('_n').reset_index()


def event_transitions_salted(ds: ray.data.Dataset, *,
                             bucket_us: int = DEFAULT_BUCKET_US
                             ) -> ray.data.Dataset:
    """Exact per-user transition pairs with bounded per-task memory:
    per-(user, day-bucket) local pairs, plus one boundary row per bucket
    carrying the bucket's FIRST and LAST event types (with the first
    (ts, event_id) for ordering); the per-user pass adds the cross-bucket
    (last of k, first of k+1) pairs.  Output matches the plain path:
    (prev_type, next_type, _n) partials."""
    def prep(t: pa.Table) -> pa.Table:
        ts = pc.cast(t.column('ts'), pa.int64())
        return pa.table({'user_id': t.column('user_id'),
                         'event_id': t.column('event_id'),
                         'event_type': t.column('event_type'), '_ts': ts,
                         '_bucket': pc.divide(ts, bucket_us)})

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(['_ts', 'event_id'], kind='mergesort')
        tp = g['event_type'].to_numpy()
        out = _pair_counts(tp[:-1], tp[1:])
        out['_b'] = np.int64(-1)
        head = pd.DataFrame({
            'prev_type': tp[-1:],           # bucket's LAST type
            'next_type': tp[:1],            # bucket's FIRST type
            '_n': np.int64(0),
            '_b': g['_bucket'].iloc[:1].astype('int64')})
        out = pd.concat([head, out], ignore_index=True)
        out.insert(0, 'user_id', g['user_id'].iloc[0])
        return out

    local = ds.map_batches(prep, batch_format='pyarrow') \
        .groupby(['user_id', '_bucket']) \
        .map_groups(per_bucket, batch_format='pandas')

    interior = local.filter(expr='_b == -1') \
        .select_columns(['prev_type', 'next_type', '_n'])

    def merge_user(g: pd.DataFrame) -> pd.DataFrame:
        # one row per bucket: prev_type = bucket LAST, next_type = FIRST
        g = g.sort_values('_b', kind='mergesort')
        last_tp = g['prev_type'].to_numpy()
        first_tp = g['next_type'].to_numpy()
        if len(g) < 2:
            return pd.DataFrame({'prev_type': [], 'next_type': [],
                                 '_n': []}).astype(
                {'prev_type': 'object', 'next_type': 'object',
                 '_n': 'int64'})
        return _pair_counts(last_tp[:-1], first_tp[1:])

    border = local.filter(expr='_b >= 0') \
        .groupby('user_id').map_groups(merge_user, batch_format='pandas') \
        .select_columns(['prev_type', 'next_type', '_n'])
    return interior.union(border)


def debounce_counts_salted(ds: ray.data.Dataset, *, threshold_us: int,
                           bucket_us: int = DEFAULT_BUCKET_US
                           ) -> ray.data.Dataset:
    """Exact per-user debounce with bounded per-task memory: within a
    (user, day-bucket) group every event except the bucket's FIRST decides
    locally (kept iff the gap from the previous raw event >= threshold);
    one boundary row per bucket carries the first event's type + ts and
    the bucket's last ts, and the per-user pass decides the bucket-first
    events (a user's globally-first event is always kept).  Output matches
    the plain path: (event_type, _n) kept-count partials."""
    def prep(t: pa.Table) -> pa.Table:
        ts = pc.cast(t.column('ts'), pa.int64())
        return pa.table({'user_id': t.column('user_id'),
                         'event_id': t.column('event_id'),
                         'event_type': t.column('event_type'), '_ts': ts,
                         '_bucket': pc.divide(ts, bucket_us)})

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(['_ts', 'event_id'], kind='mergesort')
        tp = g['event_type'].to_numpy()
        ts = g['_ts'].to_numpy()
        kept = np.diff(ts) >= threshold_us     # decided: all but first
        out = pd.DataFrame({'event_type': tp[1:][kept]}) \
            .groupby('event_type', sort=False, dropna=False).size() \
            .rename('_n').reset_index()
        out['_first_ts'] = np.int64(0)
        out['_last_ts'] = np.int64(0)
        out['_b'] = np.int64(-1)
        head = pd.DataFrame({
            'event_type': tp[:1],              # bucket's FIRST event
            '_n': np.int64(0),
            '_first_ts': ts[:1],
            '_last_ts': ts[-1:],
            '_b': g['_bucket'].iloc[:1].astype('int64')})
        out = pd.concat([head, out], ignore_index=True)
        out.insert(0, 'user_id', g['user_id'].iloc[0])
        return out

    local = ds.map_batches(prep, batch_format='pyarrow') \
        .groupby(['user_id', '_bucket']) \
        .map_groups(per_bucket, batch_format='pandas')

    interior = local.filter(expr='_b == -1') \
        .select_columns(['event_type', '_n'])

    def merge_user(g: pd.DataFrame) -> pd.DataFrame:
        # one row per bucket: first event's type/ts + bucket's last ts
        g = g.sort_values('_b', kind='mergesort')
        first_ts = g['_first_ts'].to_numpy()
        last_ts = g['_last_ts'].to_numpy()
        tp = g['event_type'].to_numpy()
        kept = np.ones(len(g), bool)           # global first: always kept
        kept[1:] = first_ts[1:] - last_ts[:-1] >= threshold_us
        return pd.DataFrame({'event_type': tp[kept]}) \
            .groupby('event_type', sort=False, dropna=False).size() \
            .rename('_n').reset_index()

    border = local.filter(expr='_b >= 0') \
        .groupby('user_id').map_groups(merge_user, batch_format='pandas') \
        .select_columns(['event_type', '_n'])
    return interior.union(border)


def debounce_counts(ds: ray.data.Dataset, *, threshold_us: int,
                    hot_key_threshold: int | None = 1_000_000,
                    bucket_us: int = DEFAULT_BUCKET_US) -> ray.data.Dataset:
    """Streaming throttle/debounce: an event is KEPT iff it is its user's
    first event or the gap from the previous raw event (in (ts, event_id)
    order) is >= ``threshold_us``.  Input columns: user_id, event_id, ts,
    event_type.  Output: (event_type, _n) kept-count PARTIALS — the caller
    closes the type-bounded aggregate.  Mega-users route through
    :func:`debounce_counts_salted` (the event_deltas hot-key contract)."""
    hot_parts, (ds,) = split_hot([ds], 'user_id', hot_key_threshold)
    salted = None
    if hot_parts is not None:
        salted = debounce_counts_salted(hot_parts[0],
                                        threshold_us=threshold_us,
                                        bucket_us=bucket_us)

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({'user_id': t.column('user_id'),
                         'event_id': t.column('event_id'),
                         'event_type': t.column('event_type'),
                         '_ts': pc.cast(t.column('ts'), pa.int64())})

    def kept_counts(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(['_ts', 'event_id'], kind='mergesort')
        ts = g['_ts'].to_numpy()
        kept = np.ones(len(g), bool)
        kept[1:] = np.diff(ts) >= threshold_us
        return pd.DataFrame({'event_type':
                             g['event_type'].to_numpy()[kept]}) \
            .groupby('event_type', sort=False, dropna=False).size() \
            .rename('_n').reset_index()

    plain = (ds.map_batches(prep, batch_format='pyarrow')
             .groupby('user_id').map_groups(kept_counts,
                                            batch_format='pandas'))
    return plain.union(salted) if salted is not None else plain


# ---------------------------------------------------------------------------
# Salted backward as-of join: groups become (by, bucket); a left row's match
# is either an in-bucket right row or the carried latest-right-row from an
# earlier bucket.  The carry pass shuffles only per-(key, bucket) argmax
# partials (one narrow row per bucket per batch), never events.
# ---------------------------------------------------------------------------

def asof_join_salted(left: ray.data.Dataset, right: ray.data.Dataset, *,
                     by: str, on: str, right_value_cols: list[str],
                     tolerance_us: int | None = None,
                     right_tiebreak: list[str] | None = None,
                     bucket_us: int = DEFAULT_BUCKET_US) -> ray.data.Dataset:
    """Exact backward as-of join with bounded per-task memory (same
    semantics as ``joins.asof_join``, including ``right_tiebreak``)."""
    lschema, rschema = left.schema(), right.schema()
    left_cols = list(lschema.names)
    tiebreak = list(right_tiebreak or [])
    # the tagged union fills side-missing columns with NaN, which coerces
    # int64 to float64 in the per-group frames; the merge casts back (left
    # rows and picked right rows are NaN-free, and event-scale ints are
    # exact in float64)
    left_int = {n for n, t in zip(lschema.names, lschema.types)
                if pa.types.is_integer(t)}
    right_int = {n for n, t in zip(rschema.names, rschema.types)
                 if pa.types.is_integer(t)}
    # same 2^53 guard as joins.asof_join: side-missing int columns take the
    # float64 round-trip and must stay in the exact range
    _both = set(lschema.names) & set(rschema.names)
    _at_risk = {n for n in (left_int | right_int) if n not in _both}

    def tag(side: int, cols: list[str]):
        def f(df: pd.DataFrame) -> pd.DataFrame:
            # SQL ASOF semantics: the ``by`` equality and ``on`` inequality
            # never match NULL — drop such rows before the int64 cast
            # (mirrors joins.asof_join.tag_arrow)
            df = df[df[by].notna() & df[on].notna()]
            for c in _at_risk.intersection(cols):
                # pandas min/max skip NaN (a nullable int column arrives as
                # float64-with-NaN here); all-null columns skip the guard
                mn, mx = df[c].min(), df[c].max()
                if pd.notna(mn):
                    check_float_exact(c, int(mn), int(mx))
            out = df[cols].copy()
            out['_side'] = side
            out['_on'] = df[on].astype('int64')
            out['_bucket'] = out['_on'] // bucket_us
            return out
        return f

    right_cols = sorted({by, on, *right_value_cols, *tiebreak})
    tagged_l = left.map_batches(tag(0, left_cols), batch_format='pandas')
    tagged_r = right.map_batches(tag(1, right_cols), batch_format='pandas')

    # --- carry: latest right row per (key, bucket), delivered to every
    # LEFT bucket as a virtual right row with _side=2 ---
    def right_partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(['_on'] + tiebreak, kind='mergesort')
        return df.groupby([by, '_bucket'], sort=False).tail(1)

    def left_marks(df: pd.DataFrame) -> pd.DataFrame:
        out = df[[by, '_bucket']].drop_duplicates().copy()
        out['_side'] = 0
        out['_on'] = np.int64(0)
        for c in right_cols:
            if c not in (by, on):
                out[c] = None
        return out

    carry_in = tagged_r.map_batches(right_partial, batch_format='pandas') \
        .union(tagged_l.map_batches(left_marks, batch_format='pandas'))

    def make_carries(g: pd.DataFrame) -> pd.DataFrame:
        rp = g[g['_side'] == 1].sort_values(['_bucket', '_on'] + tiebreak,
                                            kind='mergesort')
        lb = np.unique(g.loc[g['_side'] == 0, '_bucket'].to_numpy())
        if rp.empty or lb.size == 0:
            return rp.iloc[0:0]      # typed empty — keeps the block schema
        rb = rp['_bucket'].to_numpy()
        idx = np.searchsorted(rb, lb, side='left') - 1   # latest right bucket < b
        ok = idx >= 0
        picked = rp.iloc[idx[ok]].copy()
        picked['_bucket'] = lb[ok]
        picked['_side'] = 2
        return picked

    carries = carry_in.groupby(by).map_groups(make_carries,
                                              batch_format='pandas')

    from pii_detector_ray.stages.joins import _empty_asof_frame, \
        make_asof_merge
    empty_out = _empty_asof_frame(lschema, rschema, left_cols,
                                  right_value_cols, on)
    # ONE merge body shared with joins.asof_join (review r5: the two copies
    # had already diverged once); carry rows are _side == 2, hence min 1
    merge = make_asof_merge(
        left_cols=left_cols, right_value_cols=right_value_cols, on=on,
        tiebreak=tiebreak, tolerance_us=tolerance_us, left_int=left_int,
        right_int=right_int, empty_out=empty_out, right_side_min=1)

    return tagged_l.union(tagged_r, carries) \
        .groupby([by, '_bucket']).map_groups(merge, batch_format='pandas')


# ---------------------------------------------------------------------------
# Running-total window (sum ... OVER (PARTITION BY key ORDER BY ts, id
# ROWS UNBOUNDED PRECEDING)) with the same mega-key salting as event_deltas.
# Integer value column so distributed re-association is exact (callers
# convert currency to cents with functions/rounding before this stage).
# ---------------------------------------------------------------------------

def cumulative_sum(ds: ray.data.Dataset, *, val_col: str,
                   hot_key_threshold: int | None = 1_000_000,
                   bucket_us: int = DEFAULT_BUCKET_US) -> ray.data.Dataset:
    """Per event, the running total of ``val_col`` (int64) over the user's
    events up to and including it in (ts, event_id) order.  Input columns:
    user_id, event_id, ts, ``val_col``.  Output: event_id, cum_<val_col>.

    Plain path: one per-user ``map_groups`` (sort + cumsum).  Mega-keys
    route through :func:`cumulative_sum_salted`: per-(user, day-bucket)
    local cumsums, a BOUNDED per-user pass over one summary row per bucket
    to compute exclusive bucket offsets, and a co-partitioned join adding
    the offset back — no task ever holds more than one bucket of one user.
    """
    out_col = f'cum_{val_col}'
    hot_parts, (ds,) = split_hot([ds], 'user_id', hot_key_threshold)
    salted = None
    if hot_parts is not None:
        salted = cumulative_sum_salted(hot_parts[0], val_col=val_col,
                                       bucket_us=bucket_us)

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({'user_id': t.column('user_id'),
                         'event_id': t.column('event_id'),
                         '_ts': pc.cast(t.column('ts'), pa.int64()),
                         val_col: pc.cast(t.column(val_col), pa.int64())})

    def cum(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(['_ts', 'event_id'], kind='mergesort')
        return pd.DataFrame({
            'event_id': g['event_id'].astype('int64'),
            out_col: g[val_col].to_numpy(np.int64).cumsum()})

    plain = (ds.map_batches(prep, batch_format='pyarrow')
             .groupby('user_id').map_groups(cum, batch_format='pandas'))
    return plain.union(salted) if salted is not None else plain


def cumulative_sum_salted(ds: ray.data.Dataset, *, val_col: str,
                          bucket_us: int = DEFAULT_BUCKET_US
                          ) -> ray.data.Dataset:
    """Exact running totals with bounded per-task memory (see
    :func:`cumulative_sum`)."""
    from pii_detector_ray.stages.dedup import hash_join
    out_col = f'cum_{val_col}'

    def prep(t: pa.Table) -> pa.Table:
        ts = pc.cast(t.column('ts'), pa.int64())
        return pa.table({'user_id': t.column('user_id'),
                         'event_id': t.column('event_id'), '_ts': ts,
                         val_col: pc.cast(t.column(val_col), pa.int64()),
                         '_bucket': pc.divide(ts, bucket_us)})

    # each group emits its local cumsum rows (_tag=0) plus ONE summary row
    # (_tag=1, _local = bucket total) — the event_deltas tagged-row shape,
    # so no second shuffle of output-sized rows is needed to get totals
    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(['_ts', 'event_id'], kind='mergesort')
        v = g[val_col].to_numpy(np.int64).cumsum()
        # user_id keeps its input dtype (string keys are valid partition
        # keys — the plain path never coerces, so hot routing must not
        # start crashing on them; review r5)
        out = pd.DataFrame({
            'user_id': g['user_id'].reset_index(drop=True),
            '_bucket': g['_bucket'].astype('int64').reset_index(drop=True),
            'event_id': g['event_id'].astype('int64').reset_index(drop=True),
            '_local': v, '_tag': np.int64(0)})
        summ = pd.DataFrame({'user_id': [g['user_id'].iloc[0]],
                             '_bucket': [int(g['_bucket'].iloc[0])],
                             'event_id': [np.int64(-1)],
                             '_local': [v[-1]], '_tag': [np.int64(1)]})
        return pd.concat([out, summ], ignore_index=True)

    local = ds.map_batches(prep, batch_format='pyarrow') \
        .groupby(['user_id', '_bucket']) \
        .map_groups(per_bucket, batch_format='pandas')

    def offsets(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values('_bucket', kind='mergesort')
        tot = g['_local'].to_numpy(np.int64)
        off = np.concatenate(([np.int64(0)], tot.cumsum()[:-1]))
        return pd.DataFrame({'user_id': g['user_id'].reset_index(drop=True),
                             '_bucket': g['_bucket'].astype('int64')
                                         .reset_index(drop=True),
                             '_off': off})

    # summaries are one narrow row per (user, bucket) — bounded per task
    offs = local.filter(expr='_tag == 1') \
        .select_columns(['user_id', '_bucket', '_local']) \
        .groupby('user_id').map_groups(offsets, batch_format='pandas')

    joined = hash_join(
        local.filter(expr='_tag == 0')
             .select_columns(['user_id', '_bucket', 'event_id', '_local']),
        offs, ('user_id', '_bucket'))

    def add_off(t: pa.Table) -> pa.Table:
        return pa.table({
            'event_id': t.column('event_id'),
            out_col: pc.add(t.column('_local'), t.column('_off'))})

    return joined.map_batches(add_off, batch_format='pyarrow')


# ---------------------------------------------------------------------------
# Rolling-window sum (sum ... OVER (PARTITION BY key ORDER BY ts, id ROWS
# BETWEEN W-1 PRECEDING AND CURRENT ROW)).  Salted path: a bucket's rows
# beyond index W-2 are final locally; only the first W-1 rows per bucket
# are "pending" and meet the previous buckets' ≤W-1 tail rows in a BOUNDED
# per-user pass (≤ 2(W-1) summary rows per bucket, never raw streams).
# ---------------------------------------------------------------------------

def rolling_sum(ds: ray.data.Dataset, *, val_col: str, window: int = 3,
                hot_key_threshold: int | None = 1_000_000,
                bucket_us: int = DEFAULT_BUCKET_US) -> ray.data.Dataset:
    """Per event, the sum of ``val_col`` (int64) over the user's last
    ``window`` events (including this one) in (ts, event_id) order.  Input
    columns: user_id, event_id, ts, ``val_col``.  Output: event_id,
    win_<val_col>."""
    out_col = f'win_{val_col}'
    hot_parts, (ds,) = split_hot([ds], 'user_id', hot_key_threshold)
    salted = None
    if hot_parts is not None:
        salted = rolling_sum_salted(hot_parts[0], val_col=val_col,
                                    window=window, bucket_us=bucket_us)

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({'user_id': t.column('user_id'),
                         'event_id': t.column('event_id'),
                         '_ts': pc.cast(t.column('ts'), pa.int64()),
                         val_col: pc.cast(t.column(val_col), pa.int64())})

    def roll(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(['_ts', 'event_id'], kind='mergesort')
        v = g[val_col].to_numpy(np.int64)
        c = np.concatenate(([np.int64(0)], v.cumsum()))
        w = c[1:] - c[np.maximum(np.arange(len(v)) + 1 - window, 0)]
        return pd.DataFrame({'event_id': g['event_id'].astype('int64'),
                             out_col: w})

    plain = (ds.map_batches(prep, batch_format='pyarrow')
             .groupby('user_id').map_groups(roll, batch_format='pandas'))
    return plain.union(salted) if salted is not None else plain


def rolling_sum_salted(ds: ray.data.Dataset, *, val_col: str,
                       window: int = 3,
                       bucket_us: int = DEFAULT_BUCKET_US) -> ray.data.Dataset:
    """Exact rolling sums with bounded per-task memory (see
    :func:`rolling_sum`).  Tags: _tag 0 = final row (win complete in its
    bucket), 1 = pending row (needs prior-bucket tail), 2 = tail row."""
    out_col = f'win_{val_col}'
    carry = window - 1

    def prep(t: pa.Table) -> pa.Table:
        ts = pc.cast(t.column('ts'), pa.int64())
        return pa.table({'user_id': t.column('user_id'),
                         'event_id': t.column('event_id'), '_ts': ts,
                         val_col: pc.cast(t.column(val_col), pa.int64()),
                         '_bucket': pc.divide(ts, bucket_us)})

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(['_ts', 'event_id'], kind='mergesort')
        v = g[val_col].to_numpy(np.int64)
        n = len(v)
        c = np.concatenate(([np.int64(0)], v.cumsum()))
        w = c[1:] - c[np.maximum(np.arange(n) + 1 - window, 0)]
        eid = g['event_id'].to_numpy(np.int64)
        ts = g['_ts'].to_numpy(np.int64)
        uid = g['user_id'].iloc[0]      # input dtype preserved (str keys ok)
        bkt = np.int64(g['_bucket'].iloc[0])
        n_pend = min(carry, n)
        frames = [pd.DataFrame({          # final rows (index >= carry)
            'user_id': uid, '_bucket': bkt, '_ts': ts[n_pend:],
            'event_id': eid[n_pend:], val_col: v[n_pend:],
            out_col: w[n_pend:], '_k': np.int64(-1), '_tag': np.int64(0)})]
        # pending: win so far covers only the in-bucket prefix (rows 0.._k)
        frames.append(pd.DataFrame({
            'user_id': uid, '_bucket': bkt, '_ts': ts[:n_pend],
            'event_id': eid[:n_pend], val_col: v[:n_pend],
            out_col: w[:n_pend], '_k': np.arange(n_pend, dtype=np.int64),
            '_tag': np.int64(1)}))
        n_tail = min(carry, n)
        frames.append(pd.DataFrame({      # tails (last rows, for carry)
            'user_id': uid, '_bucket': bkt, '_ts': ts[n - n_tail:],
            'event_id': eid[n - n_tail:], val_col: v[n - n_tail:],
            out_col: np.int64(0), '_k': np.int64(-1), '_tag': np.int64(2)}))
        return pd.concat([f for f in frames if len(f)], ignore_index=True)

    local = ds.map_batches(prep, batch_format='pyarrow') \
        .groupby(['user_id', '_bucket']) \
        .map_groups(per_bucket, batch_format='pandas')

    final = local.filter(expr='_tag == 0') \
        .select_columns(['event_id', out_col])

    if window == 1:
        # carry == 0: every row is final within its own bucket — there are
        # no pending/tail rows at all, and unioning the (empty) 8-column
        # resolved stream would mix block schemas (review r5)
        return final

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(['_bucket', '_ts', 'event_id'], kind='mergesort')
        tails = g[g['_tag'] == 2]
        pend = g[g['_tag'] == 1]
        t_bkt = tails['_bucket'].to_numpy(np.int64)
        t_val = tails[val_col].to_numpy(np.int64)
        out_ids, out_win = [], []
        for _, row in pend.iterrows():
            # pending index _k has in-bucket win = sum of rows 0.._k; the
            # remaining (window-1-_k) terms are the last that many rows
            # before this bucket — exactly the tail concatenation's suffix
            # (any prior row missing from a tail is followed by >= window-1
            # rows in its own bucket, so it cannot be in the suffix)
            need = window - 1 - int(row['_k'])
            prior = t_val[t_bkt < row['_bucket']][-need:] if need > 0 \
                else np.empty(0, np.int64)
            out_ids.append(int(row['event_id']))
            out_win.append(int(row[out_col]) + int(prior.sum()))
        return pd.DataFrame({'event_id': np.array(out_ids, np.int64),
                             out_col: np.array(out_win, np.int64)})

    resolved = local.filter(expr='_tag != 0') \
        .groupby('user_id').map_groups(resolve, batch_format='pandas')
    return final.union(resolved)
