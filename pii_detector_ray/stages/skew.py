"""Mega-key (skew) handling for the operators that still group by key.

``sessionize``, ``debounce_counts`` and ``asof_join`` process each key in
ONE ``map_groups`` task: fine for per-user event streams, fatal for a
mega-key (one user holding 10^8 events is one task's memory).  This module
supplies their mitigation, the time-bucket-salt + boundary-carry pattern
of ``stages/hostagg.py``:

1. :func:`hot_keys` — a NARROW two-phase count (per-batch ``group_by``
   partial, one int row per key per batch crosses the shuffle) finds keys
   above a row-count threshold; the resulting set is tiny by definition.
   ``stages/joins.skew_join`` uses it and :func:`split_by_keys` as well.
2. The caller routes hot keys through a salted variant — groups become
   ``(key, ts // bucket_us)`` so no task ever holds more than one bucket of
   one key — and merges bucket-boundary state in a second, BOUNDED pass
   (<= 1-2 summary rows per bucket per key, never raw events).
3. Cold keys take the plain single-groupby path; results are unioned.

All salted variants are EXACT (asserted against the plain path in
``tests/test_skew.py``); salting only changes the shuffle/group shape.

The lag, transition, running-sum and rolling-sum operators need no salt:
they run on one global sort (``stages/ranks.sorted_sequences``), which
range-partitions a mega-key over several blocks by itself.
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
    :func:`debounce_counts_salted`."""
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
