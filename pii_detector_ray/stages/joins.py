"""Custom join/window operators Ray Data lacks natively.

Per the build contract (custom operators: compose ``map_batches`` +
``groupby().map_groups`` + explode where semantics allow), each operator
documents the partitioning assumption it relies on:

- :func:`asof_join` — co-partitions BOTH sides by the ``by`` key with one
  groupby over a tagged union; per-key merge is a vectorized
  ``searchsorted``.  Assumes per-key row counts fit one task (true for
  per-user event streams; a mega-key needs time-bucket salting).
- :func:`range_join_broadcast` — the band table is the SMALL side by
  definition (a handful of ranges); it ships once via the task closure and
  each batch resolves bands with one ``searchsorted`` — no shuffle at all.
- :func:`sliding_window_agg` — explodes each row into the (few) windows
  covering it, then a two-phase aggregate; shuffle carries only
  (key, window, partials).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data
from ray.data.aggregate import Count, Sum

from pii_detector_ray.functions.rounding import sql_round_pa


def _empty_asof_frame(lschema, rschema, left_cols: list[str],
                      right_value_cols: list[str], on: str) -> pd.DataFrame:
    """Zero-row pandas frame with the as-of join's exact output schema
    (left columns + prior_* attachments), used for empty groups so every
    emitted block carries a schema."""
    ltypes = dict(zip(lschema.names, lschema.types))
    rtypes = dict(zip(rschema.names, rschema.types))

    def series(t) -> pd.Series:
        if pa.types.is_integer(t):
            return pd.Series([], dtype='int64')
        if pa.types.is_floating(t):
            return pd.Series([], dtype='float64')
        if pa.types.is_boolean(t):
            return pd.Series([], dtype='bool')
        if pa.types.is_timestamp(t):
            # match the input's unit/tz: pyarrow>=13 to_pandas PRESERVES the
            # timestamp unit, so a hardcoded [us] here would give empty
            # groups a different block schema than non-empty ones — the
            # exact RefBundle mismatch this helper exists to prevent
            if t.tz is not None:
                return pd.Series([], dtype=pd.DatetimeTZDtype(t.unit, t.tz))
            return pd.Series([], dtype=f'datetime64[{t.unit}]')
        return pd.Series([], dtype='object')

    out = {c: series(ltypes[c]) for c in left_cols}
    for c in right_value_cols:
        out[f'prior_{c}'] = series(rtypes[c])
    out['prior_' + on] = series(rtypes[on])
    return pd.DataFrame(out)


def make_asof_merge(*, left_cols: list[str], right_value_cols: list[str],
                    on: str, tiebreak: list[str],
                    tolerance_us: int | None,
                    left_int: set[str], right_int: set[str],
                    empty_out: pd.DataFrame, right_side_min: int = 1):
    """The per-key as-of merge shared by the plain (``joins.asof_join``)
    and salted (``skew.asof_join_salted``) paths — ONE body so a semantics
    fix can never leave the two paths inconsistent.  ``right_side_min``:
    rows with ``_side >= right_side_min`` are right rows (the salted path
    adds carry rows with ``_side == 2``)."""

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        lg = g[g['_side'] == 0]
        rg = g[g['_side'] >= right_side_min].sort_values(
            ['_on'] + tiebreak, kind='mergesort')
        if lg.empty or rg.empty:
            # typed zero-row frame, NOT pd.DataFrame(): schema-less empty
            # blocks trip the executor's RefBundle schema check and poison
            # downstream unions (VERDICT r2 'what's wrong' #5)
            return empty_out.copy()
        lt = lg['_on'].to_numpy()
        rt = rg['_on'].to_numpy()
        idx = np.searchsorted(rt, lt, side='right') - 1
        ok = idx >= 0
        if tolerance_us is not None:
            ok &= (lt - rt[np.clip(idx, 0, None)]) <= tolerance_us
        lg = lg[ok]
        picked = rg.iloc[idx[ok]]
        out = lg[left_cols].reset_index(drop=True)   # no right-only NaN leaks
        for c in right_value_cols:
            out[f'prior_{c}'] = picked[c].to_numpy()
        out['prior_' + on] = picked[on].to_numpy()
        for c in left_cols:
            if c in left_int:
                out[c] = out[c].astype('int64')
        if on in right_int:
            out['prior_' + on] = out['prior_' + on].astype('int64')
        for c in right_value_cols:
            if c in right_int:
                out[f'prior_{c}'] = out[f'prior_{c}'].astype('int64')
        return out

    return merge


def asof_join(left: ray.data.Dataset, right: ray.data.Dataset, *,
              by: str, on: str,
              right_value_cols: list[str],
              tolerance_us: int | None = None,
              right_tiebreak: list[str] | None = None,
              hot_key_threshold: int | None = 1_000_000,
              bucket_us: int | None = None) -> ray.data.Dataset:
    """Backward as-of join: for each left row, attach the LATEST right row
    with ``right.on <= left.on`` within the same ``by`` key (DuckDB
    ``ASOF JOIN`` semantics, inner flavor — left rows with no prior right
    row are dropped).

    Both sides are tagged and unioned, so ONE groupby co-partitions them;
    the per-key merge is ``np.searchsorted`` over the sorted right
    timestamps.  ``on`` must be int64-comparable (cast timestamps up front).

    ``right_tiebreak``: extra right-side sort columns after ``on`` — with
    duplicate (by, on) right rows, the picked row is the LAST in
    (on, *tiebreak) order, i.e. ``right_tiebreak=['v']`` gives SQL
    ``max(v) GROUP BY by, on`` pre-dedup semantics WITHOUT a separate
    dedup shuffle (one groupby total instead of two).

    Mega-key guard (VERDICT r2 #4): keys whose combined row count reaches
    ``hot_key_threshold`` (found by a narrow two-phase count; None
    disables) are routed through :func:`stages.skew.asof_join_salted` —
    time-bucketed groups with a boundary carry — so no single task ever
    holds a whole mega-key.  Results are exact either way.
    """
    for side, name in ((left, 'left'), (right, 'right')):
        clash = {'_side', '_on', '_bucket'} & set(side.schema().names)
        assert not clash, (
            f'asof_join reserves columns {sorted(clash)} but the {name} '
            f'side already has them — rename them before joining')

    # only {by, on, value, tiebreak} right columns are ever read — project
    # BEFORE the hot-split/union/shuffle so a wide right table doesn't pay
    # its full width through the co-partitioning (the salted path already
    # projects; this keeps the plain path symmetric)
    right = right.select_columns(
        sorted({by, on, *right_value_cols, *(right_tiebreak or [])}))

    from pii_detector_ray.stages import skew
    hot_parts, (left, right) = skew.split_hot([left, right], by,
                                              hot_key_threshold)
    salted = None
    if hot_parts is not None:
        salted = skew.asof_join_salted(
            hot_parts[0], hot_parts[1], by=by, on=on,
            right_value_cols=right_value_cols,
            tolerance_us=tolerance_us, right_tiebreak=right_tiebreak,
            bucket_us=bucket_us or skew.DEFAULT_BUCKET_US)

    lschema, rschema = left.schema(), right.schema()
    left_cols = list(lschema.names)         # output carries ONLY left columns
                                            # + the prior_* attachments
    tiebreak = list(right_tiebreak or [])
    # the tagged union NaN-fills side-missing columns, coercing int64 to
    # float64 in the per-group frames; restore int dtypes on the way out
    # (left rows and picked right rows are NaN-free by construction)
    left_int = {n for n, t in zip(lschema.names, lschema.types)
                if pa.types.is_integer(t)}
    right_int = {n for n, t in zip(rschema.names, rschema.types)
                 if pa.types.is_integer(t)}

    # ARROW tagging with an ALIGNED schema: side-missing columns become
    # typed nulls, so every block in the union carries the identical arrow
    # schema (heterogeneous pandas tagging emitted per-side schemas and
    # tripped the executor's RefBundle schema check).  The arrow→pandas
    # conversion in map_groups turns null-bearing int columns into float64;
    # the merge casts them back (left rows / picked rows are null-free).
    rnames = list(rschema.names)
    all_fields = list(zip(lschema.names, lschema.types)) + \
        [(n, t) for n, t in zip(rschema.names, rschema.types)
         if n not in set(lschema.names)]
    # int columns missing from one side get typed nulls in the union, so
    # the per-group pandas frames coerce them to float64; values past 2^53
    # would corrupt SILENTLY on the cast back — guard per batch (columns
    # present on both sides stay int in pandas and need no check)
    both = set(lschema.names) & set(rschema.names)
    at_risk = {n for n, t in all_fields
               if pa.types.is_integer(t) and n not in both}

    def tag_arrow(side: int, have: set[str]):
        def f(t: pa.Table) -> pa.Table:
            # SQL ASOF semantics: the equality on ``by`` and the inequality
            # on ``on`` never match NULL — drop such rows up front (a null
            # ts would otherwise become NaN in the per-group frame and
            # searchsorted would fabricate a match against the LAST right
            # row; review r5)
            t = t.filter(pc.and_(pc.is_valid(t.column(by)),
                                 pc.is_valid(t.column(on))))
            n = len(t)
            cols = {}
            for name, typ in all_fields:
                if name in have:
                    c = t.column(name)
                    if name in at_risk:
                        from pii_detector_ray.stages.skew import \
                            check_float_exact
                        mm = pc.min_max(c)
                        check_float_exact(name, mm['min'].as_py(),
                                          mm['max'].as_py())
                    cols[name] = c.cast(typ) if c.type != typ else c
                else:
                    cols[name] = pa.nulls(n, typ)
            cols['_side'] = pa.array(np.full(n, side, dtype=np.int8))
            cols['_on'] = pc.cast(t.column(on), pa.int64())
            return pa.table(cols)
        return f

    tagged = left.map_batches(tag_arrow(0, set(left_cols)),
                              batch_format='pyarrow').union(
        right.map_batches(tag_arrow(1, set(rnames)), batch_format='pyarrow'))

    empty_out = _empty_asof_frame(lschema, rschema, left_cols,
                                  right_value_cols, on)

    merge = make_asof_merge(
        left_cols=left_cols, right_value_cols=right_value_cols, on=on,
        tiebreak=tiebreak, tolerance_us=tolerance_us, left_int=left_int,
        right_int=right_int, empty_out=empty_out)

    plain = tagged.groupby(by).map_groups(merge, batch_format='pandas')
    return plain.union(salted) if salted is not None else plain


def range_join_broadcast(ds: ray.data.Dataset, *, value_col: str,
                         bounds: list[float], labels: list[str],
                         out_col: str = 'band') -> ray.data.Dataset:
    """Non-equi range join against a small band table: band i covers
    ``[bounds[i], bounds[i+1])`` (the last band is open-ended when
    ``len(bounds) == len(labels)``).  The band table rides the task closure
    (broadcast); each batch resolves membership with one ``searchsorted`` —
    the 100 TB shape for small-side non-equi joins."""
    edges = np.asarray(bounds, dtype=np.float64)
    names = list(labels)
    assert len(bounds) in (len(names), len(names) + 1), (
        f'range_join_broadcast: {len(bounds)} bounds need {len(bounds)} '
        f'(open-ended) or {len(bounds) - 1} labels, got {len(names)} — '
        'a silent mismatch would clip rows into the wrong band')

    def assign(t: pa.Table) -> pa.Table:
        v = t.column(value_col).to_numpy(zero_copy_only=False).astype(np.float64)
        idx = np.searchsorted(edges, v, side='right') - 1
        # nulls (NaN) match no band — SQL comparison semantics drop them
        keep = (idx >= 0) & ~np.isnan(v)
        if len(edges) > len(names):      # explicit upper edge on the last band
            keep &= v < edges[-1]
        idx = np.clip(idx, 0, len(names) - 1)
        lab = np.array(names, dtype=object)[idx]
        out = t.append_column(out_col, pa.array(lab, pa.string()))
        return out.filter(pa.array(keep))

    return ds.map_batches(assign, batch_format='pyarrow')


def sliding_window_agg(ds: ray.data.Dataset, *, key_col: str, ts_col: str,
                       value_col: str, window_us: int,
                       slide_us: int) -> ray.data.Dataset:
    """Sliding-window aggregate: count + sum of ``value_col`` per
    (key, window_start) for windows of ``window_us`` sliding every
    ``slide_us`` (``window_us`` must be a multiple of ``slide_us``).

    Each row explodes into the ``window_us / slide_us`` windows covering
    it; the shuffle then carries only (key, window_start, partial) rows via
    a per-batch pre-aggregate."""
    k = window_us // slide_us
    assert k * slide_us == window_us, 'window must be a multiple of slide'

    def explode(t: pa.Table) -> pa.Table:
        # Arrow-native null parity (review r5): a null ts means NULL window
        # arithmetic in SQL — the row still explodes into k copies, all
        # landing in ONE NULL window_start group (GROUP BY over the
        # generate_series cross join); converting via numpy instead flipped
        # the batch to float64 (schema-mismatched blocks) and turned null
        # values into NaN, which arrow counts as valid.  ``take`` keeps the
        # key/value columns arrow-typed (nulls preserved, no object arrays).
        ts_a = pc.cast(t.column(ts_col), pa.int64())
        valid = pc.is_valid(ts_a)
        n_null = len(t) - pc.sum(pc.cast(valid, pa.int8())).as_py()
        tv, ts_v = t.filter(valid), ts_a.filter(valid)
        ts = ts_v.to_numpy()
        base = (ts // slide_us) * slide_us
        starts = (base[:, None] - np.arange(k, dtype=np.int64)[None, :] * slide_us)
        idx = np.repeat(np.arange(len(tv), dtype=np.int64), k)
        tbl = pa.table({
            key_col: tv.column(key_col).take(idx),
            'window_start': pa.array(starts.reshape(-1)),
            value_col: tv.column(value_col).take(idx),
        })
        if n_null:
            tn = t.filter(pc.invert(valid))
            idxn = np.repeat(np.arange(n_null, dtype=np.int64), k)
            tbl = pa.concat_tables([tbl, pa.table({
                key_col: tn.column(key_col).take(idxn),
                'window_start': pa.nulls(n_null * k, pa.int64()),
                value_col: tn.column(value_col).take(idxn),
            })])
        # per-batch partial aggregate: one row per (key, window) per batch;
        # count_all (== SQL count(*)) so null values still count rows,
        # while arrow's null-skipping sum matches SQL sum(value)
        agg = tbl.group_by([key_col, 'window_start']).aggregate(
            [([], 'count_all'), (value_col, 'sum')])
        return pa.table({
            key_col: agg.column(key_col),
            'window_start': agg.column('window_start'),
            '_n': pc.cast(agg.column('count_all'), pa.int64()),
            '_sum': agg.column(f'{value_col}_sum'),
        })

    out = (ds.map_batches(explode, batch_format='pyarrow')
           .groupby([key_col, 'window_start'])
           .aggregate(Sum('_n', alias_name='n_events'),
                      Sum('_sum', alias_name='sum_value')))

    def fin(t: pa.Table) -> pa.Table:
        return pa.table({
            key_col: t.column(key_col),
            'window_start': t.column('window_start'),
            'n_events': t.column('n_events'),
            'sum_value': sql_round_pa(t.column('sum_value'), 2),
        })

    return out.map_batches(fin, batch_format='pyarrow')


def skew_join(left: ray.data.Dataset, right: ray.data.Dataset, *,
              on: str, hot_key_threshold: int | None = 1_000_000,
              num_partitions: int | None = None) -> ray.data.Dataset:
    """INNER hash join with hot-key mitigation.

    A plain co-partitioned ``Dataset.join`` sends every row of a key to ONE
    aggregator — a key holding 10% of a 10^12-row table is one actor's
    memory.  This operator:

    1. materializes and cleans the right side; when it passes
       ``dedup.broadcasts`` the join is ``dedup.hash_join``'s broadcast
       join with no hot-key screen: a broadcast probe sends no key to a
       single aggregator, and a lazy left stays lazy.  Otherwise it
       materializes the left side once and finds its hot keys with the
       narrow two-phase screen (``skew.hot_keys``; zero extra shuffle
       when no key is hot);
    2. cold keys take ``dedup.hash_join`` (itself a broadcast join when
       the cold sides pass ``dedup.broadcasts``);
    3. hot keys bypass the shuffle: when the hot sides pass the same
       ``dedup.broadcasts`` the matching RIGHT rows go through
       ``dedup.broadcast_join`` (built once, each left block probed with
       ``pa.Table.join``); otherwise the textbook salt-replicate join
       runs — left hot rows get a per-row salt 0..R-1, right hot rows are
       replicated R times, and the join key becomes (key, salt), spreading
       the hot key over R aggregators.  Both paths are EXACT for inner
       joins (asserted against the plain join in tests/test_joins.py).

    Column contract: same as ``Dataset.join`` (shared non-key column names
    need suffixes; keep the sides disjoint).
    """
    from pii_detector_ray.stages.dedup import (
        broadcast_join, broadcasts, drop_empty_blocks, hash_join,
        join_partitions)
    from pii_detector_ray.stages.skew import hot_keys, split_by_keys

    nparts = num_partitions or join_partitions()
    right = drop_empty_blocks(right)
    hot = set()
    if hot_key_threshold is not None and not broadcasts(left, right):
        left = drop_empty_blocks(left)    # read by the screen and the splits
        hot = hot_keys(left, on, hot_key_threshold)
    if not hot:
        return hash_join(left, right, on, num_partitions=nparts)

    left_hot, left_cold = split_by_keys(left, on, hot)
    right_hot, right_cold = split_by_keys(right, on, hot)

    cold = skew_join(left_cold, right_cold, on=on, hot_key_threshold=None,
                     num_partitions=nparts)

    # either hot path materializes both hot sides; their sizes pick it
    right_hot = drop_empty_blocks(right_hot)
    if right_hot.count() == 0:
        return cold                      # inner join: hot keys match nothing
    left_hot = drop_empty_blocks(left_hot)
    if broadcasts(left_hot, right_hot):
        hot_joined = drop_empty_blocks(broadcast_join(left_hot, right_hot, on))
    else:
        R = nparts

        def salt_left(batch: pa.Table) -> pa.Table:
            n = len(batch)
            return batch.append_column(
                '_salt', pa.array(np.arange(n, dtype=np.int64) % R))

        def replicate_right(batch: pa.Table) -> pa.Table:
            reps = [batch.append_column(
                '_salt', pa.array(np.full(len(batch), s, dtype=np.int64)))
                for s in range(R)]
            return pa.concat_tables(reps)

        hot_joined = drop_empty_blocks(hash_join(
            left_hot.map_batches(salt_left, batch_format='pyarrow'),
            right_hot.map_batches(replicate_right, batch_format='pyarrow'),
            (on, '_salt'), num_partitions=nparts).drop_columns(['_salt']))
    return cold.union(hot_joined)
