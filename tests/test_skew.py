"""Mega-key handling.  The salted operators of ``stages/skew.py`` are
EXACT (equal to the plain single-groupby path) and the hybrid routing
engages only above the hot-key threshold.  The per-user sequence operators
of ``stages/ranks.py`` have no salted path: on mega-user streams they equal
a serial reference, and their sort spreads a mega-user over several
blocks.

Values in the fixtures are multiples of 0.25 so float sums are
order-independent — the equality checks below are exact, not approximate.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from pii_detector_ray.stages import ranks, skew
from pii_detector_ray.stages.joins import asof_join
from pii_detector_ray.stages.sessionize import sessionize

MIN_US = 60_000_000
DAY_US = skew.DEFAULT_BUCKET_US


def _events_ds(n_users=8, seed=5, mega_user=None, mega_n=0):
    """Random multi-day event streams; optional mega-user with ``mega_n``
    events at a dense 1/min cadence spanning many day-buckets."""
    rng = np.random.default_rng(seed)
    users, ts, vals, eids = [], [], [], []
    eid = 0
    for u in range(n_users):
        n = int(rng.integers(5, 60))
        # gaps of 1..2000 minutes: sessions cut at 30min, spans several days
        gaps = rng.integers(1, 2000, n).astype(np.int64) * MIN_US
        t = np.cumsum(gaps) + int(rng.integers(0, DAY_US))
        users += [u] * n
        ts += t.tolist()
        vals += (rng.integers(0, 400, n) / 4.0).tolist()
        eids += range(eid, eid + n)
        eid += n
    if mega_user is not None:
        t = (np.cumsum(np.full(mega_n, MIN_US, dtype=np.int64))
             + DAY_US // 3)
        users += [mega_user] * mega_n
        ts += t.tolist()
        vals += ((np.arange(mega_n) % 8) / 4.0).tolist()
        eids += range(eid, eid + mega_n)
    return ray.data.from_arrow(pa.table({
        'user_id': pa.array(users, pa.int64()),
        'event_id': pa.array(eids, pa.int64()),
        'ts': pa.array(np.array(ts, dtype='int64'), pa.timestamp('us')),
        'value': pa.array(vals, pa.float64()),
    })).repartition(6)


def _sorted(df: pd.DataFrame, cols) -> pd.DataFrame:
    return df.sort_values(cols).reset_index(drop=True)


def _in_user_order(ds) -> pd.DataFrame:
    """The rows of ``ds`` in (user_id, ts, event_id) order, with ``_ts`` the
    int64 microseconds of ``ts``."""
    df = ds.to_pandas()
    df['_ts'] = df['ts'].to_numpy('datetime64[us]').astype(np.int64)
    return df.sort_values(['user_id', '_ts', 'event_id'], kind='mergesort')


def _serial_deltas(ds) -> pd.DataFrame:
    df = _in_user_order(ds)
    d = df.groupby('user_id')['_ts'].diff()
    keep = d.notna()
    return _sorted(pd.DataFrame({
        'event_id': df['event_id'][keep].astype('int64'),
        'delta_us': d[keep].astype('int64')}), ['event_id'])


def _serial_sums(ds, out_col: str, window: int | None = None) -> pd.DataFrame:
    """Per event, the running (``window=None``) or rolling sum of ``cents``
    over its user's events so far."""
    df = _in_user_order(ds)
    g = df.groupby('user_id')['cents']
    df[out_col] = g.cumsum() if window is None else \
        g.rolling(window, min_periods=1).sum() \
        .reset_index(level=0, drop=True).astype('int64')
    return _sorted(df[['event_id', out_col]], ['event_id'])


def test_sessionize_salted_equals_plain():
    ds = _events_ds()
    plain = sessionize(ds, gap_minutes=30, hot_key_threshold=None).to_pandas()
    salted = skew.sessionize_salted(
        ds.select_columns(['user_id', 'ts', 'value']),
        gap_us=30 * MIN_US).to_pandas()
    key = ['user_id', 'session_start']
    assert _sorted(plain, key).equals(_sorted(salted, key))


def test_sessionize_routing_engages_on_hot_key():
    ds = _events_ds(mega_user=99, mega_n=3000)
    plain = sessionize(ds, gap_minutes=30, hot_key_threshold=None).to_pandas()
    routed = sessionize(ds, gap_minutes=30, hot_key_threshold=1000).to_pandas()
    key = ['user_id', 'session_start']
    assert _sorted(plain, key).equals(_sorted(routed, key))
    # the dense mega-user never gaps -> exactly one merged session
    hot = routed[routed['user_id'] == 99]
    assert len(hot) == 1 and int(hot['n_events'].iloc[0]) == 3000


def test_event_deltas_mega_user_equals_serial():
    ds = _events_ds(mega_user=99, mega_n=2500)
    got = ranks.event_deltas(ds.select_columns(['user_id', 'event_id', 'ts']))
    assert _sorted(got.to_pandas(), ['event_id']).equals(_serial_deltas(ds))


def _asof_sides(seed=7, mega=False):
    rng = np.random.default_rng(seed)
    n_l, n_r = (4000, 1500) if mega else (300, 120)
    users = rng.integers(0, 3 if mega else 6, n_l).astype(np.int64)
    lts = rng.integers(0, 5 * DAY_US, n_l).astype(np.int64)
    left = ray.data.from_arrow(pa.table({
        'k': pa.array(users), 'ts_us': pa.array(lts),
        'lid': pa.array(range(n_l), pa.int64())})).repartition(5)
    rusers = rng.integers(0, 3 if mega else 6, n_r).astype(np.int64)
    rts = rng.integers(0, 5 * DAY_US, n_r).astype(np.int64)
    right = ray.data.from_arrow(pa.table({
        'k': pa.array(rusers), 'ts_us': pa.array(rts),
        'w': pa.array((rng.integers(0, 40, n_r) / 4.0))})).repartition(4)
    return left, right


def test_asof_salted_equals_plain():
    left, right = _asof_sides()
    kw = dict(by='k', on='ts_us', right_value_cols=['w'],
              right_tiebreak=['w'])
    plain = asof_join(left, right, hot_key_threshold=None, **kw).to_pandas()
    salted = skew.asof_join_salted(left, right, **kw).to_pandas()
    key = ['lid']
    assert _sorted(plain, key).equals(_sorted(salted, key))


def test_asof_salted_tolerance_and_routing():
    left, right = _asof_sides(mega=True)
    kw = dict(by='k', on='ts_us', right_value_cols=['w'],
              tolerance_us=6 * 3600 * 1_000_000)
    plain = asof_join(left, right, hot_key_threshold=None, **kw).to_pandas()
    routed = asof_join(left, right, hot_key_threshold=500, **kw).to_pandas()
    key = ['lid']
    assert _sorted(plain, key).equals(_sorted(routed, key))


def test_asof_tiebreak_equals_prededup():
    """VERDICT r2 #6 fusion: right_tiebreak picks the max-value row among
    duplicate (key, ts) right rows — identical to a max() pre-dedup
    groupby feeding the plain join."""
    left = ray.data.from_arrow(pa.table({
        'k': pa.array([1, 1, 2], pa.int64()),
        'ts_us': pa.array([100, 200, 100], pa.int64()),
        'lid': pa.array([0, 1, 2], pa.int64())}))
    right = ray.data.from_arrow(pa.table({
        'k': pa.array([1, 1, 1, 2, 2], pa.int64()),
        'ts_us': pa.array([50, 50, 150, 90, 90], pa.int64()),
        'w': pa.array([1.0, 7.0, 3.0, 2.0, 9.0])}))
    out = asof_join(left, right, by='k', on='ts_us', right_value_cols=['w'],
                    right_tiebreak=['w'], hot_key_threshold=None) \
        .to_pandas().sort_values('lid').reset_index(drop=True)
    assert out['prior_w'].tolist() == [7.0, 3.0, 9.0]
    assert out['prior_ts_us'].tolist() == [50, 150, 90]


def test_asof_reserved_column_collision_asserts():
    """ADVICE r2: a left side already carrying _side/_on must be rejected
    loudly instead of silently clobbered."""
    import pytest
    bad = ray.data.from_arrow(pa.table({
        'k': pa.array([1], pa.int64()), 'ts_us': pa.array([1], pa.int64()),
        '_side': pa.array([9], pa.int64())}))
    ok = ray.data.from_arrow(pa.table({
        'k': pa.array([1], pa.int64()), 'ts_us': pa.array([1], pa.int64()),
        'w': pa.array([1.0])}))
    with pytest.raises(AssertionError, match='_side'):
        asof_join(bad, ok, by='k', on='ts_us', right_value_cols=['w'],
                  hot_key_threshold=None)


def test_mega_user_half_of_sf01_events_bounded():
    """VERDICT r2 #4 'done' criterion: one user holding 50% of the sf0.1
    events volume (100k rows total -> 50k mega rows) runs through the
    salted sessionize with day-bucketed groups — no single task holds the
    whole key — and stays exact vs the plain path; ``event_deltas`` on its
    one sort equals the serial reference."""
    ds = _events_ds(n_users=4, mega_user=7, mega_n=50_000)
    routed = sessionize(ds, gap_minutes=30, hot_key_threshold=10_000) \
        .to_pandas()
    plain = sessionize(ds, gap_minutes=30, hot_key_threshold=None).to_pandas()
    key = ['user_id', 'session_start']
    assert _sorted(plain, key).equals(_sorted(routed, key))
    hot = routed[routed['user_id'] == 7]
    # dense 1/min stream: one session spanning ~35 day-buckets, all merged
    assert len(hot) == 1 and int(hot['n_events'].iloc[0]) == 50_000

    deltas = ranks.event_deltas(ds.select_columns(['user_id', 'event_id',
                                                   'ts'])).to_pandas()
    assert _sorted(deltas, ['event_id']).equals(_serial_deltas(ds))


def test_asof_rejects_ints_beyond_float64_exact(ray_session):
    """r3 review: side-missing int columns round-trip through float64 in the
    per-group frames; values past 2^53 must raise, not silently corrupt."""
    import pyarrow as pa
    import pytest
    import ray as _ray
    from pii_detector_ray.stages.joins import asof_join

    big = (1 << 53) + 1
    left = _ray.data.from_arrow(pa.table(
        {'user_id': [1], 'event_id': [big], 'ts': [100]}))
    right = _ray.data.from_arrow(pa.table(
        {'user_id': [1], 'ts': [50], 'v': [2.0]}))
    out = asof_join(left, right, by='user_id', on='ts',
                    right_value_cols=['v'], hot_key_threshold=None)
    with pytest.raises(Exception, match='2\\^53'):
        out.take_all()


def test_quota_per_key_hot_key_two_phase(ray_session):
    """Per-key quota: a key holding most rows must yield exactly the global
    first-n regardless of how rows scatter across batches."""
    import numpy as np
    import pandas as pd
    import ray as _ray
    from pii_detector_ray.stages.hostagg import quota_per_key

    rng = np.random.default_rng(7)
    n = 5000
    df = pd.DataFrame({
        'k': np.where(rng.random(n) < 0.8, 'hot', 'cold' + pd.Series(
            rng.integers(0, 5, n)).astype(str)),
        'ord': rng.permutation(n),
    })
    ds = _ray.data.from_pandas(df, override_num_blocks=16)
    got = quota_per_key(ds, key_col='k', order_col='ord', n=7).to_pandas() \
        .sort_values(['k', 'ord']).reset_index(drop=True)
    want = (df.sort_values(['k', 'ord'], kind='mergesort')
            .groupby('k', sort=True).head(7)
            .sort_values(['k', 'ord']).reset_index(drop=True))
    assert got.equals(want)


def _with_cents(ds):
    def to_cents(t: pa.Table) -> pa.Table:
        v = t.column('value').to_numpy(zero_copy_only=False)
        return pa.table({'user_id': t.column('user_id'),
                         'event_id': t.column('event_id'),
                         'ts': t.column('ts'),
                         'cents': pa.array((v * 100).round().astype('int64'))})
    return ds.map_batches(to_cents, batch_format='pyarrow')


def test_cumulative_sum_mega_user_equals_serial():
    ds = _with_cents(_events_ds(mega_user=99, mega_n=2500))
    got = ranks.cumulative_sum(ds, val_col='cents').to_pandas()
    assert _sorted(got, ['event_id']).equals(_serial_sums(ds, 'cum_cents'))


def test_cumulative_sum_serial_reference():
    ds = _with_cents(_events_ds(n_users=4, seed=11))
    got = _sorted(ranks.cumulative_sum(ds, val_col='cents').to_pandas(),
                  ['event_id'])
    df = ds.to_pandas().sort_values(['user_id', 'ts', 'event_id'])
    df['cum_cents'] = df.groupby('user_id')['cents'].cumsum()
    exp = _sorted(df[['event_id', 'cum_cents']], ['event_id'])
    assert got.equals(exp.reset_index(drop=True))


def test_rolling_sum_mega_user_equals_serial():
    ds = _with_cents(_events_ds(mega_user=99, mega_n=2500))
    got = ranks.rolling_sum(ds, val_col='cents', window=3).to_pandas()
    assert _sorted(got, ['event_id']).equals(
        _serial_sums(ds, 'win_cents', window=3))


def test_rolling_sum_serial_reference():
    ds = _with_cents(_events_ds(n_users=4, seed=13))
    for w in (1, 2, 3, 5):
        got = _sorted(ranks.rolling_sum(ds, val_col='cents',
                                        window=w).to_pandas(), ['event_id'])
        df = ds.to_pandas().sort_values(['user_id', 'ts', 'event_id'])
        df['win_cents'] = (df.groupby('user_id')['cents']
                           .rolling(w, min_periods=1).sum()
                           .reset_index(level=0, drop=True).astype('int64'))
        exp = _sorted(df[['event_id', 'win_cents']], ['event_id'])
        assert got.equals(exp.reset_index(drop=True)), f'window={w}'


def test_rolling_sum_salted_sparse_buckets():
    """One event per day (the input that drove the deleted day-bucketed
    salted path's tail recursion): each window sums its user's last 3
    events, wherever the sort cuts the blocks."""
    users = [1] * 6
    ts = [i * DAY_US + 5 for i in range(6)]     # 6 buckets, 1 event each
    cents = [10, 20, 30, 40, 50, 60]
    ds = ray.data.from_arrow(pa.table({
        'user_id': pa.array(users, pa.int64()),
        'event_id': pa.array(range(6), pa.int64()),
        'ts': pa.array(np.array(ts, 'int64'), pa.timestamp('us')),
        'cents': pa.array(cents, pa.int64())})).repartition(3)
    got = _sorted(ranks.rolling_sum(ds, val_col='cents',
                                    window=3).to_pandas(), ['event_id'])
    assert got['win_cents'].tolist() == [10, 30, 60, 90, 120, 150]


def _counts(t: pa.Table) -> dict:
    return {(a, b): n for a, b, n in zip(*(t.column(c).to_pylist() for c in
                                           t.column_names))}


def _serial_transitions(ds) -> dict:
    """``_EVENT_TRANSITIONS_SQL`` serially: consecutive (type, next type)
    pairs per user; a NULL previous type never counts, a NULL next type
    does."""
    from collections import Counter
    ref = Counter()
    for _, g in _in_user_order(ds).groupby('user_id'):
        tp = [None if pd.isna(x) else x for x in g['event_type']]
        ref.update((a, b) for a, b in zip(tp[:-1], tp[1:]) if a is not None)
    return dict(ref)


def test_event_transitions_mega_user_equals_serial():
    ds = _with_types(_events_ds(mega_user=99, mega_n=1200))
    got = ranks.event_transitions(ds)
    assert got.schema == ranks.TRANSITIONS
    assert _counts(got) == _serial_transitions(ds)
    # pair totals == events - users (each user contributes n-1 transitions)
    tot = ds.count()
    users = ds.groupby('user_id').count().count()
    assert pc.sum(got.column('n_transitions')).as_py() == tot - users


def test_event_transitions_null_type_parity():
    """SQL-oracle NULL contract (`_EVENT_TRANSITIONS_SQL`): a pair whose
    PREV type is NULL never counts (WHERE prev_type IS NOT NULL), but a
    NULL NEXT type forms its own group.  On a NULL-bearing mega-user
    stream the counts equal a serial reference."""
    def nullify(t: pa.Table) -> pa.Table:
        eid = t.column('event_id').to_numpy(zero_copy_only=False)
        types = np.array(['view', 'click', 'purchase'], object)[eid % 3]
        types = np.where(eid % 5 == 0, None, types)
        return t.append_column('event_type', pa.array(types, pa.string()))

    ds = _events_ds(mega_user=99, mega_n=1200).map_batches(
        nullify, batch_format='pyarrow')
    got = _counts(ranks.event_transitions(ds))
    # NULL-next group exists; no NULL-prev group survives
    assert any(b is None for _, b in got)
    assert all(a is not None for a, _ in got)
    assert got == _serial_transitions(ds)


def _with_types(ds):
    def addtype(t):
        eid = t.column('event_id').to_numpy(zero_copy_only=False)
        types = np.array(['view', 'click', 'purchase'], object)[eid % 3]
        return t.append_column('event_type', pa.array(types, pa.string()))
    return ds.map_batches(addtype, batch_format='pyarrow')


def _close_debounce(partials) -> pd.DataFrame:
    df = partials.to_pandas()
    return df.groupby('event_type', as_index=False)['_n'].sum() \
        .sort_values('event_type').reset_index(drop=True)


def test_debounce_salted_equals_plain():
    ds = _with_types(_events_ds(mega_user=99, mega_n=2500))
    th = 90 * MIN_US          # cold gaps are 1..2000 min: straddles 90 min
    plain = _close_debounce(
        skew.debounce_counts(ds, threshold_us=th, hot_key_threshold=None))
    routed = _close_debounce(
        skew.debounce_counts(ds, threshold_us=th, hot_key_threshold=800))
    salted_only = _close_debounce(skew.debounce_counts_salted(
        ds.select_columns(['user_id', 'event_id', 'ts', 'event_type']),
        threshold_us=th))
    assert plain.equals(routed)
    assert plain.equals(salted_only)
    # the 1/min mega-user never clears the 90-min window: exactly one of
    # its events (the global first) survives across all types
    no_mega = _close_debounce(skew.debounce_counts(
        ds.filter(expr='user_id != 99'), threshold_us=th,
        hot_key_threshold=None))
    assert int(plain['_n'].sum()) == int(no_mega['_n'].sum()) + 1


def test_debounce_null_event_type_counted():
    """NULL event_type rows form their own group (SQL GROUP BY emits a NULL
    group); the pandas groupby inside debounce must run dropna=False or the
    kept NULL rows silently vanish from the partials (ADVICE r5)."""
    def nullify(t: pa.Table) -> pa.Table:
        eid = t.column('event_id').to_numpy(zero_copy_only=False)
        types = np.array(['view', 'click', 'purchase'], object)[eid % 3]
        types = np.where(eid % 5 == 0, None, types)
        return t.append_column('event_type', pa.array(types, pa.string()))

    ds = _events_ds(mega_user=99, mega_n=1200).map_batches(
        nullify, batch_format='pyarrow')
    th = 90 * MIN_US
    plain = skew.debounce_counts(ds, threshold_us=th,
                                 hot_key_threshold=None).to_pandas()
    routed = skew.debounce_counts(ds, threshold_us=th,
                                  hot_key_threshold=800).to_pandas()

    def close(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby('event_type', as_index=False, dropna=False)[
            '_n'].sum().sort_values('event_type', na_position='last') \
            .reset_index(drop=True)

    p, r = close(plain), close(routed)
    assert p.equals(r)
    # the NULL group exists and its rows are counted
    assert p['event_type'].isna().any()
    # reference: per-user kept rows computed serially, including NULL types
    raw = ds.to_pandas().sort_values(['user_id', 'ts', 'event_id'])
    kept_total = 0
    null_kept = 0
    for _, g in raw.groupby('user_id'):
        ts = g['ts'].astype('int64').to_numpy()
        kept = np.ones(len(g), bool)
        kept[1:] = np.diff(ts) >= th
        kept_total += int(kept.sum())
        null_kept += int(g['event_type'].isna().to_numpy()[kept].sum())
    assert int(p['_n'].sum()) == kept_total
    assert int(p.loc[p['event_type'].isna(), '_n'].sum()) == null_kept


def test_rolling_sum_salted_window1_schema_and_values():
    """window=1 carries no rows across blocks; the result keeps its two
    columns and equals each event's own value (the mega-user input of the
    deleted salted path's window=1 case)."""
    ds = _with_cents(_events_ds(n_users=3, seed=17, mega_user=99, mega_n=400))
    got = ranks.rolling_sum(ds, val_col='cents', window=1).to_pandas()
    assert list(got.columns) == ['event_id', 'win_cents']
    assert _sorted(got, ['event_id']).equals(
        _serial_sums(ds, 'win_cents', window=1))


def test_salted_windows_string_keys():
    """String partition keys work on the running and rolling sums (the
    inputs of the deleted salted paths' string-key case)."""
    ds = _with_cents(_events_ds(n_users=4, seed=19, mega_user=99, mega_n=300))

    def to_str(t: pa.Table) -> pa.Table:
        return t.set_column(
            t.schema.get_field_index('user_id'), 'user_id',
            pa.compute.binary_join_element_wise(
                'u', pa.compute.cast(t.column('user_id'), pa.string()), ''))
    sds = ds.map_batches(to_str, batch_format='pyarrow')

    got = ranks.cumulative_sum(sds, val_col='cents').to_pandas()
    assert _sorted(got, ['event_id']).equals(_serial_sums(sds, 'cum_cents'))
    got = ranks.rolling_sum(sds, val_col='cents', window=3).to_pandas()
    assert _sorted(got, ['event_id']).equals(
        _serial_sums(sds, 'win_cents', window=3))


def test_sort_spreads_a_mega_user_over_blocks(tmp_path):
    """One user holding 60% of 20k events, read from a file of 10 row
    groups: ``sorted_sequences`` puts that user's rows in at least two
    non-empty blocks and never all of them in one, and the operators still
    equal the serial reference."""
    import pyarrow.parquet as pq

    rng = np.random.default_rng(23)
    n = 20_000
    users = np.where(rng.random(n) < 0.6, 7, rng.integers(100, 400, n))
    pq.write_table(pa.table({
        'user_id': pa.array(users, pa.int64()),
        'event_id': pa.array(rng.permutation(n), pa.int64()),
        'ts': pa.array(rng.integers(0, 10 * DAY_US, n), pa.int64())
        .cast(pa.timestamp('us')),
        'cents': pa.array(rng.integers(0, 500, n), pa.int64())}),
        tmp_path / 'events.parquet', row_group_size=n // 10)
    assert pq.ParquetFile(tmp_path / 'events.parquet') \
        .metadata.num_row_groups >= 8
    ds = ray.data.read_parquet(str(tmp_path / 'events.parquet'))

    mega = int((users == 7).sum())
    held = []
    for ref, _ in ranks.sorted_sequences(ds, 'user_id', ['ts', 'event_id'],
                                         tail=2):
        t = ray.get(ref)
        held.append(int(pc.sum(pc.equal(t.column('user_id'), 7)).as_py()
                        or 0))
    assert sum(held) == mega
    assert sum(h > 0 for h in held) >= 2
    assert max(held) < mega
    got = ranks.rolling_sum(ds, val_col='cents', window=3).to_pandas()
    assert _sorted(got, ['event_id']).equals(
        _serial_sums(ds, 'win_cents', window=3))
    got = ranks.cumulative_sum(ds, val_col='cents').to_pandas()
    assert _sorted(got, ['event_id']).equals(_serial_sums(ds, 'cum_cents'))


def test_hot_keys_exclude_null_and_split_handles_none():
    """A null-heavy key column must not crash the screen/split machinery:
    hot_keys never returns None, and split_by_keys sorts a None-bearing
    set without TypeError (null rows route to the WITHOUT side)."""
    tbl = pa.table({'k': pa.array([1] * 50 + [None] * 50, pa.int64()),
                    'v': pa.array(range(100), pa.int64())})
    ds = ray.data.from_arrow(tbl).repartition(4)
    hot = skew.hot_keys(ds, 'k', 30)
    assert hot == {1}                       # null key counted but excluded
    inside, outside = skew.split_by_keys(ds, 'k', {1, None})
    ins, outs = inside.to_pandas(), outside.to_pandas()
    assert len(ins) == 100 and len(outs) == 0   # None in set matches nulls
    inside2, outside2 = skew.split_by_keys(ds, 'k', {1})
    assert len(inside2.to_pandas()) == 50
    assert len(outside2.to_pandas()) == 50      # null rows: WITHOUT side
