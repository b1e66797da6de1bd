"""Custom join/window operators (stages/joins.py)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from pii_detector_ray.stages.joins import (
    asof_join,
    range_join_broadcast,
    sliding_window_agg,
)


def _ds(tbl: dict) -> ray.data.Dataset:
    return ray.data.from_arrow(pa.table(tbl)).repartition(3)


def test_asof_join_backward_semantics():
    left = _ds({'k': [1, 1, 1, 2, 3], 'ts_us': [10, 20, 4, 50, 9],
                'v': [1.0, 2.0, 3.0, 4.0, 5.0]})
    right = _ds({'k': [1, 1, 2], 'ts_us': [5, 15, 50], 'w': [9.0, 8.0, 7.0]})
    out = asof_join(left, right, by='k', on='ts_us', right_value_cols=['w']) \
        .to_pandas().sort_values(['k', 'ts_us']).reset_index(drop=True)
    # k=1,ts=4 has no prior right row -> dropped; k=3 has no right side at all
    assert [tuple(r) for r in out[['k', 'ts_us', 'prior_ts_us']].to_numpy()] == \
        [(1, 10, 5), (1, 20, 15), (2, 50, 50)]
    assert list(out['prior_w']) == [9.0, 8.0, 7.0]


def test_asof_join_tolerance():
    left = _ds({'k': [1, 1], 'ts_us': [100, 200], 'v': [0.0, 0.0]})
    right = _ds({'k': [1], 'ts_us': [95], 'w': [1.0]})
    out = asof_join(left, right, by='k', on='ts_us', right_value_cols=['w'],
                    tolerance_us=10).to_pandas()
    assert list(out['ts_us']) == [100]          # 200-95=105 > 10 -> dropped


def test_range_join_broadcast_edges():
    ds = _ds({'id': [1, 2, 3, 4, 5],
              'x': [-1.0, 0.0, 99.9, 100.0, 1e9]})
    out = range_join_broadcast(ds, value_col='x', bounds=[0.0, 100.0],
                               labels=['a', 'b']).to_pandas() \
        .sort_values('id').reset_index(drop=True)
    # -1 below first bound -> dropped; [0,100) -> a; >=100 open-ended -> b
    assert list(out['id']) == [2, 3, 4, 5]
    assert list(out['band']) == ['a', 'a', 'b', 'b']
    # with an explicit upper edge the tail is dropped
    closed = range_join_broadcast(ds, value_col='x', bounds=[0.0, 100.0, 200.0],
                                  labels=['a', 'b']).to_pandas()
    assert set(closed['id']) == {2, 3, 4}


def test_sliding_window_matches_manual():
    rng = np.random.default_rng(4)
    ts = rng.integers(0, 10_000, 300)
    keys = rng.choice(['a', 'b'], 300)
    vals = np.round(rng.random(300), 3)
    ds = _ds({'k': keys.tolist(), 'ts': ts.tolist(), 'v': vals.tolist()})
    out = sliding_window_agg(ds, key_col='k', ts_col='ts', value_col='v',
                             window_us=400, slide_us=100).to_pandas()
    # manual: event at t belongs to windows w in {floor(t/100)*100 - j*100}
    rows = {}
    for k, t, v in zip(keys, ts, vals):
        base = (t // 100) * 100
        for j in range(4):
            w = base - j * 100
            n, s = rows.get((k, w), (0, 0.0))
            rows[(k, w)] = (n + 1, s + v)
    exp = pd.DataFrame([(k, w, n, round(s, 2)) for (k, w), (n, s) in rows.items()],
                       columns=['k', 'window_start', 'n_events', 'sum_value'])
    got = out.sort_values(['k', 'window_start']).reset_index(drop=True)
    exp = exp.sort_values(['k', 'window_start']).reset_index(drop=True)
    assert got[['k', 'window_start', 'n_events']].astype(str).equals(
        exp[['k', 'window_start', 'n_events']].astype(str))
    # sums compared with tolerance: round-to-2dp at a .xx5 boundary depends
    # on float accumulation order (distributed vs serial)
    assert np.allclose(got['sum_value'], exp['sum_value'], atol=0.011)


def test_asof_join_no_right_column_leak():
    left = _ds({'k': [1], 'ts_us': [10], 'v': [1.0]})
    right = _ds({'k': [1], 'ts_us': [5], 'w': [9.0], 'extra_right': ['x']})
    out = asof_join(left, right, by='k', on='ts_us', right_value_cols=['w']) \
        .to_pandas()
    assert sorted(out.columns) == ['k', 'prior_ts_us', 'prior_w', 'ts_us', 'v']


def test_range_join_drops_nulls():
    ds = _ds({'id': [1, 2], 'x': [50.0, None]})
    out = range_join_broadcast(ds, value_col='x', bounds=[0.0],
                               labels=['all']).to_pandas()
    assert list(out['id']) == [1]


def test_sliding_window_negative_ts_matches_duckdb_floor():
    """Pre-epoch timestamps: numpy floors, DuckDB // truncates — the oracle
    emulates floor exactly."""
    import duckdb
    ds = _ds({'k': ['a', 'a'], 'ts': [-950, 50], 'v': [1.0, 2.0]})
    got = sliding_window_agg(ds, key_col='k', ts_col='ts', value_col='v',
                             window_us=400, slide_us=100).to_pandas()
    floordiv = "((t - (((t % 100) + 100) % 100)) // 100)"
    exp = duckdb.sql(
        f"SELECT ({floordiv} - j) * 100 AS window_start, count(*) AS n "
        f"FROM (VALUES (-950), (50)) AS v(t), generate_series(0, 3) AS s(j) "
        f"GROUP BY 1").df()
    assert set(got['window_start']) == set(exp['window_start'])
    assert -1000 in set(got['window_start'])       # floor(-950/100)*100


def _count_hot_keys(monkeypatch) -> list:
    """A list that gets one entry per ``skew.hot_keys`` call."""
    from pii_detector_ray.stages import skew
    calls, hot_keys = [], skew.hot_keys

    def counted(*args, **kwargs):
        calls.append(1)
        return hot_keys(*args, **kwargs)

    monkeypatch.setattr(skew, 'hot_keys', counted)
    return calls


def test_skew_join_all_paths_equal_plain(ray_session, monkeypatch,
                                         max_block_size):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from pii_detector_ray.stages.joins import skew_join

    rng = np.random.default_rng(21)
    # key 7 is hot: 60% of the left side
    keys = np.where(rng.random(2000) < 0.6, 7,
                    rng.integers(0, 40, 2000)).astype(np.int64)
    left = rd.from_arrow(pa.table({
        'k': pa.array(keys), 'lv': pa.array(np.arange(2000))})).repartition(5)
    right = rd.from_arrow(pa.table({
        'k': pa.array(np.arange(40, dtype=np.int64)),
        'rv': pa.array(np.arange(40) * 10)})).repartition(3)

    def norm(ds):
        df = ds.to_pandas()
        return df.sort_values(['k', 'lv']).reset_index(drop=True)[
            ['k', 'lv', 'rv']]

    # max_block_size(1): nothing fits one block, so the plain join is
    # Ray's shuffle Join and the hot path salts
    calls = _count_hot_keys(monkeypatch)
    with max_block_size(1):
        plain = norm(skew_join(left, right, on='k', hot_key_threshold=None))
        salted = norm(skew_join(left, right, on='k', hot_key_threshold=500))
    assert len(calls) >= 1
    del calls[:]
    broadcast = norm(skew_join(left, right, on='k', hot_key_threshold=500))
    assert calls == []                   # a broadcast right side: no screen
    assert plain.equals(broadcast)
    assert plain.equals(salted)
    assert len(plain) == 2000            # right keys cover every left key


def test_skew_join_hot_key_missing_on_right(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from pii_detector_ray.stages.joins import skew_join

    left = rd.from_arrow(pa.table({
        'k': pa.array([1] * 900 + [2, 3], pa.int64()),
        'lv': pa.array(range(902))}))
    right = rd.from_arrow(pa.table({
        'k': pa.array([2, 3], pa.int64()), 'rv': pa.array([20, 30])}))
    out = skew_join(left, right, on='k', hot_key_threshold=100).to_pandas()
    assert sorted(out['k'].tolist()) == [2, 3]


def test_skew_join_empty_sides(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from pii_detector_ray.stages.joins import skew_join

    left = rd.from_arrow(pa.table({'k': pa.array([], pa.int64()),
                                   'lv': pa.array([], pa.int64())}))
    right = rd.from_arrow(pa.table({'k': pa.array([1], pa.int64()),
                                    'rv': pa.array([10], pa.int64())}))
    out = skew_join(left, right, on='k', hot_key_threshold=None)
    assert out.count() == 0


def test_skew_join_hot_rows_only_in_late_partitions(ray_session, monkeypatch,
                                                    max_block_size):
    """Regression (r3 review, reproduced): hot-key rows confined to the
    LAST partitions leave many 0-row blocks in the hot split; those become
    schema-less and poisoned the (key, salt) hash shuffle until every join
    input was normalized with drop_empty_blocks."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from pii_detector_ray.stages.joins import skew_join

    # cold keys first, hot key 7 only at the tail; string payload column
    ks = np.concatenate([np.arange(1, 5).repeat(40),
                         np.full(400, 7)]).astype(np.int64)
    left = rd.from_arrow(pa.table({
        'k': pa.array(ks), 'lv': pa.array(np.arange(len(ks)))})) \
        .repartition(16)
    right = rd.from_arrow(pa.table({
        'k': pa.array(np.arange(0, 10, dtype=np.int64)),
        'name': pa.array([f'n{i}' for i in range(10)])})).repartition(4)
    calls = _count_hot_keys(monkeypatch)
    for trial in range(3):    # the failure was block-arrival-order flaky
        with max_block_size(1):          # the salted (key, salt) shuffle
            out = skew_join(left, right, on='k',
                            hot_key_threshold=100).to_pandas()
        assert len(calls) == trial + 1
        assert len(out) == len(ks)
        assert (out.loc[out['k'] == 7, 'name'] == 'n7').all()


def test_asof_join_null_keys_and_ts_dropped():
    """SQL ASOF semantics: the by-equality and on-inequality never match
    NULL.  A null left ts must NOT fabricate a match against the latest
    right row, and a null right ts must never be picked as a prior
    (review r5 — searchsorted treated NaN as +inf)."""
    left = _ds({'k': pa.array([1, 1, None, 1], pa.int64()),
                'ts_us': pa.array([10, None, 20, 30], pa.int64()),
                'v': [1.0, 2.0, 3.0, 4.0]})
    right = _ds({'k': pa.array([1, 1, None], pa.int64()),
                 'ts_us': pa.array([5, None, 1], pa.int64()),
                 'w': [9.0, 8.0, 7.0]})
    out = asof_join(left, right, by='k', on='ts_us', right_value_cols=['w']) \
        .to_pandas().sort_values('ts_us').reset_index(drop=True)
    # only the two non-null left rows of k=1 survive, both matched to the
    # single valid right row (5, 9.0); the null-ts right row is invisible
    assert [tuple(r) for r in
            out[['k', 'ts_us', 'prior_ts_us']].to_numpy()] == \
        [(1, 10, 5), (1, 30, 5)]
    assert list(out['prior_w']) == [9.0, 9.0]
    assert str(out['prior_ts_us'].dtype) == 'int64'


def test_asof_join_salted_null_parity(ray_session):
    """The salted (hot-key) path must drop null by/on rows identically to
    the plain path."""
    n = 60
    left = _ds({'k': pa.array([1] * n + [None], pa.int64()),
                'ts_us': pa.array(list(range(10, 10 + n)) + [None],
                                  pa.int64()),
                'v': [float(i) for i in range(n + 1)]})
    right = _ds({'k': pa.array([1, 1, 1, None], pa.int64()),
                 'ts_us': pa.array([5, None, 15, 2], pa.int64()),
                 'w': [9.0, 8.0, 7.0, 6.0]})
    plain = asof_join(left, right, by='k', on='ts_us',
                      right_value_cols=['w'], hot_key_threshold=None) \
        .to_pandas().sort_values('ts_us').reset_index(drop=True)
    hot = asof_join(left, right, by='k', on='ts_us',
                    right_value_cols=['w'], hot_key_threshold=10,
                    bucket_us=7) \
        .to_pandas().sort_values('ts_us').reset_index(drop=True)
    pd.testing.assert_frame_equal(plain, hot)
    assert len(plain) == n                     # null left rows dropped
    assert set(plain['prior_ts_us']) == {5, 15}


def test_sliding_window_null_ts_and_value_match_sql():
    """Null parity with the SQL oracle shape: null ts lands in ONE NULL
    window group (exploded k times, counted by count(*)); null values
    count rows but are skipped by sum."""
    import duckdb

    ds = _ds({'k': ['a', 'a', 'a', 'b'],
              'ts': pa.array([100, None, 150, None], pa.int64()),
              'v': pa.array([1.0, 2.0, None, None], pa.float64())})
    out = sliding_window_agg(ds, key_col='k', ts_col='ts', value_col='v',
                             window_us=40, slide_us=10).to_pandas()
    con = duckdb.connect()
    con.register('t', pd.DataFrame({
        'k': ['a', 'a', 'a', 'b'],
        'ts': pd.array([100, None, 150, None], dtype='Int64'),
        'v': pd.array([1.0, 2.0, None, None], dtype='Float64')}))
    sql = con.sql(
        "SELECT k, ((ts // 10) - j) * 10 AS window_start, "
        "count(*) AS n_events, round(sum(v), 2) AS sum_value "
        "FROM t, generate_series(0, 3) AS s(j) GROUP BY 1, 2").df()
    key = ['k', 'window_start']
    out_s = out.sort_values(key, na_position='last').reset_index(drop=True)
    sql_s = sql.sort_values(key, na_position='last').reset_index(drop=True)
    assert len(out_s) == len(sql_s)
    for a, b in zip(out_s.itertuples(index=False),
                    sql_s.itertuples(index=False)):
        assert a.k == b.k
        assert (pd.isna(a.window_start) and pd.isna(b.window_start)) or \
            int(a.window_start) == int(b.window_start)
        assert int(a.n_events) == int(b.n_events)
        assert (pd.isna(a.sum_value) and pd.isna(b.sum_value)) or \
            abs(float(a.sum_value) - float(b.sum_value)) < 1e-9


def test_range_join_bounds_labels_mismatch_is_loud():
    import pytest

    ds = _ds({'id': [1], 'x': [25.0]})
    with pytest.raises(AssertionError, match='range_join_broadcast'):
        range_join_broadcast(ds, value_col='x', bounds=[0.0, 10.0, 20.0, 30.0],
                             labels=['a', 'b'])
