"""Mega-key behavior of the funnel/latency analytics: one user holding half
of all events must not change results (no per-user co-location is required
by design — _min_after ships only narrow (user_id, ts) rows and thresholds),
verified against DuckDB on a synthetic skewed table."""

import os

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from pii_detector_ray.queries import (
    q_conversion_latency,
    q_funnel_stages,
    oracle_sql,
)


@pytest.fixture(scope='module')
def skewed_dir(tmp_path_factory):
    rng = np.random.default_rng(11)
    n_hot, n_cold_users, per_cold = 20_000, 50, 40
    n = n_hot + n_cold_users * per_cold
    users = np.concatenate([np.full(n_hot, 1),
                            np.repeat(np.arange(2, 2 + n_cold_users),
                                      per_cold)])
    ts = (np.datetime64('2024-01-01') +
          rng.integers(0, 30 * 86_400, n).astype('timedelta64[s]'))
    types = rng.choice(['view', 'click', 'purchase', 'error'], size=n)
    d = tmp_path_factory.mktemp('skewed')
    pq.write_table(pa.table({
        'event_id': pa.array(np.arange(n), pa.int64()),
        'user_id': pa.array(users, pa.int64()),
        'ts': pa.array(ts.astype('datetime64[us]')),
        'event_type': pa.array(types, pa.string()),
        'value': pa.array(rng.normal(size=n)),
        'props': pa.array([''] * n, pa.string())}),
        os.path.join(d, 'events.parquet'))
    return str(d)


def _con(skewed_dir):
    con = duckdb.connect()
    con.execute("CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{os.path.join(skewed_dir, 'events.parquet')}')")
    return con


def test_funnel_on_mega_user(ray_session, skewed_dir):
    got = q_funnel_stages(skewed_dir)
    exp = _con(skewed_dir).execute(oracle_sql()['funnel_stages']).fetchdf()
    assert got.astype('int64').equals(exp.astype('int64'))
    # the hot user converts, so every stage is populated
    assert int(got['n_purchased'][0]) > 0


def test_latency_empty_funnel_returns_empty(ray_session, tmp_path):
    """No 'view' events at all → empty histogram with the right schema,
    not a schema error from Ray's fn-skipping empty blocks."""
    n = 10
    pq.write_table(pa.table({
        'event_id': pa.array(np.arange(n), pa.int64()),
        'user_id': pa.array(np.ones(n), pa.int64()),
        'ts': pa.array(np.full(n, np.datetime64('2024-01-01', 'us'))),
        'event_type': pa.array(['error'] * n, pa.string()),
        'value': pa.array(np.zeros(n)),
        'props': pa.array([''] * n, pa.string())}),
        os.path.join(tmp_path, 'events.parquet'))
    out = q_conversion_latency(str(tmp_path))
    assert len(out) == 0
    assert set(out.columns) == {'latency_hours', 'n_users'}


def test_latency_on_mega_user_both_paths(ray_session, skewed_dir,
                                        both_join_paths):
    exp = _con(skewed_dir).execute(
        oracle_sql()['conversion_latency']).fetchdf() \
        .sort_values('latency_hours').reset_index(drop=True)
    for got in both_join_paths(lambda: q_conversion_latency(skewed_dir)):
        got = got.sort_values('latency_hours').reset_index(drop=True)
        assert got.astype('int64').equals(exp.astype('int64'))
