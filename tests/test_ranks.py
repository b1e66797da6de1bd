"""The sorted-prefix primitive (``stages/ranks.py``) and the four rank
queries built on it: ``value_time_spearman``, ``weighted_median_price``,
``score_auc`` and ``value_ks_test``."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
import ray.data
from ray.data.grouped_data import GroupedData

from pii_detector_ray import queries as q
from pii_detector_ray.stages.ranks import (
    block_prefixes,
    midranks,
    prefix_before,
    sorted_prefix,
)


def _tie_heavy(seed: int, n: int = 600, blocks: int = 10) -> tuple:
    """A table of parts from a 3-symbol and values from a 5-symbol alphabet,
    over ``blocks`` input blocks."""
    rng = np.random.default_rng(seed)
    t = pa.table({'id': pa.array(np.arange(n), pa.int64()),
                  'p': pa.array(rng.choice(['a', 'b', 'c'], n).tolist()),
                  'v': pa.array(rng.choice([-2.5, 0.0, 1.0, 7.0, 9.5], n)),
                  'w': pa.array(rng.integers(0, 5, n), pa.int64())})
    step = n // blocks
    ds = ray.data.from_arrow([t.slice(i, step) for i in range(0, n, step)])
    assert ds.num_blocks() >= 8
    return t.to_pandas(), ds


@pytest.mark.parametrize('seed', [0, 1, 2])
def test_midranks_equal_pandas_average_rank(ray_session, seed):
    df, ds = _tie_heavy(seed)
    blocks, totals = sorted_prefix(ds, ['p', 'v'], 'p')
    assert len(blocks) > 1
    assert totals == df['p'].value_counts().to_dict()
    got = {}
    for ref, off in blocks:
        t = ray.get(ref)
        got.update(zip(t.column('id').to_pylist(),
                       midranks(t, 'p', 'v', off).tolist()))
    want = 2 * df.groupby('p')['v'].rank(method='average')
    assert [got[i] for i in df['id']] == want.astype(int).tolist()


@pytest.mark.parametrize('seed', [3, 4])
def test_prefixes_equal_serial_cumsum(ray_session, seed):
    df, ds = _tie_heavy(seed)
    blocks, totals = sorted_prefix(ds, ['p', 'v'], 'p', weight='w')
    assert totals == df.groupby('p')['w'].sum().to_dict()
    keys = list(zip(df['p'], df['v']))
    for ref, off in blocks:
        t = ray.get(ref)
        first = (t.column('p')[0].as_py(), t.column('v')[0].as_py())
        earlier = df[[k < first for k in keys]]
        assert off == earlier.groupby('p')['w'].sum().to_dict()
        # row by row, the weight of the smaller keys of the row's part is
        # at most prefix_before, and the tie run's weight tops it up
        before = prefix_before(t, 'p', t.column('w').to_numpy(), off)
        for p, v, b in zip(t.column('p').to_pylist(),
                           t.column('v').to_pylist(), before):
            part = df[df['p'] == p]
            assert part.loc[part['v'] < v, 'w'].sum() <= b
            assert b <= part.loc[part['v'] <= v, 'w'].sum()


def test_block_prefixes_rejects_overlapping_ranges():
    ok = [((5,), (9,), {'a': 1, 'b': 2}), None, ((1,), (4,), {'a': 3})]
    order, prefixes, totals = block_prefixes(ok)
    assert order == [2, 0]
    assert prefixes == [{}, {'a': 3}]
    assert totals == {'a': 4, 'b': 2}
    for bad in ([((1,), (4,), {}), ((4,), (6,), {})],       # touching
                [((1,), (5,), {}), ((3,), (9,), {})],       # overlapping
                [(('x', 2.0), ('y', 1.0), {}),
                 (('x', 3.0), ('z', 0.0), {})]):
        with pytest.raises(AssertionError, match='overlap'):
            block_prefixes(bad)


# ---------------------------------------------------------------------------
# the four ports: plan guard and degenerate inputs against DuckDB
# ---------------------------------------------------------------------------

EVENT_QUERIES = ['value_time_spearman', 'score_auc', 'value_ks_test']
# output dtypes of the four queries, as before the sorted-prefix ports
DTYPES = {
    'value_time_spearman': {'event_type': 'string', 'spearman': 'float64'},
    'score_auc': {'auc': 'float64', 'n_pos': 'int64', 'n_neg': 'int64'},
    'value_ks_test': {'ks_stat': 'float64', 'n_a': 'int64', 'n_b': 'int64'},
    'weighted_median_price': {'l_returnflag': 'object',
                              'weighted_median_price': 'float64'},
}


def _events(value, event_type=None, seed: int = 0) -> pa.Table:
    n = len(value)
    rng = np.random.default_rng(seed)
    if event_type is None:
        event_type = rng.choice(['click', 'purchase', 'view'], n).tolist()
    return pa.table({
        'ts': pa.array(rng.integers(0, 40, n).astype('datetime64[us]')),
        'event_type': pa.array(event_type, pa.string()),
        'value': pa.array(value, pa.float64())})


def _lineitem(price, qty=None, flag=None, seed: int = 0) -> pa.Table:
    n = len(price)
    rng = np.random.default_rng(seed)
    return pa.table({
        'l_returnflag': pa.array(rng.choice(['A', 'N', 'R'], n).tolist()
                                 if flag is None else flag, pa.string()),
        'l_extendedprice': pa.array(price, pa.float64()),
        'l_quantity': pa.array(rng.integers(1, 50, n).astype(float)
                               if qty is None else qty, pa.float64())})


def _values(n: int, seed: int = 0) -> np.ndarray:
    return np.round(np.random.default_rng(seed).uniform(-50, 50, n), 1)


def _skewed(n: int) -> np.ndarray:
    v = _values(n)
    v[np.random.default_rng(1).random(n) < 0.9] = 5.0
    return v


def _infs(n: int) -> np.ndarray:
    v = _values(n)
    v[::7], v[3::11] = np.inf, -np.inf
    return v


N = 240
EVENT_CASES = {
    'empty': (_events([]), None),
    'all_null_value': (_events([None] * N), None),
    'one_value': (_events([3.5] * N), None),
    'null_event_type': (_events(_values(N), [None, 'click', 'purchase',
                                             'view'] * (N // 4)), None),
    # no purchase: AUC and KS have one class, the oracle a NULL statistic
    'one_event_type': (_events(_values(N), ['click'] * N), None),
    'one_value_90pct': (_events(_skewed(N)), None),
    'inf_values': (_events(_infs(N)), None),
    # 1-row row groups: the sort has more input blocks than distinct keys
    'tiny_row_groups': (_events(np.arange(N) % 3 * 1.5), 1),
}
LINEITEM_CASES = {
    'empty': (_lineitem([]), None),
    'null_returnflag': (_lineitem(_values(N),
                                  flag=[None, 'A', 'N'] * (N // 3)), None),
    'qty_rounds_to_0': (_lineitem(_values(N), qty=np.full(N, 0.4)), None),
    'one_value': (_lineitem([3.5] * N), None),
    'one_value_90pct': (_lineitem(_skewed(N)), None),
    'inf_values': (_lineitem(_infs(N)), None),
    'tiny_row_groups': (_lineitem(np.arange(N) % 3 * 1.5), 1),
}
PORTS = [(name, case) for name in EVENT_QUERIES for case in EVENT_CASES] + \
    [('weighted_median_price', case) for case in LINEITEM_CASES]


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df.astype({c: 'string' for c in df.columns
                    if not pd.api.types.is_numeric_dtype(df[c])})
    return df.sort_values(list(df.columns), kind='mergesort') \
        .reset_index(drop=True)


def _run(tmp_path, name: str, case: str):
    """(engine frame, DuckDB oracle frame) of query ``name`` on ``case``."""
    table, cases = (('lineitem', LINEITEM_CASES)
                    if name == 'weighted_median_price'
                    else ('events', EVENT_CASES))
    tbl, row_group_size = cases[case]
    pq.write_table(tbl, tmp_path / f'{table}.parquet',
                   row_group_size=row_group_size)
    con = duckdb.connect()
    con.register(table, tbl)
    return q.queries()[name](str(tmp_path)), \
        con.execute(q.oracle_sql()[name]).df()


@pytest.mark.parametrize('name,case', PORTS)
def test_port_equals_oracle_on_degenerate_input(ray_session, tmp_path,
                                                name, case):
    got, want = _run(tmp_path, name, case)
    assert {c: str(d) for c, d in got.dtypes.items()} == DTYPES[name]
    got, want = _normalize(got), _normalize(want)
    assert list(got.columns) == list(want.columns)
    assert len(got) == len(want), (got, want)
    for c in got.columns:
        if pd.api.types.is_float_dtype(got[c]):
            assert np.allclose(got[c].to_numpy(), want[c].to_numpy(),
                               rtol=0, atol=1e-9, equal_nan=True), (got, want)
        else:
            assert got[c].fillna('<NA>').tolist() == \
                want[c].fillna('<NA>').tolist(), (got, want)


@pytest.mark.parametrize('name', EVENT_QUERIES + ['weighted_median_price'])
def test_port_plan_is_sorts_only(ray_session, tmp_path, monkeypatch, name):
    """Each port runs no Dataset.join, no grouped aggregate and no
    drop_empty_blocks; Spearman sorts twice (one per ranked axis), the
    others once."""
    calls = {'sort': 0, 'join': 0, 'aggregate': 0, 'drop_empty_blocks': 0}

    def counted(owner, attr):
        real = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, attr, wrapper)

    counted(ray.data.Dataset, 'sort')
    counted(ray.data.Dataset, 'join')
    counted(GroupedData, 'aggregate')
    counted(q, 'drop_empty_blocks')
    got, want = _run(tmp_path, name, 'one_value_90pct')
    assert len(got) == len(want) > 0
    assert calls == {'sort': 2 if name == 'value_time_spearman' else 1,
                     'join': 0, 'aggregate': 0, 'drop_empty_blocks': 0}


@pytest.mark.parametrize('name', ['event_transitions', 'events_segment_join',
                                  'event_markov2'])
def test_event_query_on_zero_rows_equals_oracle_frame(ray_session, tmp_path,
                                                      name):
    """On a zero-row events table the transition, segment-join and
    two-step Markov queries return the oracle's empty frame: same columns,
    same dtypes (Ray's ``to_pandas`` of an empty dataset has no columns)."""
    tbl = pa.table({'event_id': pa.array([], pa.int64()),
                    'ts': pa.array([], pa.timestamp('us')),
                    'user_id': pa.array([], pa.int64()),
                    'event_type': pa.array([], pa.string()),
                    'value': pa.array([], pa.float64()),
                    'props': pa.array([], pa.string())})
    pq.write_table(tbl, tmp_path / 'events.parquet')
    got = q.queries()[name](str(tmp_path))
    con = duckdb.connect()
    con.register('events', tbl)
    want = con.execute(q.oracle_sql()[name]).df()
    assert len(got) == len(want) == 0
    assert dict(got.dtypes) == dict(want.dtypes)
    assert list(got.columns) == list(want.columns)
