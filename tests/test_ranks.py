"""The sorted-prefix and sorted-sequence primitives (``stages/ranks.py``)
and the queries built on them: ``value_time_spearman``,
``weighted_median_price``, ``score_auc``, ``value_ks_test``,
``orders_cume_dist``, ``orders_percent_rank``, ``sequence_packing``,
``token_budget_selection`` and ``user_activity_gini`` on
``sorted_prefix``; ``event_transitions``, ``event_deltas``,
``user_cumulative``, ``user_rolling3`` and ``event_markov2`` on
``sorted_sequences``."""

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
    sequence_carries,
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


@pytest.mark.parametrize('seed,part', [
    pytest.param(3, 'p', id='3'), pytest.param(4, 'p', id='4'),
    pytest.param(4, None, id='4-one_part')])
def test_prefixes_equal_serial_cumsum(ray_session, seed, part):
    """``part=None``: every row is one part, keyed None, and the keys order
    ``(p, v)`` across it."""
    df, ds = _tie_heavy(seed)
    blocks, totals = sorted_prefix(ds, ['p', 'v'], part, weight='w')

    def sums(d: pd.DataFrame) -> dict:
        if part:
            return d.groupby('p')['w'].sum().to_dict()
        return {None: d['w'].sum()} if len(d) else {}
    assert totals == sums(df)
    keys = list(zip(df['p'], df['v']))
    for ref, off in blocks:
        t = ray.get(ref)
        first = (t.column('p')[0].as_py(), t.column('v')[0].as_py())
        earlier = df[[k < first for k in keys]]
        assert off == sums(earlier)
        # row by row, the weight of the smaller keys of the row's part is
        # at most prefix_before, and the tie run's weight tops it up
        before = prefix_before(t, part, t.column('w').to_numpy(), off)
        for p, v, b in zip(t.column('p').to_pylist(),
                           t.column('v').to_pylist(), before):
            rows = df[df['p'] == p] if part else df
            key = list(zip(rows['p'], rows['v']))
            assert rows['w'][[k < (p, v) for k in key]].sum() <= b
            assert b <= rows['w'][[k <= (p, v) for k in key]].sum()


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


def test_sequence_carries_follow_a_key_over_blocks():
    """User 2 starts in block 0 and fills blocks 1 and 2: each of blocks 1-3
    gets user 2's last 2 rows so far and its sum so far; user 3 starts a
    block and gets no carry."""
    def run(xs, s, whole):
        return pa.table({'x': xs}), s, whole
    summaries = [((0, 1, 0), (0, 2, 9), run([10, 11], 5, False)),
                 ((0, 2, 10), (0, 2, 10), run([12], 3, True)),
                 ((0, 2, 11), (0, 2, 13), run([13, 14], 1, True)),
                 ((0, 2, 14), (0, 4, 1), run([20], 7, False)),
                 ((0, 5, 0), (1, 0, 0), run([30], 2, False))]
    got = [(None if rows is None else rows.column('x').to_pylist(), total)
           for rows, total in sequence_carries(summaries, tail=2)]
    assert got == [(None, 0), ([10, 11], 5), ([11, 12], 8), ([13, 14], 9),
                   (None, 0)]


# ---------------------------------------------------------------------------
# the ports: plan guard and degenerate inputs against DuckDB
# ---------------------------------------------------------------------------

EVENT_QUERIES = ['value_time_spearman', 'score_auc', 'value_ks_test']
ORDERS_QUERIES = ['orders_cume_dist', 'orders_percent_rank']
DOCUMENTS_QUERIES = ['sequence_packing', 'token_budget_selection']
# output dtypes of the nine queries, as before the sorted-prefix ports
DTYPES = {
    'value_time_spearman': {'event_type': 'string', 'spearman': 'float64'},
    'score_auc': {'auc': 'float64', 'n_pos': 'int64', 'n_neg': 'int64'},
    'value_ks_test': {'ks_stat': 'float64', 'n_a': 'int64', 'n_b': 'int64'},
    'weighted_median_price': {'l_returnflag': 'object',
                              'weighted_median_price': 'float64'},
    'orders_cume_dist': {'o_orderkey': 'int64', 'cd': 'float64'},
    'orders_percent_rank': {'o_orderkey': 'int64', 'pr': 'float64'},
    'sequence_packing': {'bin_id': 'int64', 'n_docs': 'int64',
                         'n_tokens': 'int64'},
    'token_budget_selection': {'doc_id': 'int64', 'quality_score': 'float64',
                               'n_tokens': 'int64'},
    'user_activity_gini': {'gini': 'float64', 'n_users': 'int64'},
    'event_transitions': {'prev_type': 'object', 'next_type': 'object',
                          'n_transitions': 'int64'},
    'event_deltas': {'event_id': 'int64', 'delta_us': 'int64'},
    'user_cumulative': {'event_id': 'int64', 'cum_cents': 'int64'},
    'user_rolling3': {'event_id': 'int64', 'win_cents': 'int64'},
    'event_markov2': {'prev_type': 'object', 'next2_type': 'object',
                      'w2': 'int64', 'prob2': 'float64'},
}
SEQUENCE_QUERIES = ['event_transitions', 'event_deltas', 'user_cumulative',
                    'user_rolling3', 'event_markov2']


def _events(value, event_type=None, seed: int = 0,
            user_id=None) -> pa.Table:
    n = len(value)
    rng = np.random.default_rng(seed)
    if event_type is None:
        event_type = rng.choice(['click', 'purchase', 'view'], n).tolist()
    return pa.table({
        'ts': pa.array(rng.integers(0, 40, n).astype('datetime64[us]')),
        'event_type': pa.array(event_type, pa.string()),
        'value': pa.array(value, pa.float64()),
        'user_id': pa.array(rng.integers(0, 30, n) if user_id is None
                            else user_id, pa.int64())})


def _sequence_events(n: int, seed: int = 0, user_id=None, ts=None,
                     null_type_every: int = 0) -> pa.Table:
    """``n`` events of 12 users with distinct microsecond timestamps, stored
    in random event_id order; values are whole quarters, so cents are
    exact."""
    rng = np.random.default_rng(seed)
    event_type = rng.choice(['click', 'purchase', 'view'], n).tolist()
    if null_type_every:
        event_type[::null_type_every] = [None] * len(
            event_type[::null_type_every])
    return pa.table({
        'event_id': pa.array(rng.permutation(n), pa.int64()),
        'ts': pa.array(rng.permutation(n) * 1_000 if ts is None else ts,
                       pa.int64()).cast(pa.timestamp('us')),
        'user_id': pa.array(rng.integers(0, 12, n) if user_id is None
                            else user_id, pa.int64()),
        'event_type': pa.array(event_type, pa.string()),
        'value': pa.array(rng.integers(0, 4_000, n) / 4, pa.float64())})


def _lineitem(price, qty=None, flag=None, seed: int = 0) -> pa.Table:
    n = len(price)
    rng = np.random.default_rng(seed)
    return pa.table({
        'l_returnflag': pa.array(rng.choice(['A', 'N', 'R'], n).tolist()
                                 if flag is None else flag, pa.string()),
        'l_extendedprice': pa.array(price, pa.float64()),
        'l_quantity': pa.array(rng.integers(1, 50, n).astype(float)
                               if qty is None else qty, pa.float64())})


def _orders(price, priority=None, seed: int = 0) -> pa.Table:
    n = len(price)
    rng = np.random.default_rng(seed)
    if priority is None:
        priority = rng.choice(['1-URGENT', '2-HIGH', '3-MEDIUM'], n).tolist()
    return pa.table({
        'o_orderkey': pa.array(rng.permutation(n), pa.int64()),
        'o_orderpriority': pa.array(priority, pa.string()),
        'o_totalprice': pa.array(price, pa.float64())})


WORDS = np.array(['data', 'quality', 'token', 'the', 'a', 'filter', 'x7',
                  '#', '...', 'Zürich', '42'])


def _documents(n: int, seed: int = 0, null_every: int = 0) -> pa.Table:
    """``n`` documents of 0-399 words, in doc_id order: about 10 bins of
    2,048 tokens per 100 documents, and the 20,000-token budget reached
    after about 100."""
    rng = np.random.default_rng(seed)
    text = [' '.join(rng.choice(WORDS, rng.integers(0, 400)))
            for _ in range(n)]
    if null_every:
        text[::null_every] = [None] * len(text[::null_every])
    return pa.table({
        'doc_id': pa.array(np.arange(n), pa.int64()),
        'text': pa.array(text, pa.string())})


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


def _holes(v: np.ndarray, nan_every: int = 0, null_every: int = 0) -> list:
    """``v`` with every ``nan_every``-th value NaN, then every
    ``null_every``-th NULL."""
    out = v.tolist()
    for i in range(len(out)):
        if nan_every and i % nan_every == 0:
            out[i] = np.nan
        if null_every and i % null_every == 0:
            out[i] = None
    return out


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
USER_CASES = {
    'empty': (_events([]), None),
    'null_user_id': (_events(_values(N), user_id=[None, 3, 4, 4] * (N // 4)),
                     None),
    'one_user': (_events(_values(N), user_id=[7] * N), None),
    'tiny_row_groups': (_events(_values(N)), 1),
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
ORDERS_CASES = {
    'empty': (_orders([]), None),
    'one_row': (_orders([3.5]), None),
    'null_priority': (_orders(_infs(N), [None, '1-URGENT', '2-HIGH']
                              * (N // 3)), None),
    'nan_price': (_orders(_holes(_infs(N), nan_every=2)), None),
    'null_price': (_orders(_holes(_values(N), null_every=2)), None),
    # one group ranks numbers, then inf, then NaN, then NULL
    'nan_and_null_one_group': (_orders(_holes(_infs(N), 5, 6),
                                       ['2-HIGH'] * N), None),
    'one_value_90pct': (_orders(_skewed(N)), None),
    'tiny_row_groups': (_orders(np.arange(N) % 3 * 1.5), 1),
}
SEQUENCE_CASES = {
    'empty': (_sequence_events(0), None),
    'null_user_id': (_sequence_events(N, user_id=_holes(
        np.arange(N) % 12, null_every=5)), None),
    'null_ts': (_sequence_events(N, ts=_holes(np.arange(N) * 1_000,
                                              null_every=7)), None),
    'null_event_type': (_sequence_events(N, null_type_every=3), None),
    # 8 timestamps for 12 users: (user_id, ts) repeats, event_id breaks ties
    'duplicate_user_ts': (_sequence_events(N, ts=np.arange(N) % 8), None),
    'one_user': (_sequence_events(N, user_id=[7] * N), None),
    'tiny_row_groups': (_sequence_events(N), 1),
}
DOCUMENTS_CASES = {
    'empty': (_documents(0), None),
    'null_text': (_documents(N, null_every=4), None),
    'tiny_row_groups': (_documents(N), 1),
}
TABLES = {
    **{name: ('events', EVENT_CASES) for name in EVENT_QUERIES},
    'weighted_median_price': ('lineitem', LINEITEM_CASES),
    **{name: ('orders', ORDERS_CASES) for name in ORDERS_QUERIES},
    **{name: ('documents', DOCUMENTS_CASES) for name in DOCUMENTS_QUERIES},
    'user_activity_gini': ('events', USER_CASES),
    **{name: ('events', SEQUENCE_CASES) for name in SEQUENCE_QUERIES},
}
PORTS = [(name, case) for name, (_, cases) in TABLES.items()
         for case in cases]


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df.astype({c: 'string' for c in df.columns
                    if not pd.api.types.is_numeric_dtype(df[c])})
    return df.sort_values(list(df.columns), kind='mergesort') \
        .reset_index(drop=True)


def _to_frame(got) -> pd.DataFrame:
    """A query's result as a frame.  Ray's ``to_pandas`` of a Dataset
    without rows has no columns, so such a Dataset must carry its columns
    in its schema."""
    if isinstance(got, pd.DataFrame):
        return got
    df = got.to_pandas()
    if len(df):
        return df
    schema = got.schema()
    assert schema is not None, 'an empty result Dataset without a schema'
    return schema.base_schema.empty_table().to_pandas()


def _run(tmp_path, name: str, tbl: pa.Table, row_group_size=None):
    """(engine frame, DuckDB oracle frame) of query ``name`` on ``tbl``."""
    table = TABLES[name][0]
    pq.write_table(tbl, tmp_path / f'{table}.parquet',
                   row_group_size=row_group_size)
    con = duckdb.connect()
    con.register(table, tbl)
    return _to_frame(q.queries()[name](str(tmp_path))), \
        con.execute(q.oracle_sql()[name]).df()


def _assert_equals_oracle(name: str, got: pd.DataFrame, want: pd.DataFrame):
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


@pytest.mark.parametrize('name,case', PORTS)
def test_port_equals_oracle_on_degenerate_input(ray_session, tmp_path,
                                                name, case):
    _assert_equals_oracle(name, *_run(tmp_path, name, *TABLES[name][1][case]))


def test_sequence_packing_on_file_not_in_doc_id_order(ray_session, tmp_path):
    """Documents stored in random doc_id order, in 256-row row groups: the
    read's blocks hold interleaved doc_id ranges, and the packing still
    follows doc_id order."""
    tbl = _documents(5000, seed=3)
    tbl = tbl.take(np.random.default_rng(0).permutation(tbl.num_rows))
    _assert_equals_oracle('sequence_packing', *_run(
        tmp_path, 'sequence_packing', tbl, 256))


# (case, sorts, grouped aggregates) of each port: Spearman sorts once per
# ranked axis, and sequence_packing and user_activity_gini add a groupby
PLANS = {
    **{name: ('one_value_90pct', 1, 0) for name in
       ['score_auc', 'value_ks_test', 'weighted_median_price']
       + ORDERS_QUERIES},
    'value_time_spearman': ('one_value_90pct', 2, 0),
    'sequence_packing': ('tiny_row_groups', 1, 1),
    'token_budget_selection': ('tiny_row_groups', 1, 0),
    'user_activity_gini': ('tiny_row_groups', 1, 1),
}


def _counted(monkeypatch, *targets) -> dict:
    """Call counts, by method name, of each ``(owner, method)`` target while
    the test runs."""
    calls = {}

    def count(owner, attr):
        real = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return real(*args, **kwargs)
        calls[attr] = 0
        monkeypatch.setattr(owner, attr, wrapper)

    for owner, attr in targets:
        count(owner, attr)
    return calls


@pytest.mark.parametrize('name', list(PLANS))
def test_port_plan_is_sorts_only(ray_session, tmp_path, monkeypatch, name):
    """Each port runs no Dataset.join and no drop_empty_blocks, and exactly
    the sorts and grouped aggregates of ``PLANS``."""
    calls = _counted(monkeypatch, (ray.data.Dataset, 'sort'),
                     (ray.data.Dataset, 'join'), (GroupedData, 'aggregate'),
                     (q, 'drop_empty_blocks'))
    case, sorts, aggregates = PLANS[name]
    got, want = _run(tmp_path, name, *TABLES[name][1][case])
    assert len(got) == len(want) > 0
    assert calls == {'sort': sorts, 'join': 0, 'aggregate': aggregates,
                     'drop_empty_blocks': 0}


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


@pytest.mark.parametrize('name', SEQUENCE_QUERIES)
def test_sequence_query_plan_is_one_sort(ray_session, tmp_path, monkeypatch,
                                         count_executions, name):
    """Each ``sorted_sequences`` query, result included, is one Ray Data
    execution holding one sort, with no per-user ``map_groups``, no Ray
    aggregate and no join."""
    calls = _counted(monkeypatch, (ray.data.Dataset, 'sort'),
                     (ray.data.Dataset, 'join'), (GroupedData, 'aggregate'),
                     (GroupedData, 'map_groups'))
    got, want = _run(tmp_path, name, *SEQUENCE_CASES['tiny_row_groups'])
    assert len(got) == len(want) > 0
    assert calls == {'sort': 1, 'join': 0, 'aggregate': 0, 'map_groups': 0}
    assert len(count_executions) == 1, count_executions


def test_event_markov2_null_next_type_is_none(ray_session, tmp_path):
    """A NULL event type is its own Markov state: ``next2_type`` holds None
    there, as DuckDB's frame does, and not a float NaN."""
    got, want = _run(tmp_path, 'event_markov2',
                     *SEQUENCE_CASES['null_event_type'])
    nulls = [v for v in want['next2_type'] if not isinstance(v, str)]
    assert nulls and all(v is None for v in nulls)
    assert sorted(map(repr, got['next2_type'])) == \
        sorted(map(repr, want['next2_type']))


@pytest.mark.parametrize('row_group_size', [None, 1])
def test_window_sums_skip_null_values(ray_session, tmp_path, row_group_size):
    """A NULL ``value`` is skipped by the running and rolling sums, as SQL
    ``sum`` skips it, and a window holding only NULLs sums to NULL.  User 1
    is the 3-event case 1.0, NULL, 2.0; user 2 opens and closes on NULL
    runs longer than the rolling window.  1-row row groups put the users'
    rows in several blocks, so the carried sums and counts are used."""
    value = [1.0, None, 2.0, None, None, 5.0, None, None, None]
    tbl = pa.table({
        'event_id': pa.array(np.arange(9), pa.int64()),
        'ts': pa.array(np.arange(9) * 1_000, pa.int64())
        .cast(pa.timestamp('us')),
        'user_id': pa.array([1, 1, 1, 2, 2, 2, 2, 2, 2], pa.int64()),
        'event_type': pa.array(['view'] * 9, pa.string()),
        'value': pa.array(value, pa.float64())})
    cum, want_cum = _run(tmp_path, 'user_cumulative', tbl, row_group_size)
    win, want_win = _run(tmp_path, 'user_rolling3', tbl, row_group_size)
    cum = cum.sort_values('event_id').reset_index(drop=True)
    win = win.sort_values('event_id').reset_index(drop=True)
    assert cum['cum_cents'].tolist()[:3] == [100, 100, 300]

    def values(s: pd.Series) -> list:
        return [None if pd.isna(v) else int(v) for v in s]
    assert values(cum['cum_cents']) == \
        [100, 100, 300, None, None, 500, 500, 500, 500]
    assert values(win['win_cents']) == \
        [100, 100, 300, None, None, 500, 500, 500, None]
    for got, want, col in ((cum, want_cum, 'cum_cents'),
                           (win, want_win, 'win_cents')):
        want = want.sort_values('event_id').reset_index(drop=True)
        assert got['event_id'].tolist() == want['event_id'].tolist()
        assert values(got[col]) == values(want[col])
