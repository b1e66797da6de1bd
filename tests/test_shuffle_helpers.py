"""The Ray 2.49 shuffle workaround lives in two helpers in stages/dedup.py:
``hash_join`` (every Dataset.join) and ``bounded_agg`` (every coalesced
aggregate).  These tests pin what each helper promises, that their
shuffle-free paths equal Ray's operators, and that no other module
hand-rolls either pattern, nor walks a dataset's block refs outside
``drop_empty_blocks`` and ``stages/ranks.sorted_prefix``, nor hand-rolls
the sorted-prefix pattern outside ``stages/ranks.py``."""

import ast
import contextlib
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data
from ray.data.aggregate import Count, Max, Mean, Min, Sum
from ray.data.grouped_data import GroupedData

import pii_detector_ray
from pii_detector_ray import queries as q
from pii_detector_ray.stages.dedup import bounded_agg, hash_join

PKG = Path(pii_detector_ray.__file__).parent


def _blocks(ds: ray.data.Dataset) -> list[pa.Table]:
    return [ray.get(ref) for bundle in ds.iter_internal_ref_bundles()
            for ref, _ in bundle.blocks]


def _partials(n_blocks: int, keys: int) -> ray.data.Dataset:
    """Per-batch pre-aggregates over ``n_blocks`` blocks; every third
    block's batch comes out empty."""
    def partial(t: pa.Table) -> pa.Table:
        ids = t.column('id').to_numpy()
        if ids[0] // 10 % 3 == 0:
            ids = ids[:0]
        out = pa.table({'k': pa.array(ids % keys, pa.int64()),
                        '_n': pa.array(np.ones(len(ids), np.int64))})
        return out.group_by('k').aggregate([('_n', 'sum')]) \
            .rename_columns(['k', '_n'])

    return ray.data.range(n_blocks * 10, override_num_blocks=n_blocks) \
        .map_batches(partial, batch_format='pyarrow', batch_size=None)


def test_bounded_agg_returns_one_block_with_schema(ray_session):
    partials = _partials(12, keys=3).materialize()
    metas = [m for bundle in partials.iter_internal_ref_bundles()
             for _, m in bundle.blocks]
    assert len(metas) >= 12
    assert any(m.num_rows == 0 for m in metas)

    out = bounded_agg(partials, 'k', Sum('_n', alias_name='n'),
                      Count(alias_name='c')).materialize()
    blocks = _blocks(out)
    assert len(blocks) == 1
    assert blocks[0].schema.names == ['k', 'n', 'c']

    ids = np.array([i for i in range(120) if i // 10 % 3 != 0])
    exp = pd.Series(ids % 3).value_counts().sort_index()
    got = blocks[0].to_pandas().sort_values('k')
    assert got['k'].tolist() == exp.index.tolist()
    assert got['n'].tolist() == exp.tolist()


def _ray_agg(partials, keys, *aggs) -> ray.data.Dataset:
    """The coalesced Ray aggregate ``bounded_agg`` replaces."""
    return partials.repartition(1).groupby(keys).aggregate(*aggs)


_AGG_TABLE = pa.table({
    'k': pa.array([3, None, 1, 1, 2, None, 3, 2], pa.int64()),
    's': pa.array(['b', 'a', None, 'a', 'b', 'a', 'b', None]),
    'n': pa.array([1, 2, 3, 4, None, None, 5, 6], pa.int32()),
    'x': pa.array([1.5, 2.0, None, 4.0, None, 1.0, 0.5, 8.0], pa.float32()),
    'u': pa.array([1, 2, 3, 4, 5, 6, 7, 8], pa.uint8()),
    't': pa.array(['x', 'y', 'z', None, 'w', None, 'v', 'u'])})


def _agg_case(case: str) -> tuple:
    blocks = [_AGG_TABLE.slice(i, 3) for i in range(0, 8, 3)]
    ds = ray.data.from_arrow(blocks)
    if case == 'pandas_objects':
        # object-column pandas blocks, as a pandas map_groups emits them
        return (ds.map_batches(lambda d: d[['s', 'k', 'n']],
                               batch_format='pandas'),
                's', (Sum('n', alias_name='sn'), Count(alias_name='c')))
    if case == 'null_keys':
        return ds, 'k', (Sum('u', alias_name='su'),
                         Count(alias_name='c'))
    if case == 'all_null_sum_group':
        # group k=2 has only NULL n and x
        return (ds.filter(expr='k == 2 or k == 3'), 'k',
                (Sum('n', alias_name='sn'), Max('x', alias_name='mx')))
    if case == 'multi_key':
        return ds, ['s', 'k'], (Sum('n', alias_name='sn'),
                                Sum('x', alias_name='sx'))
    if case == 'count_max_min':
        return ds, 's', (Count(alias_name='c'), Max('t', alias_name='mt'),
                         Min('n', alias_name='mn'), Max('x', alias_name='mx'),
                         Min('u', alias_name='mu'))
    assert case == 'all_empty'
    return ds.filter(expr='k > 100'), 'k', (Sum('n', alias_name='sn'),)


@pytest.mark.parametrize('case', ['pandas_objects', 'null_keys',
                                  'all_null_sum_group', 'multi_key',
                                  'count_max_min', 'all_empty'])
def test_bounded_agg_equals_ray_aggregate(ray_session, case):
    partials, keys, aggs = _agg_case(case)
    want = _ray_agg(partials, keys, *aggs).materialize()
    got = bounded_agg(partials, keys, *aggs).materialize()
    assert got.num_blocks() == want.num_blocks() == 1
    assert (got.schema() is None) == (want.schema() is None)
    g, w = got.to_pandas(), want.to_pandas()
    assert g.dtypes.to_dict() == w.dtypes.to_dict()
    pd.testing.assert_frame_equal(g, w)


def test_bounded_agg_rejects_other_aggregates(ray_session):
    ds = ray.data.from_arrow(_AGG_TABLE)
    with pytest.raises(TypeError, match='Mean'):
        bounded_agg(ds, 'k', Sum('n'), Mean('x'))


def _rows(df: pd.DataFrame) -> list[tuple]:
    df = df[sorted(df.columns)].astype(object)
    return sorted(tuple(None if pd.isna(v) else int(v) for v in r)
                  for r in df.itertuples(index=False))


@pytest.mark.parametrize('how', ['inner', 'left_outer', 'full_outer'])
def test_hash_join_with_an_uncoalesced_aggregate_side(ray_session, how):
    # the plain aggregate emits one block per shuffle partition; with one
    # key over 8+ blocks all but one are 0-row and schema-less, which a
    # raw Dataset.join dies on (ArrowInvalid) for all three join types
    agg = _partials(10, keys=1) \
        .groupby('k').aggregate(Sum('_n', alias_name='n')).materialize()
    blocks = _blocks(agg)
    assert len(blocks) >= 8
    assert any(b.num_rows == 0 for b in blocks)

    right = ray.data.from_arrow(pa.table({
        'k': pa.array([0, 1, 5, 6], pa.int64()),
        'w': pa.array([0, 10, 50, 60], pa.int64())})).repartition(4)
    for left, rgt in [(agg, right), (right, agg)]:
        got = hash_join(left, rgt, 'k', how).to_pandas()
        exp = left.to_pandas().merge(rgt.to_pandas(), on='k', how={
            'inner': 'inner', 'left_outer': 'left', 'full_outer': 'outer'}[how])
        assert _rows(got) == _rows(exp)


def test_hash_join_inner_with_an_empty_side_is_typed(ray_session):
    left = ray.data.from_arrow(pa.table({
        'k': pa.array([1, 2], pa.int64()),
        'v': pa.array(['a', 'b'], pa.string())}))
    right = ray.data.from_arrow(pa.table({
        'k': pa.array([], pa.int64()), 'w': pa.array([], pa.float64())}))
    for out in (hash_join(left, right, 'k'), hash_join(right, left, 'k')):
        assert out.count() == 0
        sch = out.schema().base_schema
        assert dict(zip(sch.names, sch.types)) == {
            'k': pa.int64(), 'v': pa.string(), 'w': pa.float64()}


def test_hash_join_outer_with_an_empty_side_is_typed(ray_session):
    left = ray.data.from_arrow(pa.table({
        'k': pa.array([1, None, 2], pa.int64()),
        'v': pa.array(['a', 'b', 'c'], pa.string())}))
    right = ray.data.from_arrow(pa.table({
        'k': pa.array([], pa.int64()), 'w': pa.array([], pa.float64())}))
    kept = {'k': [1, None, 2], 'v': ['a', 'b', 'c'], 'w': [None] * 3}

    def result(ds):
        t = pa.concat_tables(ray.get(ds.to_arrow_refs())) \
            .sort_by([('v', 'ascending')])
        return dict(zip(t.column_names, t.schema.types)), t.to_pydict()

    types = {'k': pa.int64(), 'v': pa.string(), 'w': pa.float64()}
    for how in ('left_outer', 'full_outer'):
        assert result(hash_join(left, right, 'k', how)) == (types, kept)
    # swapped: the right side's columns come first
    swapped = {'k': pa.int64(), 'w': pa.float64(), 'v': pa.string()}
    out = hash_join(right, left, 'k', 'left_outer')
    assert out.count() == 0
    sch = out.schema().base_schema
    assert dict(zip(sch.names, sch.types)) == swapped
    assert result(hash_join(right, left, 'k', 'full_outer')) == \
        (swapped, {'k': [1, None, 2], 'w': [None] * 3, 'v': ['a', 'b', 'c']})


@contextlib.contextmanager
def _count_calls(monkeypatch, *targets):
    """Count the calls of each ``(owner, attr)`` while the block runs."""
    calls = {attr: 0 for _, attr in targets}
    for owner, attr in targets:
        real = getattr(owner, attr)

        def wrapper(*args, _real=real, _attr=attr, **kwargs):
            calls[_attr] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(owner, attr, wrapper)
    yield calls
    monkeypatch.undo()


def _join_sides(case: str) -> tuple:
    rng = np.random.default_rng(7)
    if case == 'duplicate_keys':
        lk, rk = rng.integers(0, 6, 60), rng.integers(0, 8, 20)
        left = pa.table({'k': pa.array(lk), 'lv': pa.array(np.arange(60))})
        right = [pa.table({'k': pa.array(rk[:10]),
                           'rv': pa.array(np.arange(10))}),
                 pa.table({'k': pa.array(rk[10:]),
                           'rv': pa.array(np.arange(10, 20))})]
        return left, right, 'k'
    if case == 'null_keys':
        left = pa.table({'k': pa.array([1, None, 2, None, 3], pa.int64()),
                         'lv': pa.array(np.arange(5))})
        right = [pa.table({'k': pa.array([None, 1, 3, None], pa.int64()),
                           'rv': pa.array(['n', 'a', 'c', 'm'])})]
        return left, right, 'k'
    if case == 'two_column_key':
        left = pa.table({'a': pa.array(rng.integers(0, 3, 40)),
                         'b': pa.array(rng.choice(['x', 'y', None], 40)),
                         'lv': pa.array(np.arange(40))})
        right = [pa.table({'a': pa.array([0, 0, 1, 2, 2]),
                           'b': pa.array(['x', 'y', 'x', None, 'y']),
                           'rv': pa.array([1.0, 2.0, 3.0, 4.0, 5.0])})]
        return left, right, ('a', 'b')
    assert case == 'promoted_right_types'
    left = pa.table({'k': pa.array([1, 2, 3, 4], pa.int64()),
                     'lv': pa.array([10, 20, 30, 40])})
    # int32 then int64 values, and a column that is all-NULL in one block
    right = [pa.table({'k': pa.array([1, 2], pa.int64()),
                       'rv': pa.array([5, 6], pa.int32()),
                       'rs': pa.nulls(2)}),
             pa.table({'k': pa.array([2, 4], pa.int64()),
                       'rv': pa.array([7, 2 ** 40], pa.int64()),
                       'rs': pa.array(['p', None])})]
    return left, right, 'k'


def _sorted_table(ds: ray.data.Dataset) -> pa.Table:
    t = pa.concat_tables(ray.get(ds.to_arrow_refs()))
    return t.sort_by([(c, 'ascending') for c in t.column_names])


@pytest.mark.parametrize('how', ['inner', 'left_outer'])
@pytest.mark.parametrize('case', ['duplicate_keys', 'null_keys',
                                  'two_column_key', 'promoted_right_types'])
def test_hash_join_broadcast_equals_ray_join(ray_session, monkeypatch,
                                             max_block_size, case, how):
    lt, rts, on = _join_sides(case)
    left = ray.data.from_arrow([lt.slice(0, len(lt) // 2),
                                lt.slice(len(lt) // 2)])
    right = ray.data.from_arrow(rts)
    with _count_calls(monkeypatch, (ray.data.Dataset, 'join')) as calls:
        got = _sorted_table(hash_join(left, right, on, how))
    assert calls == {'join': 0}
    with max_block_size(1), \
            _count_calls(monkeypatch, (ray.data.Dataset, 'join')) as calls:
        want = _sorted_table(hash_join(left, right, on, how))
    assert calls == {'join': 1}
    assert got.schema == want.schema
    assert got.equals(want)


def test_hash_join_shuffles_past_the_build_budget(ray_session, monkeypatch):
    """A right side that fits one block still shuffles once one hash build
    of it per left block exceeds ``BROADCAST_BUILD_BYTES``."""
    from pii_detector_ray.stages import dedup

    lt = pa.table({'k': pa.array(np.arange(40) % 7), 'lv': np.arange(40)})
    left = ray.data.from_arrow([lt.slice(i * 10, 10) for i in range(4)])
    right = ray.data.from_arrow(pa.table({'k': np.arange(7),
                                          'rv': np.arange(7) * 2}))
    build = right.size_bytes() * 4
    got = {}
    for budget in (build, build - 1):
        monkeypatch.setattr(dedup, 'BROADCAST_BUILD_BYTES', budget)
        with _count_calls(monkeypatch, (ray.data.Dataset, 'join')) as calls:
            got[budget] = _sorted_table(hash_join(left, right, 'k'))
        assert calls == {'join': int(budget < build)}
    assert got[build].equals(got[build - 1]) and got[build].num_rows == 40


def _gate_events(tmp_path) -> str:
    """An events table in the benchmark's gate shape: 10,000 rows over 150
    users and 5 event types, ``ts`` rising with ``event_id``."""
    import pyarrow.parquet as pq

    rng = np.random.default_rng(0)
    n = 10_000
    ts = 1_704_067_200_000_000 + np.arange(n, dtype=np.int64) * 259_200_000
    pq.write_table(pa.table({
        'event_id': pa.array(np.arange(n, dtype=np.int64)),
        'ts': pa.array(ts, pa.timestamp('us')),
        'user_id': pa.array(rng.integers(0, 150, n, dtype=np.int64)),
        'event_type': pa.array(rng.choice(
            ['click', 'error', 'purchase', 'signup', 'view'], n).tolist()),
        'value': pa.array(np.round(rng.exponential(50.0, n), 2))}),
        tmp_path / 'events.parquet')
    return str(tmp_path)


@pytest.mark.parametrize('name', ['event_markov2', 'events_segment_join'])
def test_gate_query_plans_skip_ray_shuffle_operators(ray_session, tmp_path,
                                                     monkeypatch, name):
    """On gate-shaped tables ``event_markov2`` closes its transition
    partials without a Ray aggregate and ``events_segment_join`` joins
    without a ``Dataset.join``; both still equal their DuckDB oracle."""
    import duckdb

    target = {'event_markov2': (GroupedData, 'aggregate'),
              'events_segment_join': (ray.data.Dataset, 'join')}[name]
    sf_dir = _gate_events(tmp_path)
    with _count_calls(monkeypatch, target) as calls:
        got = q.queries()[name](sf_dir)
        got = got if isinstance(got, pd.DataFrame) else got.to_pandas()
    assert calls == {target[1]: 0}
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf_dir}/events.parquet')")
    want = con.execute(q.oracle_sql()[name]).df()
    cols = list(want.columns)
    got = got[cols].sort_values(cols[:-1]).reset_index(drop=True)
    want = want.sort_values(cols[:-1]).reset_index(drop=True)
    assert got.astype(str).equals(want.astype(str))


def _calls(path: Path):
    """(call node, innermost enclosing function name) for every call."""
    out = []

    def visit(node, fn):
        for ch in ast.iter_child_nodes(node):
            if isinstance(ch, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(ch, ch.name)
                continue
            if isinstance(ch, ast.Call):
                out.append((ch, fn))
            visit(ch, fn)

    visit(ast.parse(path.read_text()), None)
    return out


def _method(node, name: str) -> bool:
    return isinstance(node, ast.Call) and \
        isinstance(node.func, ast.Attribute) and node.func.attr == name


def _named(node, name: str) -> bool:
    return isinstance(node, ast.Call) and \
        isinstance(node.func, ast.Name) and node.func.id == name


def _is_coalesce(node) -> bool:
    """``<ds>.repartition(1)``."""
    return _method(node, 'repartition') and len(node.args) == 1 and \
        isinstance(node.args[0], ast.Constant) and node.args[0].value == 1


def _scope_defs(node) -> dict:
    """Name -> function defs declared directly in ``node``'s scope (also
    inside its ``if``/``for`` blocks, not inside nested functions)."""
    out, stack = {}, list(ast.iter_child_nodes(node))
    while stack:
        ch = stack.pop()
        if isinstance(ch, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.setdefault(ch.name, []).append(ch)
        elif not isinstance(ch, (ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(ch))
    return out


def _coalesced_reduces(path: Path) -> list:
    """Innermost enclosing function of every ``repartition(1)`` feeding a
    ``map_batches`` whose function (resolved through the enclosing scopes)
    runs a pyarrow ``group_by(...).aggregate(...)`` — a hand-rolled
    coalesced aggregate."""
    def aggregates(fn) -> bool:
        return any(_method(n, 'aggregate') and _method(n.func.value, 'group_by')
                   for n in ast.walk(fn))

    out = []

    def visit(node, env, fn):
        env = {**env, **_scope_defs(node)}
        for ch in ast.iter_child_nodes(node):
            if _method(ch, 'map_batches') and _is_coalesce(ch.func.value) \
                    and ch.args and isinstance(ch.args[0], ast.Name) and \
                    any(aggregates(d) for d in env.get(ch.args[0].id, [])):
                out.append(fn)
            if isinstance(ch, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(ch, env, ch.name)
            else:
                visit(ch, env, fn)

    visit(ast.parse(path.read_text()), {}, None)
    return out


def test_shuffle_workaround_lives_in_one_place():
    joins, coalesced_groupbys, wrapped, defs, ref_walks = [], [], [], [], []
    coalesced = []
    for path in sorted(PKG.rglob('*.py')):
        rel = path.relative_to(PKG).as_posix()
        coalesced += [(rel, fn) for fn in _coalesced_reduces(path)]
        for call, fn in _calls(path):
            where = (rel, fn)
            kws = {k.arg for k in call.keywords}
            # Dataset.join; pyarrow's Table.join takes keys= instead
            if _method(call, 'join') and 'join_type' in kws and \
                    'keys' not in kws:
                joins.append(where)
            # the Ray-aggregate form of the coalesce: gone everywhere
            if _method(call, 'groupby') and _is_coalesce(call.func.value):
                coalesced_groupbys.append(where)
            if _method(call, 'iter_internal_ref_bundles'):
                ref_walks.append(where)
            if _named(call, 'hash_join') and \
                    any(_named(a, 'drop_empty_blocks') for a in call.args[:2]):
                wrapped.append((rel, call.lineno))
            if _named(call, 'drop_empty_blocks') and \
                    any(_named(a, 'bounded_agg') for a in call.args):
                wrapped.append((rel, call.lineno))
        defs += [(rel, n.name) for n in ast.walk(ast.parse(path.read_text()))
                 if isinstance(n, ast.FunctionDef) and n.name in
                 ('hash_join', 'bounded_agg', 'drop_empty_blocks')]
    assert set(joins) == {('stages/dedup.py', 'hash_join')}
    assert coalesced_groupbys == []
    assert set(coalesced) == {('stages/dedup.py', 'bounded_agg')}
    assert wrapped == []
    assert set(ref_walks) == {('stages/dedup.py', 'drop_empty_blocks'),
                              ('stages/ranks.py', '_sorted_blocks')}
    assert sorted(defs) == [('stages/dedup.py', 'bounded_agg'),
                            ('stages/dedup.py', 'drop_empty_blocks'),
                            ('stages/dedup.py', 'hash_join')]


def test_queries_take_no_broadcast_limit():
    """Broadcast vs shuffle is chosen in one place, ``dedup.broadcasts``,
    from measured bytes: no function in ``queries.py`` takes a row-count
    ``broadcast...limit`` parameter that picks a plan of its own."""
    tree = ast.parse((PKG / 'queries.py').read_text())
    forks = [(fn.name, a.arg) for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for a in (fn.args.posonlyargs + fn.args.args
                       + fn.args.kwonlyargs)
             if re.search(r'broadcast\w*limit', a.arg)]
    assert forks == []


def test_sorted_prefix_lives_in_one_place():
    """No function outside ``stages/ranks.py`` hand-rolls the sorted-prefix
    pattern: ``ray.put`` of driver-side offsets plus two or more whole-block
    ``map_batches(batch_size=None)`` passes over one dataset (a summary
    pass, then a pass that re-reads the same blocks)."""
    def whole_block(call) -> bool:
        return any(k.arg == 'batch_size' and isinstance(k.value, ast.Constant)
                   and k.value.value is None for k in call.keywords)

    copies = []
    for path in sorted(PKG.rglob('*.py')):
        rel = path.relative_to(PKG).as_posix()
        if rel == 'stages/ranks.py':
            continue
        puts, passes = set(), Counter()
        for call, fn in _calls(path):
            if _method(call, 'put') and isinstance(call.func.value, ast.Name) \
                    and call.func.value.id == 'ray':
                puts.add(fn)
            if _method(call, 'map_batches') and whole_block(call) and \
                    isinstance(call.func.value, ast.Name):
                passes[fn, call.func.value.id] += 1
        copies += [(rel, fn) for (fn, _), k in passes.items()
                   if k >= 2 and fn in puts]
    assert copies == []


def test_sequence_operators_run_no_map_groups():
    """The per-user sequence operators of ``stages/ranks.py`` and their
    ``q_`` callers run on one sort: none of their functions (nested ones
    included) calls ``map_groups``."""
    def defs(path: Path, names: list[str]) -> list:
        fns = [n for n in ast.parse(path.read_text()).body
               if isinstance(n, ast.FunctionDef) and n.name in names]
        assert sorted(fn.name for fn in fns) == sorted(names)
        return fns

    fns = defs(PKG / 'stages' / 'ranks.py', [
        'event_transitions', 'event_deltas', 'cumulative_sum', 'rolling_sum',
        'sorted_sequences']) + defs(PKG / 'queries.py', [
            'q_event_transitions', 'q_event_markov2', 'q_event_deltas',
            'q_user_cumulative', 'q_user_rolling3', '_events_cents'])
    assert [(fn.name, c.lineno) for fn in fns for c in ast.walk(fn)
            if _method(c, 'map_groups')] == []
    assert 'map_groups' not in (PKG / 'stages' / 'ranks.py').read_text()


# ---------------------------------------------------------------------------
# a lazy probe side: hash_join materializes only the build side
# ---------------------------------------------------------------------------

_TYPES = {'k': pa.int64(), 'v': pa.string(), 'w': pa.float64()}


def _right() -> ray.data.Dataset:
    return ray.data.from_arrow(pa.table({
        'k': pa.array([1, 2, 3], pa.int64()),
        'w': pa.array([10.0, 20.0, 30.0], pa.float64())}))


@pytest.mark.parametrize('how', ['inner', 'left_outer'])
def test_hash_join_lazy_empty_left(ray_session, tmp_path, how):
    """A lazy left whose plan states zero rows (a read of a zero-row file)
    gives the typed empty result.  A lazy left that turns out empty only
    when it runs (here: schema-less empty blocks behind a map) gives a
    result without rows, which ``queries._frame`` types."""
    import pyarrow.parquet as pq

    pq.write_table(pa.table({'k': pa.array([], pa.int64()),
                             'v': pa.array([], pa.string())}),
                   tmp_path / 'empty.parquet')
    read = ray.data.read_parquet(str(tmp_path / 'empty.parquet'))
    out = hash_join(read, _right(), 'k', how)
    assert out.count() == 0
    sch = out.schema().base_schema
    assert dict(zip(sch.names, sch.types)) == _TYPES

    schemaless = ray.data.from_arrow([pa.table({}), pa.table({})]) \
        .map_batches(lambda t: t, batch_format='pyarrow')
    out = hash_join(schemaless, _right(), 'k', how)
    assert out.count() == 0
    frame = q._frame(out, pa.schema(list(_TYPES.items())))
    assert len(frame) == 0 and list(frame.columns) == ['k', 'v', 'w']


@pytest.mark.parametrize('how', ['inner', 'left_outer'])
def test_hash_join_runs_a_lazy_broadcast_left_once(ray_session, tmp_path,
                                                   count_executions, how):
    """On the broadcast path the left side is not run by ``hash_join``: the
    read, its map, the probe and the caller's map run as one execution,
    when the result is collected."""
    import pyarrow.parquet as pq

    k = np.arange(1_000) % 5
    pq.write_table(pa.table({'k': pa.array(k, pa.int64()),
                             'v': pa.array([f'v{i}' for i in k])}),
                   tmp_path / 'left.parquet')
    left = ray.data.read_parquet(str(tmp_path / 'left.parquet')) \
        .map_batches(lambda t: t, batch_format='pyarrow')
    right = _right()
    out = hash_join(left, right, 'k', how) \
        .map_batches(lambda t: t, batch_format='pyarrow')
    assert count_executions == []
    got = out.to_pandas()
    assert len(count_executions) == 1, count_executions
    want = pd.DataFrame({'k': k, 'v': [f'v{i}' for i in k]}).merge(
        right.to_pandas(), on='k',
        how={'inner': 'inner', 'left_outer': 'left'}[how])
    assert _rows(got.drop(columns='v').fillna(-1)) == \
        _rows(want.drop(columns='v').fillna(-1))


@pytest.fixture(scope='module')
def gate_tables(tmp_path_factory) -> str:
    """The benchmark's gate tables (events, lineitem, documents)."""
    from perfbench.inputs import gate_tables
    return gate_tables(str(tmp_path_factory.mktemp('gate')), 0)


# Ray Data executions per gate query, result included: the
# events_segment_join dimension and the probe's fused read + probe +
# partial are two
GATE_EXECUTIONS = {'event_markov2': 1, 'value_time_spearman': 2,
                   'weighted_median_price': 1, 'events_segment_join': 2,
                   'scrub_documents': 1}


@pytest.mark.parametrize('name', list(GATE_EXECUTIONS))
def test_gate_query_executions(ray_session, gate_tables, count_executions,
                               name):
    """Each gate query runs its pinned number of Ray Data executions on
    the benchmark's gate tables and equals the benchmark's oracle."""
    from perfbench.oracles import frames_equal, gate_oracle, normalize

    got = q.queries()[name](gate_tables)
    got = got if isinstance(got, pd.DataFrame) else got.to_pandas()
    assert len(count_executions) == GATE_EXECUTIONS[name], count_executions
    assert frames_equal(normalize(got), gate_oracle(gate_tables, (name,))[name])


# the counts at sf0.001 before the probe side stayed lazy were 8 and 5
TPCH_EXECUTIONS = {'local_supplier_volume': 5, 'shipping_priority': 3}


@pytest.mark.parametrize('name', list(TPCH_EXECUTIONS))
def test_tpch_join_executions(ray_session, count_executions, name):
    """The lineitem and orders probes fuse into their reads: the two TPC-H
    join queries run fewer executions at sf0.001 and equal DuckDB."""
    import os

    import duckdb
    from test_queries_edge_tables import SF as sf

    got = q.queries()[name](sf)
    got = got if isinstance(got, pd.DataFrame) else got.to_pandas()
    assert len(count_executions) == TPCH_EXECUTIONS[name], count_executions
    con = duckdb.connect()
    for t in ('region', 'nation', 'customer', 'supplier', 'orders',
              'lineitem'):
        con.execute(f'CREATE VIEW {t} AS SELECT * FROM '
                    f"read_parquet('{os.path.join(sf, t + '.parquet')}')")
    want = con.execute(q.oracle_sql()[name]).df()
    from perfbench.oracles import frames_equal, normalize
    assert frames_equal(normalize(got), normalize(want))
