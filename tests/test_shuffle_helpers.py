"""The Ray 2.49 shuffle workaround lives in two helpers in stages/dedup.py:
``hash_join`` (every Dataset.join) and ``bounded_agg`` (every coalesced
aggregate).  These tests pin what each helper promises and that no other
module hand-rolls either pattern, nor walks a dataset's block refs outside
``drop_empty_blocks`` and ``stages/ranks.sorted_prefix``."""

import ast
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data
from ray.data.aggregate import Count, Sum

import pii_detector_ray
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


def test_shuffle_workaround_lives_in_one_place():
    joins, coalesced, wrapped, defs, ref_walks = [], [], [], [], []
    for path in sorted(PKG.rglob('*.py')):
        rel = path.relative_to(PKG).as_posix()
        for call, fn in _calls(path):
            where = (rel, fn)
            kws = {k.arg for k in call.keywords}
            # Dataset.join; pyarrow's Table.join takes keys= instead
            if _method(call, 'join') and 'join_type' in kws and \
                    'keys' not in kws:
                joins.append(where)
            if _method(call, 'groupby') and \
                    _method(call.func.value, 'repartition') and \
                    ast.literal_eval(call.func.value.args[0]) == 1:
                coalesced.append(where)
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
    assert set(coalesced) == {('stages/dedup.py', 'bounded_agg')}
    assert wrapped == []
    assert set(ref_walks) == {('stages/dedup.py', 'drop_empty_blocks'),
                              ('stages/ranks.py', 'sorted_prefix')}
    assert sorted(defs) == [('stages/dedup.py', 'bounded_agg'),
                            ('stages/dedup.py', 'drop_empty_blocks'),
                            ('stages/dedup.py', 'hash_join')]
