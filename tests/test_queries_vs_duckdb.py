"""Local mirror of the driver's correctness gate: run every ``queries()``
entry at sf0.001 and compare against its ``oracle_sql()`` in DuckDB
(row count + schema + order-insensitive values)."""

import glob
import os

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import __ray_entry__ as entrymod

SF_DIR = os.environ.get('GRAFT_TEST_SF', '/root/testdata/sf0.001')
TABLES = ('region nation customer supplier part orders lineitem events '
          'documents embeddings').split()


@pytest.fixture(scope='module')
def con():
    c = duckdb.connect()
    for t in TABLES:
        path = os.path.join(SF_DIR, f'{t}.parquet')
        if os.path.exists(path):
            c.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{path}')")
    return c


def _to_df(result) -> pd.DataFrame:
    if isinstance(result, pd.DataFrame):
        return result
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result.to_pandas()    # ray Dataset


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype('float64').round(6)
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype('int64')
        elif pd.api.types.is_bool_dtype(df[c]):
            df[c] = df[c].astype('bool')
        else:
            df[c] = df[c].astype('string')
    return df.sort_values(list(df.columns), kind='mergesort').reset_index(drop=True)


SQL = entrymod.oracle_sql()
QUERIES = entrymod.queries()


@pytest.mark.parametrize('name', sorted(SQL))
def test_query_matches_oracle(name, con):
    got = _normalize(_to_df(QUERIES[name](SF_DIR)))
    exp = _normalize(con.execute(SQL[name]).fetchdf())
    assert list(got.columns) == list(exp.columns), (got.columns, exp.columns)
    assert len(got) == len(exp), f'{name}: {len(got)} vs {len(exp)} rows'
    for c in got.columns:
        if pd.api.types.is_float_dtype(got[c]):
            assert np.allclose(got[c].to_numpy(), exp[c].to_numpy(),
                               rtol=1e-9, atol=1e-9, equal_nan=True), f'{name}.{c}'
        else:
            mism = (got[c].fillna('<NA>') != exp[c].fillna('<NA>'))
            assert not mism.any(), \
                f'{name}.{c}: {int(mism.sum())} mismatches, e.g.\n' \
                f'{got[mism].head(3)}\nvs\n{exp[mism].head(3)}'


@pytest.mark.parametrize('name', sorted(set(QUERIES) - set(SQL)))
def test_rows_only_queries_run(name):
    got = _to_df(QUERIES[name](SF_DIR))
    assert len(got) >= 0
    if len(got) > 0:
        assert len(got.columns) > 0


def test_entry_runs():
    ds = entrymod.entry()
    df = _to_df(ds)
    assert len(df) > 0
    assert {'url', 'keep', 'scrubbed_text', 'pii_spans'} <= set(df.columns)


def test_bucketed_join_oracle_sum_cents_is_int64(con):
    """DuckDB sums BIGINT into HUGEINT; the oracle casts back so its
    ``sum_cents`` has the engine's int64 dtype (``_normalize`` would hide
    the difference)."""
    tbl = con.execute(SQL['bucketed_join']).fetch_arrow_table()
    assert tbl.schema.field('sum_cents').type == pa.int64()


def test_fingerprint_oracle_short_text_hash_is_exact():
    """The fingerprint oracle's 1-4-char branch equals
    ``winnow_fingerprint`` bit for bit (4-char hashes need 1000003^3, which
    DOUBLE arithmetic rounds)."""
    from pii_detector_ray.queries import _FP_SHORT_HASH_SQL
    from pii_detector_ray.stages.textstats import winnow_fingerprint
    texts = ['a', '9', 'Zq', 'abc', 'wxyz', 'zzzz', '世界你好', 'ÿÿÿÿ',
             '\U0010ffff' * 4, 'a b', ' \t\n.']
    c = duckdb.connect()
    c.register('docs', pd.DataFrame({'doc_id': range(len(texts)),
                                     'text': texts}))
    got = dict(c.execute(
        "WITH d AS (SELECT doc_id, lower(text) AS t FROM docs), "
        'chars AS (SELECT doc_id, i, unicode(substr(t, i, 1))::HUGEINT AS c, '
        'length(t) AS n FROM d, LATERAL unnest(range(1, length(t)+1)) AS u(i)) '
        + _FP_SHORT_HASH_SQL).fetchall())
    assert {i: int(v) for i, v in got.items()} == {
        i: winnow_fingerprint(t)[0] for i, t in enumerate(texts)}
