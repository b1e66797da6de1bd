"""The join queries on two edge-case copies of the sf0.001 tables must
equal their DuckDB oracles: NULL join keys (every 5th ``events.user_id``
and ``orders.o_custkey``; a NULL key matches nothing in SQL's inner join)
and empty fact tables (``orders``, ``lineitem`` and ``events`` with no
rows, where a query owes the oracle's typed empty or NULL result)."""

import os

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from pii_detector_ray import queries as q

SF = '/root/testdata/sf0.001'
TABLES = ('region nation customer supplier part orders lineitem events '
          'documents').split()


def _copy(dst: str, edit) -> str:
    """``SF``'s tables written to ``dst``, each passed through
    ``edit(name, table)`` first."""
    for t in TABLES:
        pq.write_table(edit(t, pq.read_table(os.path.join(SF, f'{t}.parquet'))),
                       os.path.join(dst, f'{t}.parquet'))
    return dst


@pytest.fixture(scope='module')
def null_keys_dir(tmp_path_factory):
    def every_5th_null(name: str, t: pa.Table) -> pa.Table:
        col = {'events': 'user_id', 'orders': 'o_custkey'}.get(name)
        if col is None:
            return t
        i = t.schema.get_field_index(col)
        null = pa.array(np.arange(len(t)) % 5 == 0)
        return t.set_column(i, col, pc.if_else(
            null, pa.scalar(None, t.schema.field(col).type), t.column(col)))
    return _copy(str(tmp_path_factory.mktemp('null_keys')), every_5th_null)


@pytest.fixture(scope='module')
def empty_facts_dir(tmp_path_factory):
    def empty_facts(name: str, t: pa.Table) -> pa.Table:
        return t.slice(0, 0) if name in ('orders', 'lineitem', 'events') \
            else t
    return _copy(str(tmp_path_factory.mktemp('empty_facts')), empty_facts)


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype('float64').round(6)
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype('int64')
        else:
            df[c] = df[c].astype('string')
    return df.sort_values(list(df.columns),
                          kind='mergesort').reset_index(drop=True)


def _assert_matches_oracle(name: str, sf_dir: str) -> None:
    got = q.queries()[name](sf_dir)
    assert isinstance(got, pd.DataFrame), type(got)
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f'CREATE VIEW {t} AS SELECT * FROM '
                    f"read_parquet('{os.path.join(sf_dir, t + '.parquet')}')")
    exp = _normalize(con.execute(q.oracle_sql()[name]).fetchdf())
    got = _normalize(got)
    assert list(got.columns) == list(exp.columns)
    assert list(got.dtypes) == list(exp.dtypes)      # typed, even when empty
    assert len(got) == len(exp), (got, exp)
    for c in got.columns:
        if pd.api.types.is_float_dtype(got[c]):
            assert np.allclose(got[c].to_numpy(), exp[c].to_numpy(),
                               rtol=1e-9, atol=1e-9, equal_nan=True), c
        else:
            assert (got[c].fillna('<NA>') == exp[c].fillna('<NA>')).all(), c


@pytest.mark.parametrize('name', [
    'above_avg_orders', 'cohort_retention', 'conversion_latency',
    'funnel_stages', 'local_supplier_volume', 'nation_trade_volume',
    'region_market_share', 'returned_item_customers', 'shipping_priority'])
def test_null_join_keys_match_oracle(ray_session, null_keys_dir, name):
    _assert_matches_oracle(name, null_keys_dir)


@pytest.mark.parametrize('name', [
    'above_avg_orders', 'cohort_retention', 'conversion_latency',
    'late_shipment_counts', 'local_supplier_volume', 'nation_trade_volume',
    'orders_pushdown_count', 'promo_revenue', 'region_market_share',
    'returned_item_customers', 'shipping_priority',
    'small_quantity_revenue'])
def test_empty_fact_tables_match_oracle(ray_session, empty_facts_dir, name):
    _assert_matches_oracle(name, empty_facts_dir)
