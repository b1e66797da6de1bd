"""orders_cume_dist stress: heavy ties in 30 row groups must match
DuckDB's cume_dist exactly.  Each tie run lives in one block (the
``stages.ranks`` tie-run invariant), so the 9 (priority, price) runs sit
in at most 9 blocks."""

import os

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from pii_detector_ray.queries import q_orders_cume_dist


def test_cume_dist_cross_block_ties(ray_session, tmp_path):
    rng = np.random.default_rng(7)
    n = 60_000
    # 3 distinct prices x 3 priorities: 9 tie runs, one block each
    df = pd.DataFrame({
        'o_orderkey': np.arange(n, dtype=np.int64),
        'o_orderpriority': np.array(['1-URGENT', '2-HIGH', '5-LOW'])[
            rng.integers(0, 3, n)],
        'o_totalprice': np.array([10.0, 10.0, 42.5, 99.99])[
            rng.integers(0, 4, n)],
    })
    d = tmp_path / 'sf'
    os.makedirs(d, exist_ok=True)
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(d / 'orders.parquet'), row_group_size=2048)
    got = q_orders_cume_dist(str(d)).to_pandas() \
        .sort_values('o_orderkey').reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW orders AS SELECT * FROM "
                f"read_parquet('{d}/orders.parquet')")
    exp = con.execute(
        'SELECT o_orderkey, round(cume_dist() OVER ('
        'PARTITION BY o_orderpriority ORDER BY o_totalprice), 6) AS cd '
        'FROM orders ORDER BY o_orderkey').fetchdf()
    assert len(got) == n
    assert np.array_equal(got['o_orderkey'].to_numpy(),
                          exp['o_orderkey'].to_numpy())
    assert np.allclose(got['cd'].to_numpy(), exp['cd'].to_numpy(),
                       rtol=0, atol=0)
