"""Join-path equivalence checks (broadcast vs Ray's shuffle ``Join``) and
the skyline kernel and oracle checks."""

import pandas as pd

from pii_detector_ray.queries import q_shipping_priority

SF = '/root/testdata/sf0.001'


def test_shipping_priority_paths_equal(ray_session, both_join_paths):
    broadcast, joined = both_join_paths(lambda: q_shipping_priority(SF))
    pd.testing.assert_frame_equal(broadcast, joined)


def test_skyline_kernel_matches_bruteforce():
    """The O(n log n) 2D skyline kernel equals the O(n^2) definition on
    random data with heavy ties (both coordinates drawn from tiny
    domains, so equal-price and equal-size collisions are common)."""
    import numpy as np

    from pii_detector_ray.queries import _skyline2d_keep

    rng = np.random.default_rng(7)
    for n in (0, 1, 2, 50, 400):
        price = rng.integers(0, 8, n).astype(np.float64)
        size = rng.integers(0, 8, n).astype(np.int64)
        got = _skyline2d_keep(price, size)
        dominated = np.zeros(n, bool)
        for i in range(n):
            dom = ((price <= price[i]) & (size >= size[i])
                   & ((price < price[i]) | (size > size[i])))
            dominated[i] = dom.any()
        assert (got == ~dominated).all(), n


def test_skyline_window_oracle_matches_not_exists():
    """The shipped window-function oracle is equivalent to the literal
    NOT EXISTS domination definition (independent formulation check)."""
    import duckdb

    from pii_detector_ray.queries import _PART_SKYLINE_SQL

    con = duckdb.connect()
    con.execute("CREATE VIEW part AS SELECT * FROM "
                f"read_parquet('{SF}/part.parquet')")
    win = con.execute(_PART_SKYLINE_SQL).fetchdf() \
        .sort_values('p_partkey').reset_index(drop=True)
    ne = con.execute(
        'SELECT p_partkey, p_retailprice, CAST(p_size AS BIGINT) AS p_size '
        'FROM part p WHERE NOT EXISTS (SELECT 1 FROM part q '
        'WHERE q.p_retailprice <= p.p_retailprice '
        'AND q.p_size >= p.p_size '
        'AND (q.p_retailprice < p.p_retailprice OR q.p_size > p.p_size)) '
        'ORDER BY p_partkey').fetchdf().reset_index(drop=True)
    pd.testing.assert_frame_equal(win, ne)


def test_assortativity_paths_equal(ray_session, both_join_paths):
    from pii_detector_ray.queries import q_degree_assortativity
    broadcast, joined = both_join_paths(lambda: q_degree_assortativity(SF))
    pd.testing.assert_frame_equal(broadcast, joined)
