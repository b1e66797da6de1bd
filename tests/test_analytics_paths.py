"""Funnel / cohort-retention size-guard: the broadcast fast path and the
co-partitioned join path must be frame-equal (the shipping_priority
both-paths contract)."""

import pandas as pd

from pii_detector_ray.queries import (
    q_cohort_retention,
    q_conversion_latency,
    q_funnel_stages,
)

SF = '/root/testdata/sf0.001'


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        df[c] = df[c].astype('int64')
    return df.sort_values(list(df.columns), kind='mergesort').reset_index(drop=True)


def test_funnel_join_path_equals_broadcast(ray_session):
    bc = _norm(q_funnel_stages(SF))
    jn = _norm(q_funnel_stages(SF, broadcast_user_limit=0))
    assert bc.equals(jn)
    assert int(bc['n_viewed'][0]) >= int(bc['n_clicked'][0]) >= \
        int(bc['n_purchased'][0])


def test_latency_join_path_equals_broadcast(ray_session):
    bc = _norm(q_conversion_latency(SF).to_pandas())
    jn = _norm(q_conversion_latency(SF, broadcast_user_limit=0).to_pandas())
    assert bc.equals(jn)
    assert (bc['latency_hours'] >= 0).all()


def test_cohort_join_path_equals_broadcast(ray_session):
    bc = _norm(q_cohort_retention(SF).to_pandas())
    jn = _norm(q_cohort_retention(SF, broadcast_user_limit=0).to_pandas())
    assert bc.equals(jn)
    # offset 0 row exists for every cohort (a user is active in their own
    # first week by construction)
    zero = bc[bc['week_offset'] == 0]
    assert set(zero['cohort_week']) == set(bc['cohort_week'])


# --- TPC-H Q5/Q12/Q14/Q17 analogues: broadcast vs co-partitioned join ---

def _normf(df: pd.DataFrame) -> pd.DataFrame:
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


def test_local_supplier_volume_paths_equal(ray_session):
    from pii_detector_ray.queries import q_local_supplier_volume
    bc = _normf(q_local_supplier_volume(SF).to_pandas())
    jn = _normf(q_local_supplier_volume(
        SF, broadcast_order_limit=0).to_pandas())
    assert bc.equals(jn)
    assert (bc['revenue'] > 0).all()


def test_late_shipment_paths_equal(ray_session):
    from pii_detector_ray.queries import q_late_shipment_counts
    bc = _normf(q_late_shipment_counts(SF).to_pandas())
    jn = _normf(q_late_shipment_counts(
        SF, broadcast_order_limit=0).to_pandas())
    assert bc.equals(jn)
    assert (bc['n_late'] <= bc['n_lines']).all()


def test_promo_revenue_paths_equal(ray_session):
    from pii_detector_ray.queries import q_promo_revenue
    bc = _normf(q_promo_revenue(SF))
    jn = _normf(q_promo_revenue(SF, broadcast_part_limit=0))
    assert bc.equals(jn)
    assert 0.0 <= float(bc['promo_pct'][0]) <= 100.0


def test_small_quantity_paths_equal(ray_session):
    from pii_detector_ray.queries import q_small_quantity_revenue
    bc = _normf(q_small_quantity_revenue(SF))
    jn = _normf(q_small_quantity_revenue(SF, broadcast_part_limit=0))
    assert bc.equals(jn)


# --- round-4 wave 2: Q10/Q4/Q16 analogues + windowed count-distinct ---

def test_returned_item_customers_paths_equal(ray_session):
    from pii_detector_ray.queries import q_returned_item_customers
    bc = _normf(q_returned_item_customers(SF))
    jn = _normf(q_returned_item_customers(SF, broadcast_order_limit=0))
    assert bc.equals(jn)
    assert len(bc) <= 20 and (bc['revenue'] > 0).all()


def test_priority_return_orders_paths_equal(ray_session):
    from pii_detector_ray.queries import q_priority_return_orders
    bc = _normf(q_priority_return_orders(SF).to_pandas())
    jn = _normf(q_priority_return_orders(SF, fold_limit=0).to_pandas())
    assert bc.equals(jn)
    assert (bc['order_count'] > 0).all() and len(bc) <= 5


def test_brand_supplier_counts_paths_equal(ray_session):
    from pii_detector_ray.queries import q_brand_supplier_counts
    bc = _normf(q_brand_supplier_counts(SF).to_pandas())
    jn = _normf(q_brand_supplier_counts(SF, fold_limit=0).to_pandas())
    assert bc.equals(jn)
    assert (bc['supplier_cnt'] > 0).all()


def test_weekly_active_users_paths_equal(ray_session):
    from pii_detector_ray.queries import q_weekly_active_users
    bc = _normf(q_weekly_active_users(SF).to_pandas())
    jn = _normf(q_weekly_active_users(SF, fold_limit=0).to_pandas())
    assert bc.equals(jn)
    # a 7-day window can never see fewer users than its own day
    from pii_detector_ray.queries import q_daily_active_users
    import numpy as np
    daily = q_daily_active_users(SF).to_pandas()
    daily['day'] = np.asarray(daily['day'], 'int64').astype(
        'datetime64[D]').astype(str)
    merged = bc.merge(daily, on='day')
    assert len(merged) == len(bc)
    assert (merged['users'].astype(int) >=
            merged['n_users'].astype(int)).all()


def test_above_avg_orders_paths_equal(ray_session):
    from pii_detector_ray.queries import q_above_avg_orders
    bc = _normf(q_above_avg_orders(SF).to_pandas())
    jn = _normf(q_above_avg_orders(SF, broadcast_cust_limit=0).to_pandas())
    assert bc.equals(jn)
    assert (bc['n_above'] > 0).all()


def test_user_top_type_paths_equal(ray_session):
    from pii_detector_ray.queries import q_user_top_type
    fold = _normf(q_user_top_type(SF).to_pandas())
    grp = _normf(q_user_top_type(SF, fold_limit=0).to_pandas())
    assert fold.equals(grp)
    assert fold['user_id'].is_unique and (fold['n_events'] > 0).all()


# --- round-4 wave 7: Q7/Q8/Q19 analogues ---

def test_nation_trade_volume_paths_equal(ray_session):
    from pii_detector_ray.queries import q_nation_trade_volume
    bc = _normf(q_nation_trade_volume(SF).to_pandas())
    jn = _normf(q_nation_trade_volume(
        SF, broadcast_order_limit=0).to_pandas())
    assert bc.equals(jn)
    assert (bc['revenue'] > 0).all()
    # only cross pairs of the two nations ever appear
    assert (bc['supp_nation'] != bc['cust_nation']).all()


def test_region_market_share_paths_equal(ray_session, monkeypatch):
    from pii_detector_ray.queries import q_region_market_share
    from pii_detector_ray.stages import dedup
    bc = _normf(q_region_market_share(SF).to_pandas())
    # the join path's joins are Ray's Join: no build budget for a broadcast
    # (max_block_size(1) would too, but its 1-row blocks cost 100 s here)
    monkeypatch.setattr(dedup, 'BROADCAST_BUILD_BYTES', 0)
    jn = _normf(q_region_market_share(SF, broadcast_limit=0).to_pandas())
    assert bc.equals(jn)
    assert ((bc['mkt_share'] >= 0) & (bc['mkt_share'] <= 1)).all()


def test_disjunctive_revenue_paths_equal(ray_session):
    from pii_detector_ray.queries import q_disjunctive_revenue
    bc = _normf(q_disjunctive_revenue(SF))
    jn = _normf(q_disjunctive_revenue(SF, broadcast_part_limit=0))
    assert bc.equals(jn)
    assert (bc['revenue'] > 0).all()


def test_part_triangles_paths_equal(ray_session):
    from pii_detector_ray.queries import q_part_triangles
    bc = q_part_triangles(SF)
    jn = q_part_triangles(SF, broadcast_edge_limit=0)
    assert int(bc['n_triangles'][0]) == int(jn['n_triangles'][0])
    # the sf0.001 basket graph is dense enough to close many wedges
    assert int(bc['n_triangles'][0]) > 0
