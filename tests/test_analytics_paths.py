"""Each join query's plan must give the same frame whichever way its
``hash_join``s run: broadcast (the default at this size) or Ray's shuffle
``Join`` (forced by a zero ``BROADCAST_BUILD_BYTES``; the
``both_join_paths`` fixture).  The ``fold_limit`` tests pin the bounded
fold against the distributed groupby instead."""

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


def test_funnel_join_path_equals_broadcast(ray_session, both_join_paths):
    bc, jn = map(_norm, both_join_paths(lambda: q_funnel_stages(SF)))
    assert bc.equals(jn)
    assert int(bc['n_viewed'][0]) >= int(bc['n_clicked'][0]) >= \
        int(bc['n_purchased'][0])


def test_latency_join_path_equals_broadcast(ray_session, both_join_paths):
    bc, jn = map(_norm, both_join_paths(lambda: q_conversion_latency(SF)))
    assert bc.equals(jn)
    assert (bc['latency_hours'] >= 0).all()


def test_cohort_join_path_equals_broadcast(ray_session, both_join_paths):
    bc, jn = map(_norm, both_join_paths(lambda: q_cohort_retention(SF)))
    assert bc.equals(jn)
    # offset 0 row exists for every cohort (a user is active in their own
    # first week by construction)
    zero = bc[bc['week_offset'] == 0]
    assert set(zero['cohort_week']) == set(bc['cohort_week'])


# --- TPC-H Q5/Q12/Q14/Q17 analogues: broadcast vs shuffle joins ---

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


def test_local_supplier_volume_paths_equal(ray_session, both_join_paths):
    from pii_detector_ray.queries import q_local_supplier_volume
    bc, jn = map(_normf, both_join_paths(
        lambda: q_local_supplier_volume(SF)))
    assert bc.equals(jn)
    assert (bc['revenue'] > 0).all()


def test_late_shipment_paths_equal(ray_session, both_join_paths):
    from pii_detector_ray.queries import q_late_shipment_counts
    bc, jn = map(_normf, both_join_paths(lambda: q_late_shipment_counts(SF)))
    assert bc.equals(jn)
    assert (bc['n_late'] <= bc['n_lines']).all()


def test_promo_revenue_paths_equal(ray_session, both_join_paths):
    from pii_detector_ray.queries import q_promo_revenue
    bc, jn = map(_normf, both_join_paths(lambda: q_promo_revenue(SF)))
    assert bc.equals(jn)
    assert 0.0 <= float(bc['promo_pct'][0]) <= 100.0


def test_small_quantity_paths_equal(ray_session, both_join_paths):
    from pii_detector_ray.queries import q_small_quantity_revenue
    bc, jn = map(_normf, both_join_paths(
        lambda: q_small_quantity_revenue(SF)))
    assert bc.equals(jn)


# --- round-4 wave 2: Q10/Q4/Q16 analogues + windowed count-distinct ---

def test_returned_item_customers_paths_equal(ray_session, both_join_paths):
    from pii_detector_ray.queries import q_returned_item_customers
    bc, jn = map(_normf, both_join_paths(
        lambda: q_returned_item_customers(SF)))
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


def test_above_avg_orders_paths_equal(ray_session, both_join_paths):
    from pii_detector_ray.queries import q_above_avg_orders
    bc, jn = map(_normf, both_join_paths(lambda: q_above_avg_orders(SF)))
    assert bc.equals(jn)
    assert (bc['n_above'] > 0).all()


def test_user_top_type_paths_equal(ray_session):
    from pii_detector_ray.queries import q_user_top_type
    fold = _normf(q_user_top_type(SF).to_pandas())
    grp = _normf(q_user_top_type(SF, fold_limit=0).to_pandas())
    assert fold.equals(grp)
    assert fold['user_id'].is_unique and (fold['n_events'] > 0).all()


# --- round-4 wave 7: Q7/Q8/Q19 analogues ---

def test_nation_trade_volume_paths_equal(ray_session, both_join_paths):
    from pii_detector_ray.queries import q_nation_trade_volume
    bc, jn = map(_normf, both_join_paths(lambda: q_nation_trade_volume(SF)))
    assert bc.equals(jn)
    assert (bc['revenue'] > 0).all()
    # only cross pairs of the two nations ever appear
    assert (bc['supp_nation'] != bc['cust_nation']).all()


def test_region_market_share_paths_equal(ray_session, both_join_paths):
    from pii_detector_ray.queries import q_region_market_share
    bc, jn = map(_normf, both_join_paths(lambda: q_region_market_share(SF)))
    assert bc.equals(jn)
    assert ((bc['mkt_share'] >= 0) & (bc['mkt_share'] <= 1)).all()


def test_disjunctive_revenue_paths_equal(ray_session, both_join_paths):
    from pii_detector_ray.queries import q_disjunctive_revenue
    bc, jn = map(_normf, both_join_paths(lambda: q_disjunctive_revenue(SF)))
    assert bc.equals(jn)
    assert (bc['revenue'] > 0).all()


def test_part_triangles_paths_equal(ray_session, both_join_paths):
    from pii_detector_ray.queries import q_part_triangles
    bc, jn = both_join_paths(lambda: q_part_triangles(SF))
    assert int(bc['n_triangles'][0]) == int(jn['n_triangles'][0])
    # the sf0.001 basket graph is dense enough to close many wedges
    assert int(bc['n_triangles'][0]) > 0
