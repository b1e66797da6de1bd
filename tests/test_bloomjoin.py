"""Bloom anti-join (stages/bloomjoin.py): no false negatives in the filter,
exactness of the full anti-join regardless of false-positive rate (tiny
bitmaps force the verify-join path), int and string keys."""

import numpy as np
import pyarrow as pa
import pytest

import ray
import ray.data

from pii_detector_ray.stages.bloomjoin import (
    bloom_anti_join,
    bloom_contains,
    build_bloom,
    _key_hash64,
)


def test_key_hash_deterministic_and_spread():
    a = pa.array(['alpha', 'beta', 'gamma', 'alpha'])
    h = _key_hash64(a)
    assert h[0] == h[3] and len({h[0], h[1], h[2]}) == 3
    # int keys hash too, and differently from their raw value
    hi = _key_hash64(pa.array([1, 2, 3], pa.int64()))
    assert len(set(hi.tolist())) == 3 and hi[0] != 1


@pytest.mark.parametrize('keys', [
    list(range(0, 300, 3)),                               # int64
    [f'https://h{i}.example.com/p{i}' for i in range(100)],  # strings
])
def test_no_false_negatives(ray_session, keys):
    ds = ray.data.from_items([{'k': k} for k in keys])
    bits = build_bloom(ds, 'k', m_bits=1 << 12, k=4)
    assert bloom_contains(bits, pa.array(keys), 4).all()


def _exact_anti(rows, key_set):
    return sorted((r['k'], r['v']) for r in rows if r['k'] not in key_set)


@pytest.mark.parametrize('m_bits', [64, 1 << 12])   # 64 bits → heavy fp rate
def test_bloom_anti_join_exact(ray_session, max_block_size, m_bits):
    rng = np.random.default_rng(7)
    rows = [{'k': int(x), 'v': i} for i, x in
            enumerate(rng.integers(0, 500, size=400))]
    key_list = [int(x) for x in rng.integers(0, 500, size=120)]
    big = ray.data.from_items(rows)
    keys = ray.data.from_items([{'k': k} for k in sorted(set(key_list))])
    with max_block_size(1):          # the verify join is Ray's Join
        out = bloom_anti_join(big, keys, on='k', m_bits=m_bits, k=4,
                              exact_broadcast_limit=0)
        got = sorted((r['k'], r['v']) for r in out.take_all())
    assert got == _exact_anti(rows, set(key_list))


def test_bloom_anti_join_string_keys(ray_session, max_block_size):
    rows = [{'k': f'url{i % 50}', 'v': i} for i in range(200)]
    key_list = [f'url{i}' for i in range(0, 50, 2)]
    big = ray.data.from_items(rows)
    keys = ray.data.from_items([{'k': k} for k in key_list])
    with max_block_size(1):          # the verify join is Ray's Join
        out = bloom_anti_join(big, keys, on='k', m_bits=256, k=3,
                              exact_broadcast_limit=0)
        got = sorted((r['k'], r['v']) for r in out.take_all())
    assert got == _exact_anti(rows, set(key_list))


def test_bloom_anti_join_empty_key_side(ray_session):
    rows = [{'k': i, 'v': i} for i in range(20)]
    big = ray.data.from_items(rows)
    keys = ray.data.from_items([{'k': 1}]).filter(lambda r: False)
    out = bloom_anti_join(big, keys, on='k', m_bits=256, k=3)
    assert sorted(r['k'] for r in out.take_all()) == list(range(20))


def test_bloom_anti_join_all_dropped(ray_session):
    rows = [{'k': i, 'v': i} for i in range(20)]
    big = ray.data.from_items(rows)
    keys = ray.data.from_items([{'k': i} for i in range(20)])
    out = bloom_anti_join(big, keys, on='k', m_bits=256, k=3)
    assert out.count() == 0


def test_broadcast_guard_path_equals_join_path(ray_session, max_block_size):
    rows = [{'k': i % 60, 'v': i} for i in range(300)]
    key_list = list(range(0, 60, 4))
    big = ray.data.from_items(rows)
    keys = ray.data.from_items([{'k': k} for k in key_list])
    via_guard = bloom_anti_join(big, keys, on='k', m_bits=256, k=3)
    with max_block_size(1):          # the verify join is Ray's Join
        via_join = bloom_anti_join(big, keys, on='k', m_bits=256, k=3,
                                   exact_broadcast_limit=0)
        b = sorted((r['k'], r['v']) for r in via_join.take_all())
    a = sorted((r['k'], r['v']) for r in via_guard.take_all())
    assert a == b == _exact_anti(rows, set(key_list))


def test_bloom_hash_exact_past_2_53_with_nulls(ray_session):
    """A null anywhere in the big side's key column must not detour the
    int64 hash through float64: keys >= 2^53 would hash differently than
    at build time and a TRUE member could test definitely-absent
    (review r5)."""
    import pyarrow as pa

    big_k = (1 << 53) + 1
    keys = ray.data.from_arrow(pa.table({'k': pa.array([big_k], pa.int64())}))
    big = ray.data.from_arrow(pa.table({
        'k': pa.array([big_k, (1 << 53) + 3, None], pa.int64()),
        'v': pa.array([1, 2, 3], pa.int64())}))
    for limit in (0, 100):        # join path and exact-broadcast path
        out = bloom_anti_join(big, keys, 'k', exact_broadcast_limit=limit,
                              num_partitions=2).to_pandas()
        got = sorted(out['v'].tolist())
        # member (v=1) dropped; non-member (v=2) kept; null key kept (SQL)
        assert got == [2, 3], (limit, got)


def test_bloom_anti_join_null_semantics_both_paths(ray_session):
    """Null big-side keys are KEPT on both internal paths even when
    keys_ds itself contains a null (review r5: the broadcast path dropped
    them while the join path kept them)."""
    import pyarrow as pa

    keys = ray.data.from_arrow(pa.table(
        {'k': pa.array([7, None], pa.int64())}))
    big = ray.data.from_arrow(pa.table({
        'k': pa.array([7, 8, None], pa.int64()),
        'v': pa.array([1, 2, 3], pa.int64())}))
    for limit in (0, 100):
        out = bloom_anti_join(big, keys, 'k', exact_broadcast_limit=limit,
                              num_partitions=2).to_pandas()
        assert sorted(out['v'].tolist()) == [2, 3], limit
