"""Bloom-filter anti/semi-join — the 100 TB shape for "drop already-scanned
keys" (reference F5 resume semantics, ``base_scan_service.py:379,442-447``).

The exact broadcast anti-join (``queries.q_source_anti_join``) carries the
full key set in the task closure — right when the set is tiny.  When the
scanned-key side is millions of urls, broadcasting the raw keys reships
hundreds of MB to every task.  The bloom path keeps the broadcast at
``m_bits/8`` bytes (12 MB for 10M keys at 10 bits/key) and stays EXACT:

1. build: one partial bloom bitmap per input *block* of the key dataset
   (``np.bitwise_or.at`` over vectorized double-hash indices), OR-merged on
   the driver — driver traffic is block-count-, never row-count-,
   proportional (same sufficient-statistics shape as ``stages/pca.py``);
2. prefilter: ``ray.put`` the merged bitmap once; every task tests its rows
   vectorized.  Bloom-NEGATIVE rows are definitely absent → kept (for an
   anti-join) with no further work.  That is the common case: the filter
   touches every row but only false-positive-rate of the non-members go on;
3. verify: only bloom-POSITIVE rows (true members + ~fp_rate of the rest)
   enter the exact hash-partitioned semi-join against the key dataset, so
   the one shuffle carries a small fraction of the big side — and the final
   result is exactly the anti-join, independent of the false-positive rate.

Hashing: integer keys take a vectorized splitmix64 avalanche; string keys
take per-row blake2b-8 (O(sum of key lengths) C-speed — a padded byte
matrix would cost n x max(len) and one mega-key would blow up the batch);
k bit indices via double hashing ``h1 + i*h2 (mod m)``.  Deterministic
across processes — no PYTHONHASHSEED dependence.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

def _splitmix(h: np.ndarray, salt: int) -> np.ndarray:
    h = (h + np.uint64(salt)).astype(np.uint64)
    h ^= h >> np.uint64(30)
    h *= np.uint64(0xBF58476D1CE4E5B9)
    h ^= h >> np.uint64(27)
    h *= np.uint64(0x94D049BB133111EB)
    h ^= h >> np.uint64(31)
    return h


def _key_hash64(keys: pa.Array) -> np.ndarray:
    """Vectorized uint64 hash of a string or integer key column."""
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    if pa.types.is_integer(keys.type):
        # fill nulls at the ARROW level and stay integer end-to-end: a
        # null-bearing column's to_numpy() otherwise detours through
        # float64, where keys >= 2^53 round and hash DIFFERENTLY than the
        # same key in a null-free array (breaking the bloom's
        # definitely-absent invariant), and NaN->uint64 is an undefined
        # cast.  Null keys hash as the sentinel 0 — callers apply SQL null
        # semantics (null matches nothing) before/after the hash.
        base = pc.cast(pc.fill_null(keys, 0), pa.int64()) \
            .to_numpy(zero_copy_only=False).astype(np.uint64)
    else:
        # blake2b-8 per row: O(sum of key lengths) C-speed hashing — a
        # per-position padded-matrix approach would cost n×max(len) and
        # one pathological mega-key would blow up the whole batch
        import hashlib
        s = pc.cast(keys, pa.string())
        np_s = s.to_numpy(zero_copy_only=False)
        base = np.empty(len(np_s), dtype=np.uint64)
        for i, x in enumerate(np_s):
            d = hashlib.blake2b(x.encode('utf-8') if x is not None else b'',
                                digest_size=8).digest()
            base[i] = int.from_bytes(d, 'little')
    return _splitmix(base, 0x9E3779B97F4A7C15)


def _bloom_positions(h64: np.ndarray, m_bits: int, k: int) -> np.ndarray:
    """(n, k) bit positions via double hashing."""
    h1 = _splitmix(h64, 0xD6E8FEB86659FD93)
    h2 = _splitmix(h64, 0xA5A5A5A5A5A5A5A5) | np.uint64(1)   # odd → full cycle
    i = np.arange(k, dtype=np.uint64)
    return ((h1[:, None] + i[None, :] * h2[:, None]) % np.uint64(m_bits))


def build_bloom(keys_ds: ray.data.Dataset, key_col: str,
                m_bits: int = 1 << 20, k: int = 4) -> np.ndarray:
    """OR-merged bloom bitmap (uint8 array of m_bits/8 bytes) of a key
    dataset.  One bitmap row per block reaches the driver."""
    assert m_bits % 8 == 0

    def block_bloom(batch: pa.Table) -> pa.Table:
        pos = _bloom_positions(_key_hash64(batch.column(key_col)), m_bits, k)
        bits = np.zeros(m_bits // 8, dtype=np.uint8)
        flat = pos.reshape(-1)
        np.bitwise_or.at(bits, (flat >> np.uint64(3)).astype(np.int64),
                         (np.uint8(1) << (flat & np.uint64(7)).astype(np.uint8)))
        return pa.table({'bloom': pa.array([bits.tobytes()], pa.binary())})

    merged = np.zeros(m_bits // 8, dtype=np.uint8)
    for row in keys_ds.select_columns([key_col]) \
                      .map_batches(block_bloom, batch_format='pyarrow') \
                      .iter_rows():
        merged |= np.frombuffer(row['bloom'], dtype=np.uint8)
    return merged


def bloom_contains(bits: np.ndarray, keys: pa.Array, k: int) -> np.ndarray:
    """Vectorized membership test (boolean array; True = POSSIBLY present)."""
    m_bits = len(bits) * 8
    pos = _bloom_positions(_key_hash64(keys), m_bits, k)
    byte = bits[(pos >> np.uint64(3)).astype(np.int64)]
    bit = (np.uint8(1) << (pos & np.uint64(7)).astype(np.uint8))
    return ((byte & bit) != 0).all(axis=1)


def bloom_anti_join(big: ray.data.Dataset, keys_ds: ray.data.Dataset,
                    on: str, *, m_bits: int = 1 << 20, k: int = 4,
                    num_partitions: int | None = None,
                    exact_broadcast_limit: int = 2_000_000
                    ) -> ray.data.Dataset:
    """EXACT ``big ANTI JOIN keys_ds ON big[on] = keys_ds[on]`` with a bloom
    prefilter so the verification shuffle carries only bloom-positive rows.

    Key-count size guard: while building the bloom, the per-block partials
    also count keys; at or under ``exact_broadcast_limit`` the exact key
    set itself is broadcast and candidates verify map-side — no shuffle at
    all (a 2M-key set is ~100 MB, shipped once per node).  Above the limit
    the exact verification runs as the narrow left-outer join.

    Returns ``big``'s schema unchanged.  ``keys_ds`` must have unique keys
    (dedup first if not — only membership matters)."""
    from pii_detector_ray.stages.dedup import drop_empty_blocks, hash_join

    # one execution of the key side: the narrow projection is reused by the
    # count, the bloom build, and the marker table (previously 3 passes)
    keys_narrow = keys_ds.select_columns([on]).materialize()
    n_keys = keys_narrow.count()
    if n_keys <= exact_broadcast_limit:
        # SQL anti-join NULL semantics on BOTH internal paths (review r5:
        # they diverged): a null big-side key equals nothing, so the row is
        # always KEPT — which is also what the left-outer-join path does
        # naturally (null matches no marker row).  Null keys in keys_ds
        # are likewise inert.
        key_ref = ray.put(frozenset(
            v for r in keys_narrow.iter_rows()
            if (v := r[on]) is not None))

        def anti(batch: pa.Table) -> pa.Table:
            ks = ray.get(key_ref)
            mask = pa.array([v is None or v not in ks
                             for v in batch.column(on).to_pylist()])
            return batch.filter(mask)

        return big.map_batches(anti, batch_format='pyarrow')

    bits_ref = ray.put(build_bloom(keys_narrow, on, m_bits=m_bits, k=k))

    def split(flag: bool):
        def f(batch: pa.Table) -> pa.Table:
            mask = bloom_contains(ray.get(bits_ref), batch.column(on), k)
            return batch.filter(pa.array(mask if flag else ~mask))
        return f

    negatives = big.map_batches(split(False), batch_format='pyarrow')
    candidates = big.map_batches(split(True), batch_format='pyarrow')

    # exact verification of the candidates: LEFT join on the key against the
    # (narrow, marker-tagged) key set, keep unmatched = true non-members
    marker = keys_narrow.map_batches(
        lambda b: b.append_column('_in_set', pa.array([True] * len(b))),
        batch_format='pyarrow')
    candidates = drop_empty_blocks(candidates)
    if candidates.count() == 0:
        return negatives
    joined = hash_join(candidates, marker, on, 'left_outer',
                       num_partitions=num_partitions)
    cols = [f.name for f in (big.schema().base_schema)]

    def keep_unmatched(batch: pa.Table) -> pa.Table:
        out = batch.filter(pc.is_null(batch.column('_in_set')))
        return out.select(cols)

    survivors = joined.map_batches(keep_unmatched, batch_format='pyarrow')
    return negatives.union(drop_empty_blocks(survivors))
