"""Streaming sketch operators: frequent items (heavy hitters).

Exact top-k with a sketch fast path:

- **Fast path** — every batch runs a Misra–Gries summary (bounded state: at
  most ``capacity`` counters) and reports whether it ever EVICTED a counter.
  If no batch evicted, every per-batch summary is simply an exact count
  dict, so the merged sums are exact global counts and top-k falls out of a
  tiny sort.  This covers the common skewed/low-cardinality case with
  bounded shuffle state.
- **Exact fallback** — if any batch evicted, MG weights underestimate and a
  flat distribution can evict a true top-k item from EVERY batch (the
  guarantee only covers freq > n/(capacity+1)), so no candidate set built
  from the summaries is safe.  The operator then falls back to the honest
  two-phase exact count: per-batch ``group_by`` pre-aggregation (one row
  per distinct value per batch crosses the shuffle, never the raw column)
  → global sum → sort+limit.

Either way the result is EXACT (SQL-checkable); the sketch only changes the
amount of shuffled state.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

import numpy as np

import ray.data
from ray.data.aggregate import Max, Sum


def misra_gries(values: list, capacity: int) -> tuple[dict, bool]:
    """Classic Misra–Gries summary: at most ``capacity`` counters; returns
    (counters, evicted).  When ``evicted`` is False the counters are EXACT
    counts (no decrement ever happened); any item with frequency
    > n/(capacity+1) is guaranteed present either way."""
    counters: dict = {}
    evicted = False
    for v in values:
        if v in counters:
            counters[v] += 1
        elif len(counters) < capacity:
            counters[v] = 1
        else:
            evicted = True
            for key in list(counters):
                counters[key] -= 1
                if counters[key] == 0:
                    del counters[key]
    return counters, evicted


def _order_stat_single(ds, col: str, rank: int, lo: float, hi: float,
                       buckets: int = 128, rounds: int = 64,
                       pull_limit: int = 100_000,
                       census_limit: int = 5_000_000) -> float:
    """Exact 0-based order statistic of ``col`` by iterative range
    refinement: each round histograms the current [lo, hi] slice into
    ``buckets`` with a narrow per-batch partial (one bucket-count row per
    batch crosses the driver) and narrows to the single bucket containing
    the target rank; the final (small) candidate slice resolves exactly.
    O(rounds) scans, never a global sort.  Non-finite values are ignored
    throughout (documented operator semantics)."""
    import numpy as np
    n_below_lo = 0
    in_span = None
    for _ in range(rounds):
        if hi <= lo:
            return float(lo)
        edges = np.linspace(lo, hi, buckets + 1)
        eref = ray.put(edges)

        def hist(batch: pa.Table) -> pa.Table:
            e = ray.get(eref)
            v = batch.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
            v = v[np.isfinite(v)]
            v = v[(v >= e[0]) & (v <= e[-1])]
            idx = np.clip(np.searchsorted(e, v, side='right') - 1, 0, buckets - 1)
            return pa.table({'h': pa.array([np.bincount(idx, minlength=buckets)
                                            .tobytes()], pa.binary())})

        parts = ds.map_batches(hist, batch_format='pyarrow').take_all()
        counts = np.zeros(buckets, dtype=np.int64)
        for p in parts:
            counts += np.frombuffer(p['h'], dtype=np.int64)
        cum = n_below_lo + np.cumsum(counts)
        b = int(np.searchsorted(cum, rank + 1, side='left'))
        new_lo, new_hi = float(edges[b]), float(edges[b + 1])
        in_span = int(counts[b])
        progressed = (new_lo, new_hi) != (lo, hi)
        if b > 0:
            n_below_lo = int(cum[b - 1])
        lo, hi = new_lo, new_hi
        if in_span <= pull_limit or not progressed:
            break

    if in_span is not None and in_span > census_limit:
        # The span is un-splittable (the loop exits with `not progressed`
        # only once [lo, hi] is at float resolution — with rounds=64 the
        # span has shrunk by up to 128^64, far past any double's ulp) yet
        # holds a huge duplicate mass.  The representable floats inside
        # such a span number at most ~buckets, so an exact per-batch
        # value-count partial resolves the rank without collecting rows —
        # returning the edge `lo` here (pre-r5 behavior) was WRONG when
        # the mass sat at an interior value.
        span_ref = ray.put((lo, hi))

        def value_counts(batch: pa.Table) -> pa.Table:
            import numpy as np
            l, h = ray.get(span_ref)
            v = batch.column(col).to_numpy(zero_copy_only=False) \
                .astype(np.float64)
            v = v[np.isfinite(v)]
            v = v[(v >= l) & (v <= h)]
            u, c = np.unique(v, return_counts=True)
            return pa.table({'u': pa.array(u, pa.float64()),
                             'c': pa.array(c.astype(np.int64), pa.int64())})

        agg: dict[float, int] = {}
        for r in ds.map_batches(value_counts,
                                batch_format='pyarrow').iter_rows():
            agg[r['u']] = agg.get(r['u'], 0) + r['c']
        vals = sorted(agg)
        cum = n_below_lo
        for v in vals:
            cum += agg[v]
            if cum >= rank + 1:
                return float(v)
        return float(vals[-1]) if vals else float(lo)

    span_ref = ray.put((lo, hi))

    def pull(batch: pa.Table) -> pa.Table:
        import numpy as np
        l, h = ray.get(span_ref)
        v = batch.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
        v = v[np.isfinite(v)]
        return pa.table({col: pa.array(v[(v >= l) & (v <= h)])})

    cand = np.sort(np.concatenate(
        [b.column(col).to_numpy() for b in
         ds.map_batches(pull, batch_format='pyarrow')
         .iter_batches(batch_size=None, batch_format='pyarrow')]
        or [np.empty(0)]))
    return float(cand[rank - n_below_lo])


def distributed_quantile(ds, col: str, qs: list[float],
                         max_materialize_bytes: int = 8 << 30) -> list[float]:
    """EXACT continuous quantiles (SQL ``quantile_cont`` semantics: linear
    interpolation at h = (n-1)*q) without sorting or collecting the column.

    The single needed column is SIZE-GUARDED: the first (lazy) min/max/count
    scan yields the row count, and the narrow column is materialized into
    the object store only when ``rows * 8 <= max_materialize_bytes``
    (default 8 GiB — generous on one node, a rounding error cluster-wide).
    Above the budget the dataset stays lazy and each histogram-refinement
    round re-executes the pruned upstream read (``read_parquet(columns=
    [col])`` re-reads one column's row groups), so object-store residency
    never exceeds one streaming pass even at 10^12 rows.  Non-finite
    values are ignored."""
    import numpy as np

    ds = ds.select_columns([col])   # narrow; stays lazy until guard passes

    # Guard on the cheap row count FIRST (metadata-only for parquet reads),
    # so the under-budget path materializes once and every later scan —
    # including the min/max/count pass below — hits the object store instead
    # of re-executing the read.  The metadata count includes non-finite rows,
    # so it upper-bounds the finite count: the guard is conservative.
    try:
        if ds.count() * 8 <= max_materialize_bytes:
            ds = ds.materialize()
    except Exception:
        pass   # count unavailable → stay lazy; mmc below sizes the data

    def mmc(batch: pa.Table) -> pa.Table:
        v = batch.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
        v = v[np.isfinite(v)]
        if v.size == 0:
            return pa.table({'lo': pa.array([], pa.float64()),
                             'hi': pa.array([], pa.float64()),
                             'n': pa.array([], pa.int64())})
        return pa.table({'lo': pa.array([float(v.min())]),
                         'hi': pa.array([float(v.max())]),
                         'n': pa.array([int(v.size)], pa.int64())})

    parts = ds.map_batches(mmc, batch_format='pyarrow').take_all()
    if not parts:
        return [float('nan')] * len(qs)
    lo = min(p['lo'] for p in parts)
    hi = max(p['hi'] for p in parts)
    total = sum(p['n'] for p in parts)
    cache: dict[int, float] = {}

    def stat(rank: int) -> float:
        if rank not in cache:
            cache[rank] = _order_stat_single(ds, col, rank, lo, hi)
        return cache[rank]

    out = []
    for q in qs:
        h = (total - 1) * q
        r0 = int(np.floor(h))
        if h == r0:
            out.append(stat(r0))
        else:
            frac = h - r0
            a, b = stat(r0), stat(r0 + 1)
            out.append(a + frac * (b - a))
    return out


def heavy_hitters(ds: ray.data.Dataset, col: str, k: int = 10,
                  capacity: int = 64) -> ray.data.Dataset:
    """Exact top-k most frequent values of ``col`` (see module docstring
    for the sketch fast path / exact fallback)."""
    def summarize(batch: pa.Table) -> pa.Table:
        vals = batch.column(col).to_pylist()
        counters, evicted = misra_gries(vals, capacity)
        keys, ws = list(counters), list(counters.values())
        if evicted and not keys:
            # a final eviction can wipe every counter (e.g. round-robin
            # values at capacity); the flag must still reach the Max
            # aggregate or the fast path would treat decremented sums as
            # exact.  A zero-weight sentinel row carries it (weight 0
            # cannot distort any merged count).
            keys, ws = [vals[0]], [0]
        return pa.table({col: pa.array(keys, batch.schema.field(col).type),
                         '_w': pa.array(ws, pa.int64()),
                         '_e': pa.array([int(evicted)] * len(keys), pa.int8())})

    merged = (ds.map_batches(summarize, batch_format='pyarrow')
              .groupby(col).aggregate(Sum('_w', alias_name='_w'),
                                      Max('_e', alias_name='_e'))
              .materialize())
    any_evicted = (merged.max('_e') or 0) > 0

    if not any_evicted:
        # no batch ever evicted → merged sums ARE exact counts
        out = merged.map_batches(
            lambda t: pa.table({col: t.column(col),
                                'n': t.column('_w')}),
            batch_format='pyarrow')
        return out.sort(['n', col], descending=[True, False]).limit(k)

    # exact fallback: per-batch pre-aggregated counts → global sum
    def exact(batch: pa.Table) -> pa.Table:
        agg = pa.table({col: batch.column(col)}).group_by(col) \
            .aggregate([([], 'count_all')])
        return pa.table({col: agg.column(col),
                         '_n': pc.cast(agg.column('count_all'), pa.int64())})

    counts = (ds.map_batches(exact, batch_format='pyarrow')
              .groupby(col).aggregate(Sum('_n', alias_name='n')))
    return counts.sort(['n', col], descending=[True, False]).limit(k)


# ---------------------------------------------------------------------------
# HyperLogLog distinct-count sketch — the approximate scale path beside the
# exact two-phase distinct (queries.q_distinct_users).  At 10^12 rows the
# exact path's shuffle state is one row per distinct (key, value) per
# batch; HLL replaces it with a fixed 2^p-byte register array per batch
# (per group), merged by elementwise max — bounded state at ANY
# cardinality.  The hash (stages/bloomjoin splitmix64/FNV) is
# deterministic, so the estimate is batching- and parallelism-INVARIANT:
# the same input gives the same answer at 8 and 32 CPUs (tested), the
# sketch only trades accuracy (~1.04/sqrt(2^p), 1.6% at p=12) for state.
# ---------------------------------------------------------------------------

def _hll_registers(values: pa.Array, p: int) -> np.ndarray:
    """uint8 register array of size 2^p for one batch of values."""
    from pii_detector_ray.stages.bloomjoin import _key_hash64
    h = _key_hash64(values)
    m = 1 << p
    idx = (h & np.uint64(m - 1)).astype(np.int64)
    w = h >> np.uint64(p)
    # rank = leading-zero count of the (64-p)-bit remainder + 1; w==0 → 64-p+1
    nbits = 64 - p
    rank = np.full(len(h), nbits + 1, dtype=np.uint8)
    nz = w != 0
    # floor(log2(w)) via frexp exponent - 1 — exact for w < 2^53; for
    # p <= 10 the remainder exceeds 53 bits and float64 conversion can
    # round UP across a 2^k boundary, so correct the off-by-one wherever
    # 2^top > w (the only direction the rounding can err)
    wz = w[nz]
    top = np.frexp(wz.astype(np.float64))[1].astype(np.int64) - 1
    over = (np.uint64(1) << top.astype(np.uint64)) > wz
    top[over] -= 1
    rank[nz] = (nbits - 1 - top + 1).astype(np.uint8)
    regs = np.zeros(m, dtype=np.uint8)
    np.maximum.at(regs, idx, rank)
    return regs


def _hll_estimate(regs: np.ndarray) -> float:
    m = len(regs)
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
    zeros = int((regs == 0).sum())
    if est <= 2.5 * m and zeros > 0:
        est = m * np.log(m / zeros)          # linear-counting correction
    return float(est)


def hll_distinct(ds: ray.data.Dataset, col: str, p: int = 12) -> int:
    """Approximate global distinct count of ``col``.  One 2^p-byte register
    row per block reaches the driver (block-count-proportional, like
    stages/pca.py sufficient statistics)."""
    def block_regs(batch: pa.Table) -> pa.Table:
        regs = _hll_registers(batch.column(col), p)
        return pa.table({'regs': pa.array([regs.tobytes()], pa.binary())})

    merged = np.zeros(1 << p, dtype=np.uint8)
    for row in ds.select_columns([col]) \
                 .map_batches(block_regs, batch_format='pyarrow').iter_rows():
        np.maximum(merged, np.frombuffer(row['regs'], dtype=np.uint8),
                   out=merged)
    return int(round(_hll_estimate(merged)))


def hll_distinct_by(ds: ray.data.Dataset, key_col: str, col: str,
                    p: int = 12) -> ray.data.Dataset:
    """Approximate distinct count of ``col`` per ``key_col``: per-batch
    per-group register rows (one 2^p-byte row per group per batch), a
    max-merge per group in one final task, which also estimates.  Output:
    (key_col, approx_distinct).

    CONTRACT: ``key_col`` must be a BOUNDED alphabet (event types, status
    codes, languages — at most a few thousand groups): the pre-merge
    register table is |groups| x blocks x 2^p bytes and the final merge
    repartitions to one block.  A high-cardinality key (user ids) would
    make that single task the memory bottleneck — use the exact two-phase
    count (heavy_hitters' fallback shape) or shard by key hash instead."""
    def batch_regs(batch: pa.Table) -> pa.Table:
        keys_out, regs_out = [], []
        tbl = pa.table({key_col: batch.column(key_col),
                        col: batch.column(col)})
        # per-group slices via sort + run-length split (vectorized hash per
        # group happens inside _hll_registers)
        tbl = tbl.sort_by(key_col)
        keys = tbl.column(key_col)
        np_keys = keys.to_numpy(zero_copy_only=False)
        bounds = np.flatnonzero(np.concatenate(
            ([True], np_keys[1:] != np_keys[:-1], [True])))
        for s, e in zip(bounds[:-1], bounds[1:]):
            keys_out.append(np_keys[s])
            regs_out.append(_hll_registers(tbl.column(col).slice(s, e - s),
                                           p).tobytes())
        return pa.table({key_col: pa.array(keys_out, keys.type),
                         '_regs': pa.array(regs_out, pa.binary())})

    def block_merge(t: pa.Table) -> pa.Table:
        # pre-merge registers per group WITHIN each block: shrinks the rows
        # crossing the final coalesce from (groups × batches) to
        # (groups × blocks) — at 100 TB with a 2-column projection that is
        # ~8k blocks × |groups| × 4 KB, comfortably one-block-sized
        keys_out, regs_out = [], []
        tbl = t.sort_by(key_col)
        np_keys = tbl.column(key_col).to_numpy(zero_copy_only=False)
        bounds = np.flatnonzero(np.concatenate(
            ([True], np_keys[1:] != np_keys[:-1], [True])))
        regs = tbl.column('_regs').to_pylist()
        for s, e in zip(bounds[:-1], bounds[1:]):
            merged = np.zeros(1 << p, dtype=np.uint8)
            for b in regs[s:e]:
                np.maximum(merged, np.frombuffer(b, dtype=np.uint8),
                           out=merged)
            keys_out.append(np_keys[s])
            regs_out.append(merged.tobytes())
        return pa.table({key_col: pa.array(keys_out, tbl.column(key_col).type),
                         '_regs': pa.array(regs_out, pa.binary())})

    def finish(t: pa.Table) -> pa.Table:
        merged = block_merge(t)
        est = [round(_hll_estimate(np.frombuffer(b, dtype=np.uint8)))
               for b in merged.column('_regs').to_pylist()]
        return pa.table({key_col: merged.column(key_col),
                         'approx_distinct': pa.array(est, pa.int64())})

    # coalesce the (bounded) pre-merged registers to ONE block; one more
    # block_merge there leaves one register row per group
    return (ds.select_columns([key_col, col])
            .map_batches(batch_regs, batch_format='pyarrow')
            .map_batches(block_merge, batch_format='pyarrow', batch_size=None)
            .repartition(1)
            .map_batches(finish, batch_format='pyarrow', batch_size=None))


# ---------------------------------------------------------------------------
# Count-min sketch: fixed-size frequency summary (Cormode & Muthukrishnan
# 2005).  The sketch matrix is ASSOCIATIVE under addition, so per-block
# partials merge in any order — the estimate is parallelism-invariant, and
# bounded state (depth x width int64) crosses the wire regardless of
# cardinality.  Estimates only ever OVER-count (min over depth rows bounds
# the collision inflation by eps*n with width = ceil(e/eps)).
# ---------------------------------------------------------------------------


def _cms_indices(values: pa.Array, depth: int, width: int) -> np.ndarray:
    """(depth, n) bucket indices: one splitmix re-salt per row of the
    sketch over the shared 64-bit key hash (stages/bloomjoin.py)."""
    from pii_detector_ray.stages.bloomjoin import _key_hash64, _splitmix
    h = _key_hash64(values)
    idx = np.empty((depth, len(h)), np.int64)
    for r in range(depth):
        idx[r] = (_splitmix(h, r + 1) % np.uint64(width)).astype(np.int64)
    return idx


def cms_build(ds: ray.data.Dataset, col: str, *, width: int = 2048,
              depth: int = 4) -> np.ndarray:
    """Build a (depth x width) count-min sketch of ``ds[col]`` — one
    bounded partial row per block (the flattened matrix), summed on the
    driver; blocks x depth x width int64 is the TOTAL state, independent
    of the column's cardinality or row count."""
    def partial(t: pa.Table) -> pa.Table:
        sk = np.zeros((depth, width), np.int64)
        if len(t):
            idx = _cms_indices(t.column(col), depth, width)
            for r in range(depth):
                sk[r] = np.bincount(idx[r], minlength=width)
        return pa.table({'_sk': pa.array([sk.ravel()],
                                         pa.list_(pa.int64()))})

    parts = ds.map_batches(partial, batch_format='pyarrow').to_pandas()
    out = np.zeros(depth * width, np.int64)
    for v in parts['_sk']:
        out += np.asarray(v, np.int64)
    return out.reshape(depth, width)


def cms_estimate(sketch: np.ndarray, keys: pa.Array) -> np.ndarray:
    """Point-query the sketch: min over depth rows (classic CM bound:
    true <= est <= true + eps*N with prob 1 - (1/e)^depth)."""
    depth, width = sketch.shape
    idx = _cms_indices(keys, depth, width)
    est = sketch[0, idx[0]]
    for r in range(1, depth):
        est = np.minimum(est, sketch[r, idx[r]])
    return est
