"""ExactSubstr-style duplicated-span detection (Lee et al., "Deduplicating
Training Data Makes Language Models Better", 2022 — the EXACT-substring
family member beside the hash families in ``stages/dedup.py`` and the
sentence-window spans in ``stages/spandedup.py``).

Semantics: every maximal character span covered by at least one length-``L``
substring that occurs ≥ 2 times anywhere in the corpus (other doc or another
position of the same doc).  Output one row per merged span:
``(doc_id, span_start, span_end)``, 0-based, end-exclusive — the spans a
training pipeline would cut or down-weight.

Distributed shape (documents never shuffle; three streaming passes over the
narrow (doc_id, text) projection):

1. **hash census** — per-batch partial counts of stride-1 L-gram rolling
   hashes (vectorized, the ``_shingle_hashes`` recurrence without its
   lowercasing); one narrow ``groupby(hash).sum``; keep hashes with ≥ 2
   occurrences.
2. **verify census** — duplicated-hash set ships back (``ray.put`` under
   ``broadcast_limit`` int64s, else a co-partitioned join against exploded
   (hash, doc, pos) rows — the guarded fallback); candidate positions emit
   per-batch (substring, count) partials; a second narrow groupby keeps the
   substrings truly duplicated (kills rolling-hash collisions exactly).
3. **span merge** — verified substrings broadcast (bounded by true
   duplication volume); per doc, candidate positions are island-merged in
   numpy (gap > L starts a new island; touching windows fuse).

At 10^12 documents the census tables are the scale risk: both are
pre-aggregated per batch before their single narrow shuffle, and the
reference implementation's suffix-array would replace pass 1+2 wholesale —
this formulation trades its O(total chars) memory for two extra streaming
passes, the right trade for an object-store engine.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.aggregate import Sum

_BASE = np.uint64(1000003)


def _gram_hashes(text: str, L: int) -> np.ndarray:
    """Rolling polynomial hashes of all stride-1 L-char substrings
    (uint64 wraparound; case-SENSITIVE, unlike dedup._shingle_hashes)."""
    cp = np.frombuffer(text.encode('utf-32-le'), dtype=np.uint32) \
        .astype(np.uint64)
    n = cp.shape[0]
    if n < L:
        return np.empty(0, dtype=np.uint64)
    h = np.zeros(n - L + 1, dtype=np.uint64)
    for j in range(L):
        h = h * _BASE + cp[j:n - L + 1 + j]
    return h


# codepoint 0 never appears in real text; NUL-joined blobs use it as the
# doc separator and windows touching it are masked out, so a batch costs
# ONE vectorized rolling-hash pass instead of one per document (the
# _batch_trigrams trick, measured ~8x on the sweep corpus)
def _batch_gram_hashes(texts: list[str], L: int
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(hashes, doc_idx, pos_in_doc) for every valid L-gram of every doc."""
    blob = '\x00'.join(texts)
    cp = np.frombuffer(blob.encode('utf-32-le'), dtype=np.uint32) \
        .astype(np.uint64)
    n = cp.shape[0]
    if n < L:
        return (np.empty(0, np.uint64), np.empty(0, np.int64),
                np.empty(0, np.int64))
    h = np.zeros(n - L + 1, dtype=np.uint64)
    for j in range(L):
        h = h * _BASE + cp[j:n - L + 1 + j]
    zero = cp == 0
    czero = np.concatenate(([0], np.cumsum(zero, dtype=np.int64)))
    valid = (czero[L:] - czero[:-L]) == 0          # window has no separator
    lens = np.fromiter((len(t) for t in texts), np.int64, len(texts))
    starts = np.zeros(len(texts), dtype=np.int64)
    if len(texts) > 1:
        np.cumsum(lens[:-1] + 1, out=starts[1:])
    pos = np.flatnonzero(valid)
    doc = np.searchsorted(starts, pos, side='right') - 1
    return h[pos], doc, pos - starts[doc]


def duplicated_spans(docs: ray.data.Dataset, *, L: int = 24,
                     id_col: str = 'doc_id', text_col: str = 'text',
                     broadcast_limit: int = 2_000_000) -> ray.data.Dataset:
    """(doc_id, span_start, span_end) for every maximal duplicated span
    (see module docstring).  ``docs`` needs (id_col, text_col)."""
    from pii_detector_ray.stages.dedup import drop_empty_blocks, hash_join

    def hash_partial(t: pa.Table) -> pa.Table:
        texts = [x or '' for x in t.column(text_col).to_pylist()]
        h, _, _ = _batch_gram_hashes(texts, L)
        if h.size == 0:
            return pa.table({'_h': pa.array([], pa.int64()),
                             '_n': pa.array([], pa.int64())})
        uh, uc = np.unique(h, return_counts=True)
        return pa.table({'_h': pa.array(uh.astype(np.int64)),
                         '_n': pa.array(uc.astype(np.int64))})

    # census fold: under ``fold_limit`` partial rows (int64 pairs — 800 MB
    # at the 50M default), one coalesced numpy unique/bincount fold beats
    # Ray's sort-aggregate by ~20s on this host (measured: 28s for a 1.4M-
    # row groupby at 8 CPUs); above it the wide groupby path runs
    fold_limit = 50_000_000
    partials = drop_empty_blocks(
        docs.map_batches(hash_partial, batch_format='pyarrow'))
    if partials.count() <= fold_limit:
        def fold_dup(t: pa.Table) -> pa.Table:
            h = t.column('_h').to_numpy(zero_copy_only=False)
            n = t.column('_n').to_numpy(zero_copy_only=False)
            uh, inv = np.unique(h, return_inverse=True)
            sums = np.bincount(inv, weights=n.astype(np.float64))
            return pa.table({'_h': pa.array(uh[sums >= 2])})

        dup_hashes = drop_empty_blocks(
            partials.repartition(1)
            .map_batches(fold_dup, batch_format='pyarrow', batch_size=None))
    else:
        dup_hashes = drop_empty_blocks(
            partials.groupby('_h').aggregate(Sum('_n', alias_name='_n'))
            .filter(expr='_n >= 2').select_columns(['_h']))
    n_dup = dup_hashes.count()
    if n_dup == 0:
        return ray.data.from_arrow(pa.table({
            id_col: pa.array([], pa.int64()),
            'span_start': pa.array([], pa.int64()),
            'span_end': pa.array([], pa.int64())}))

    if n_dup <= broadcast_limit:
        dup_sorted = np.sort(np.concatenate([
            b.column('_h').to_numpy(zero_copy_only=False)
            for b in dup_hashes.iter_batches(batch_size=None,
                                             batch_format='pyarrow')]))
        dup_ref = ray.put(dup_sorted)

        def _member(h: np.ndarray, sorted_set: np.ndarray) -> np.ndarray:
            idx = np.searchsorted(sorted_set, h)
            idx = np.minimum(idx, len(sorted_set) - 1)
            return sorted_set[idx] == h

        def substr_partial(t: pa.Table) -> pa.Table:
            from collections import Counter
            dh = ray.get(dup_ref)
            texts = [x or '' for x in t.column(text_col).to_pylist()]
            h, doc, pos = _batch_gram_hashes(texts, L)
            if h.size == 0:
                return pa.table({'_s': pa.array([], pa.string()),
                                 '_n': pa.array([], pa.int64())})
            m = np.flatnonzero(_member(h.astype(np.int64), dh))
            c = Counter(texts[d][p:p + L]
                        for d, p in zip(doc[m].tolist(), pos[m].tolist()))
            return pa.table({'_s': pa.array(list(c.keys()), pa.string()),
                             '_n': pa.array(list(c.values()), pa.int64())})

        cand_partials = docs.map_batches(substr_partial,
                                         batch_format='pyarrow')
    else:
        # join fallback: explode candidate rows and co-partition on hash
        def explode(t: pa.Table) -> pa.Table:
            texts = [x or '' for x in t.column(text_col).to_pylist()]
            h, doc, pos = _batch_gram_hashes(texts, L)
            ss = [texts[d][p:p + L]
                  for d, p in zip(doc.tolist(), pos.tolist())]
            return pa.table({'_h': pa.array(h.astype(np.int64)),
                             '_s': pa.array(ss, pa.string())})

        joined = hash_join(docs.map_batches(explode, batch_format='pyarrow'),
                           dup_hashes, '_h')

        def count_s(t: pa.Table) -> pa.Table:
            agg = pa.table({'_s': t.column('_s')}).group_by('_s') \
                .aggregate([([], 'count_all')])
            return agg.rename_columns(['_s', '_n'])

        cand_partials = joined.map_batches(count_s, batch_format='pyarrow')

    def fold_verified(t: pa.Table) -> pa.Table:
        import pandas as _pd
        df = _pd.DataFrame({'_s': t.column('_s').to_pylist(),
                            '_n': t.column('_n').to_numpy(
                                zero_copy_only=False)})
        agg = df.groupby('_s', sort=False)['_n'].sum()
        return pa.table({'_s': pa.array(agg.index[agg >= 2].tolist(),
                                        pa.string())})

    # candidate partials are bounded by true duplication volume — the
    # same guarded single-block fold
    cand_partials = drop_empty_blocks(cand_partials)
    if cand_partials.count() <= fold_limit:
        verified = drop_empty_blocks(
            cand_partials.repartition(1)
            .map_batches(fold_verified, batch_format='pyarrow',
                         batch_size=None))
    else:
        verified = drop_empty_blocks(
            cand_partials.groupby('_s').aggregate(Sum('_n', alias_name='_n'))
            .filter(expr='_n >= 2').select_columns(['_s']))
    vset = frozenset(
        r['_s'] for b in verified.iter_batches(batch_size=None,
                                               batch_format='pyarrow')
        for r in b.to_pylist())
    if not vset:
        return ray.data.from_arrow(pa.table({
            id_col: pa.array([], pa.int64()),
            'span_start': pa.array([], pa.int64()),
            'span_end': pa.array([], pa.int64())}))
    vref = ray.put(vset)

    # the verified-substring hash set prefilters positions vectorized so the
    # per-position Python substring check only runs on true candidates
    vh_sorted = np.sort(np.unique(np.concatenate(
        [_gram_hashes(s, L).astype(np.int64) for s in vset])))
    vhref = ray.put(vh_sorted)

    def spans(t: pa.Table) -> pa.Table:
        vs = ray.get(vref)
        vh = ray.get(vhref)
        texts = [x or '' for x in t.column(text_col).to_pylist()]
        ids = t.column(id_col).to_pylist()
        out_id, out_a, out_b = [], [], []
        h, doc, pos = _batch_gram_hashes(texts, L)
        if h.size:
            hi = h.astype(np.int64)
            idx = np.minimum(np.searchsorted(vh, hi), len(vh) - 1)
            cand = np.flatnonzero(vh[idx] == hi)
            for j in cand.tolist():
                d, p = int(doc[j]), int(pos[j])
                if texts[d][p:p + L] not in vs:
                    continue
                # positions stream in (doc, pos) order: extend the open
                # island or close it and start a new one
                if (out_id and out_id[-1] == ids[d]
                        and p <= out_b[-1]):      # overlap or touching
                    out_b[-1] = p + L
                else:
                    out_id.append(ids[d])
                    out_a.append(p)
                    out_b.append(p + L)
        return pa.table({id_col: pa.array(out_id, pa.int64()),
                         'span_start': pa.array(out_a, pa.int64()),
                         'span_end': pa.array(out_b, pa.int64())})

    return docs.map_batches(spans, batch_format='pyarrow')
