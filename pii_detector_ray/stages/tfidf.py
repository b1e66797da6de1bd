"""Distributed TF-IDF top-terms: per-document term frequencies ranked
against a corpus-wide document-frequency table.

Training-pipeline operator beyond the reference (which has no term
statistics); the interesting distributed piece is the DF table — every
document must see every term's global document count.

Term definition (exact-parity contract with the DuckDB oracle
``_TFIDF_TOP_TERMS_SQL`` in ``queries.py``): ASCII alphanumeric runs
``[A-Za-z0-9]+`` of the ORIGINAL text, lowercased AFTER extraction — ASCII
lowercasing is byte-identical between Python and DuckDB, whereas full-text
Unicode case folding diverges on edge codepoints.  Non-ASCII words simply
contribute no terms (documented; term statistics over transliterated /
multilingual corpora should tokenize upstream).

Ranking is integer-exact — ``(tf DESC, df ASC, term ASC)`` — i.e. "most
frequent, then globally rarest": the classic tf-idf ordering without
floating-point idf, so Ray and SQL agree bit-for-bit (a float
``tf·ln((N+1)/(df+1))`` score would hash-flip whenever two libm
implementations disagree by an ulp at a rounding boundary).  The output
carries ``(tf, df)`` so any idf weighting is derivable downstream.

Two execution paths, size-guarded like ``dedup.embedding_dup_pairs``:

- **broadcast** (vocab ≤ ``broadcast_vocab_limit``): the DF table — built
  by per-batch partial counting (each doc lives in exactly one batch, so
  per-batch distinct-doc counts sum exactly) and one narrow
  ``groupby('term').sum`` — is ``ray.put`` once and read inside a second
  pass over the documents; per-doc top-k never leaves its batch.  One
  narrow shuffle of (term, partial) rows total.
- **join** (bigger vocab): (doc_id, term, tf) rows hash-partition-join the
  DF table on ``term``, then ``groupby(doc_id)`` re-localizes docs for the
  top-k cut.  Two wide-but-narrow-row shuffles; no driver-side vocabulary.
"""

from __future__ import annotations

import heapq
import re
from collections import Counter

import pandas as pd
import pyarrow as pa

import ray
import ray.data

from pii_detector_ray.stages.dedup import hash_join

_TERM_RE = re.compile(r'[A-Za-z0-9]+')

# At web scale the vocabulary (typos, ids, hashes) can reach billions; the
# broadcast dict must stay a small multiple of worker heap.  50M terms
# ≈ 1–2 GB as a python dict — beyond that, take the join path.
BROADCAST_VOCAB_LIMIT = 1_000_000


def doc_terms(text: str) -> list[str]:
    return [m.lower() for m in _TERM_RE.findall(text or '')]


def _df_partials(batch: pa.Table, text_col: str) -> pa.Table:
    """(term, partial document count) for one batch of whole documents."""
    counts: Counter = Counter()
    for text in batch.column(text_col).to_pylist():
        counts.update(set(doc_terms(text)))
    return pa.table({'term': pa.array(list(counts.keys()), pa.string()),
                     'partial': pa.array(list(counts.values()), pa.int64())})


def document_frequencies(docs: ray.data.Dataset,
                         text_col: str = 'text') -> ray.data.Dataset:
    """(term, df) over a documents Dataset — exact, one narrow shuffle."""
    partials = docs.map_batches(
        lambda t: _df_partials(t, text_col), batch_format='pyarrow')
    from ray.data.aggregate import Sum
    out = partials.groupby('term').aggregate(Sum('partial', alias_name='df'))
    return out


def _top_k_rows(doc_id, terms: list[str], df_map, k: int) -> list[dict]:
    tf = Counter(terms)
    best = heapq.nsmallest(
        k, tf.items(), key=lambda kv: (-kv[1], df_map[kv[0]], kv[0]))
    return [{'doc_id': doc_id, 'term': t, 'tf': c, 'df': df_map[t],
             'rank': i + 1} for i, (t, c) in enumerate(best)]


def tfidf_top_terms(docs: ray.data.Dataset, k: int = 5,
                    text_col: str = 'text', id_col: str = 'doc_id',
                    broadcast_vocab_limit: int = BROADCAST_VOCAB_LIMIT,
                    num_partitions: int | None = None) -> ray.data.Dataset:
    """Top-k terms per document by (tf DESC, df ASC, term ASC); columns
    (doc_id, term, tf, df, rank).  Docs with no ASCII terms emit no rows."""
    # materialize: (term, df) rows only, bounded by vocab — without it the
    # size-guard count() would run the full doc scan + shuffle and the
    # take_all()/join below would re-run it (r3 review finding)
    df_table = document_frequencies(docs, text_col).materialize()
    vocab_size = df_table.count()

    if vocab_size <= broadcast_vocab_limit:
        local = df_table.take_all()          # bounded by the guard above
        df_ref = ray.put({r['term']: r['df'] for r in local})

        def topk_batch(batch: pa.Table) -> pa.Table:
            df_map = ray.get(df_ref)
            rows: list[dict] = []
            for doc_id, text in zip(batch.column(id_col).to_pylist(),
                                    batch.column(text_col).to_pylist()):
                terms = doc_terms(text)
                if terms:
                    rows.extend(_top_k_rows(doc_id, terms, df_map, k))
            return _rows_table(rows)

        return docs.map_batches(topk_batch, batch_format='pyarrow')

    # join path: no driver-side vocabulary
    def tf_rows(batch: pa.Table) -> pa.Table:
        rows = []
        for doc_id, text in zip(batch.column(id_col).to_pylist(),
                                batch.column(text_col).to_pylist()):
            for t, c in Counter(doc_terms(text)).items():
                rows.append({'doc_id': doc_id, 'term': t, 'tf': c})
        if not rows:
            return pa.table({'doc_id': pa.array([], pa.int64()),
                             'term': pa.array([], pa.string()),
                             'tf': pa.array([], pa.int64())})
        return pa.Table.from_pylist(rows)

    joined = hash_join(docs.map_batches(tf_rows, batch_format='pyarrow'),
                       df_table, 'term', num_partitions=num_partitions)

    def cut(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(['tf', 'df', 'term'],
                              ascending=[False, True, True]).head(k)
        g = g.reset_index(drop=True)
        g['rank'] = g.index + 1
        return g[['doc_id', 'term', 'tf', 'df', 'rank']]

    return joined.groupby('doc_id').map_groups(cut, batch_format='pandas')


def ngram_counts(docs: ray.data.Dataset, n: int = 2, k: int = 20,
                 text_col: str = 'text') -> ray.data.Dataset:
    """Corpus-wide top-k word n-grams by total occurrence count — the C4 /
    dedup-diagnostic sweep ("what boilerplate dominates this crawl?").

    Terms are the :func:`doc_terms` contract; grams join with one space.
    Per-batch Counter partials → one narrow (gram, partial) shuffle →
    ``groupby.sum`` → total-order (count DESC, gram ASC) sort + limit, so
    ties at the k boundary are deterministic.  Only gram strings and int
    counts ever cross the wire; documents stay in their read tasks."""
    def partials(batch: pa.Table) -> pa.Table:
        counts: Counter = Counter()
        for text in batch.column(text_col).to_pylist():
            terms = doc_terms(text)
            counts.update(' '.join(terms[i:i + n])
                          for i in range(len(terms) - n + 1))
        return pa.table({'gram': pa.array(list(counts.keys()), pa.string()),
                         'partial': pa.array(list(counts.values()),
                                             pa.int64())})

    from ray.data.aggregate import Sum
    totals = (docs.map_batches(partials, batch_format='pyarrow')
              .groupby('gram').aggregate(Sum('partial', alias_name='cnt')))
    return totals.sort(['cnt', 'gram'], descending=[True, False]).limit(k)


def _rows_table(rows: list[dict]) -> pa.Table:
    if not rows:
        return pa.table({'doc_id': pa.array([], pa.int64()),
                         'term': pa.array([], pa.string()),
                         'tf': pa.array([], pa.int64()),
                         'df': pa.array([], pa.int64()),
                         'rank': pa.array([], pa.int64())})
    return pa.Table.from_pylist(rows)
