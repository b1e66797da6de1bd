"""C4 global three-sentence-span deduplication (Raffel et al. 2020 §2.2:
"we discarded all but one of any three-sentence span occurring more than
once in the data set") — the corpus-WIDE companion to the per-line rules in
``stages/c4filter.py``.

Exact semantics (the DuckDB oracle ``_SPAN_DEDUP_SQL`` mirrors them):

- *sentences* are the non-overlapping matches of ``[^.!?]*[.!?]`` (ASCII
  terminal marks; identical in Python ``re`` and RE2).  Any *tail* text
  after the last terminal mark is not a sentence.
- each document's sentences split into consecutive NON-overlapping groups
  of 3 (C4 hashes overlapping spans; non-overlapping groups keep
  reconstruction unambiguous — a sentence belongs to exactly one span —
  and are the documented contract here).  A trailing partial group
  (< 3 sentences) and the tail are always kept.
- a full span is kept iff it is the globally FIRST occurrence of its text,
  first = minimal ``(doc_id, grp_idx)``.
- ``deduped_text`` = kept spans in order + partial group + tail.

Scale shape (narrow winner keys, then a join back to the payload):

1. span pass — per-batch, emit NARROW rows ``(doc_id, grp_idx, h)`` where
   ``h`` = sha256 of the span text (the oracle groups by the text itself;
   sha256 collisions are the documented equivalence assumption).  Document
   payloads never enter the shuffle.
2. winner pass — ``groupby(h).min(packed key)`` where
   ``packed = doc_id * 2^20 + grp_idx`` (asserted ``grp_idx < 2^20`` and
   ``doc_id < 2^43``) — one int64 per distinct span crosses the wire.
3. join-back — losing spans (``packed != winner``) join their doc_id;
   per-doc loser index lists are tiny.  Documents re-read (lazy recompute
   rather than a materialize barrier) and rebuilt per batch against
   a broadcast/joined loser map.

The loser set is usually a vanishing fraction of spans, so the broadcast
variant ships only duplicated-span keys; a corpus where most spans are
duplicates degrades to the size of the answer itself.
"""

from __future__ import annotations

import hashlib
import re

import pandas as pd
import pyarrow as pa

import ray
import ray.data
from ray.data.aggregate import Count, Min

# Sentence semantics = the non-overlapping matches of ``[^.!?]*[.!?]``
# (what the DuckDB oracle runs via RE2).  Python's backtracking engine is
# QUADRATIC on that pattern for text with no terminal mark (every findall
# position re-scans to end-of-string: ~0.9 ms per 300-char punctuation-free
# doc, measured), so the implementation uses the provably equivalent O(n)
# split-after-each-terminal-mark form: every piece but the last ends with
# its mark and is exactly one sentence; the last piece is the tail (empty
# when the text ends with a mark).  Equivalence is property-tested against
# the findall form in tests/test_spandedup.py.
_SENT_SPLIT = re.compile(r'(?<=[.!?])')
_GRP_BITS = 20
_MAX_DOC = 1 << 43


def doc_spans(text: str | None) -> tuple[list[str], str]:
    """(full 3-sentence spans, always-kept remainder: partial group+tail)."""
    text = text or ''
    parts = _SENT_SPLIT.split(text)
    sents, tail = parts[:-1], parts[-1]
    n_full = len(sents) // 3
    spans = [''.join(sents[3 * i:3 * i + 3]) for i in range(n_full)]
    return spans, ''.join(sents[3 * n_full:]) + tail


_KEY_STRIP = ' \t\n\r\f\v'


def _span_hash(span: str) -> bytes:
    """Dedup KEY = span stripped of leading/trailing ASCII whitespace: the
    sentence regex attaches inter-sentence whitespace to the FOLLOWING
    sentence, so an identical span carries a leading space everywhere
    except at document start — the key must not see that artifact.
    Removal still excises the exact original span text."""
    return hashlib.sha256(span.strip(_KEY_STRIP).encode('utf-8')).digest()


def _pack(doc_id: int, grp_idx: int) -> int:
    assert 0 <= grp_idx < (1 << _GRP_BITS) and 0 <= doc_id < _MAX_DOC, \
        'span packing limits: grp_idx < 2^20, doc_id < 2^43'
    return (doc_id << _GRP_BITS) | grp_idx


def _span_rows(batch: pa.Table, id_col: str, text_col: str) -> pa.Table:
    ids, hashes, packed = [], [], []
    for doc_id, text in zip(batch.column(id_col).to_pylist(),
                            batch.column(text_col).to_pylist()):
        spans, _ = doc_spans(text)
        for i, s in enumerate(spans):
            ids.append(doc_id)
            hashes.append(_span_hash(s))
            packed.append(_pack(doc_id, i))
    # variable-width binary, not fixed_size_binary[32]: Ray's hash-shuffle
    # groupby emits plain binary keys and the later join on 'h' would see
    # mismatched key types (ArrowInvalid)
    return pa.table({'h': pa.array(hashes, pa.binary()),
                     'packed': pa.array(packed, pa.int64())})


# a 5M-key frozenset is ~300 MB on the driver/workers — beyond that the
# loser map must stay a Dataset and reach documents via a doc_id join
BROADCAST_LOSER_LIMIT = 5_000_000


def span_dedup(docs: ray.data.Dataset, *, id_col: str = 'doc_id',
               text_col: str = 'text',
               broadcast_loser_limit: int = BROADCAST_LOSER_LIMIT
               ) -> ray.data.Dataset:
    """(doc_id, deduped_text, n_spans, n_spans_dropped) per document."""
    spans = docs.map_batches(
        lambda t: _span_rows(t, id_col, text_col), batch_format='pyarrow') \
        .materialize()
    # ^ materialized: the span table is NARROW (32 B hash + 8 B packed per
    # span ≈ 3% of corpus bytes, object store spills past memory) and is
    # consumed twice (stats groupby + the loser join); lazy it would
    # re-execute the sha256+sentence-split pass over every document.
    stats = spans.groupby('h').aggregate(
        Min('packed', alias_name='winner'),
        Count(alias_name='n'))
    # materialization point — ints only, bounded by duplicated spans,
    # reused by count + take_all/join below
    from pii_detector_ray.stages.dedup import drop_empty_blocks, hash_join
    dup_stats = drop_empty_blocks(
        stats.filter(expr='n >= 2'),
        schema=pa.schema([('h', pa.binary()), ('winner', pa.int64()),
                          ('n', pa.int64())]))
    if dup_stats.count() == 0:               # no duplicate span anywhere:
        losers = None                        # skip the join (an all-empty
    else:                                    # side still trips the shuffle)
        losers = (hash_join(dup_stats, spans, 'h')
                  .filter(expr='packed != winner')
                  .select_columns(['packed'])).materialize()

    def _rebuild_rows(doc_id, text, drop_idx: set):
        spans_l, rest = doc_spans(text)
        kept = [s for i, s in enumerate(spans_l) if i not in drop_idx]
        return (''.join(kept) + rest, len(spans_l),
                len(spans_l) - len(kept))

    if losers is None or losers.count() <= broadcast_loser_limit:
        loser_ref = ray.put(frozenset(
            r['packed'] for r in losers.take_all()) if losers is not None
            else frozenset())

        def rebuild(batch: pa.Table) -> pa.Table:
            drop = ray.get(loser_ref)
            rows = []
            for doc_id, text in zip(batch.column(id_col).to_pylist(),
                                    batch.column(text_col).to_pylist()):
                spans_l, _ = doc_spans(text)
                idx = {i for i in range(len(spans_l))
                       if _pack(doc_id, i) in drop}
                rows.append((doc_id, *_rebuild_rows(doc_id, text, idx)))
            return _out_table(rows, batch.schema.field(id_col).type, id_col)

        return docs.map_batches(rebuild, batch_format='pyarrow')

    # join path: unpack (doc_id, grp_idx), collect per-doc index lists,
    # left-join documents so loser-free docs pass through untouched
    def unpack(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        packed = t.column('packed')
        return pa.table({
            id_col: pc.shift_right(packed, _GRP_BITS),
            'grp_idx': pc.bit_wise_and(packed, (1 << _GRP_BITS) - 1)})

    def collect(g: pd.DataFrame) -> pd.DataFrame:
        # csv-encoded: arrow hash joins reject list-typed payload columns
        idx = ','.join(str(i) for i in sorted(g['grp_idx'].tolist()))
        return pd.DataFrame({id_col: [g[id_col].iloc[0]],
                             'drop_idx': [idx]})

    per_doc = (losers.map_batches(unpack, batch_format='pyarrow')
               .groupby(id_col).map_groups(collect, batch_format='pandas'))
    joined = hash_join(docs, per_doc, id_col, 'left_outer')

    def rebuild_joined(batch: pa.Table) -> pa.Table:
        rows = []
        for doc_id, text, drop in zip(
                batch.column(id_col).to_pylist(),
                batch.column(text_col).to_pylist(),
                batch.column('drop_idx').to_pylist()):
            idx = {int(i) for i in drop.split(',')} if drop else set()
            rows.append((doc_id, *_rebuild_rows(doc_id, text, idx)))
        return _out_table(rows, batch.schema.field(id_col).type, id_col)

    return joined.map_batches(rebuild_joined, batch_format='pyarrow')


def _out_table(rows: list[tuple], id_type, id_col: str) -> pa.Table:
    return pa.table({
        id_col: pa.array([r[0] for r in rows], id_type),
        'deduped_text': pa.array([r[1] for r in rows], pa.string()),
        'n_spans': pa.array([r[2] for r in rows], pa.int64()),
        'n_spans_dropped': pa.array([r[3] for r in rows], pa.int64())})
