"""Composite LLM training-data-prep pipeline — the "user of the reference
switches to this repo" showcase: the cleaning operators this engine adds
beyond the reference, chained as ONE lazy Ray Data flow.

    documents
      → Unicode NFC + whitespace normalization ┐
      → C4 line-level filter                   ├ map phase 1 (fused, arrow
      → quality stage (heuristics, langid/ppl/ ┘ in/out; the C4 rules run
        tox, keep/drop — the flagship's)         on one pandas roundtrip)
      → PII scrub (megastring regex)             map phase 2 (survivors only)
      → exact dedup on scrubbed text             narrow shuffle #1 (16 B keys)
      → global 3-sentence-span dedup             narrow shuffles (span keys)
      → token stats on the final text            map phase 3

Row accounting is CLOSED: every input row lands exactly once in either the
corpus or the drop ledger (labelled by the stage that cut it) — the same
lineage contract the flagship's partition manifests keep, asserted in
tests/test_traindata.py.

Scale shape: map phases fuse into single map operators between the narrow
shuffles; the exact-dedup groupby moves (16 B hash, id) pairs and the
winner semi-join is marker-based over the same narrow keys, so document
payloads cross the object store only inside their own map chain.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data
from ray.data.aggregate import Min

from pii_detector_ray.config import PipelineConfig
from pii_detector_ray.functions.textnorm import normalize_ws_nfc
from pii_detector_ray.stages.c4filter import c4_filter_batch
from pii_detector_ray.stages.dedup import drop_empty_blocks, hash_join
from pii_detector_ray.stages.keepdrop import make_quality_stage
from pii_detector_ray.stages.scrub import make_scrub_stage
from pii_detector_ray.stages.spandedup import span_dedup
from pii_detector_ray.stages.textstats import token_stats_batch

_LEDGER_COLS = ['drop_stage', 'drop_reason']


def build_traindata_pipeline(
    docs: ray.data.Dataset,
    cfg: PipelineConfig | None = None,
    *,
    id_col: str = 'doc_id',
    text_col: str = 'text',
    span_dedup_enabled: bool = True,
    c4_enabled: bool = True,
    near_dedup_enabled: bool = True,
    near_threshold: tuple[int, int] = (4, 5),
) -> tuple[ray.data.Dataset, ray.data.Dataset]:
    """Returns ``(corpus, dropped)``:

    - ``corpus``: (id_col, final_text, n_tokens_ws, n_tokens_bpe,
      n_spans_dropped) — cleaned, scrubbed, deduped documents;
    - ``dropped``: (id_col, drop_stage, drop_reason) — one row per input
      document that did not survive.

    ``near_dedup_enabled`` adds the exact prefix-filtered Jaccard join
    (``stages/dedup.jaccard_pairs_prefix``) between exact dedup and span
    dedup: any doc with word-3-gram Jaccard >= ``near_threshold`` (a
    rational tn/td, default 4/5) to a LOWER-id doc is dropped with its own
    ledger entry — the greedy keep-lowest-id policy (no transitive
    closure: B~A and C~B drops both B and C even if C!~A, deterministic
    and batching-invariant because the pair set is exact).
    """
    cfg = cfg or PipelineConfig()
    quality = make_quality_stage(cfg)
    scrub = make_scrub_stage(cfg)

    # --- map phase 1: normalize → c4 → the flagship's quality stage ---
    def clean_quality(t: pa.Table) -> pa.Table:
        df = t.select([id_col, text_col]).to_pandas()
        df[text_col] = [normalize_ws_nfc(x)
                        for x in df[text_col].astype('string').fillna('')]
        if c4_enabled:
            df = c4_filter_batch(df, text_col=text_col)
            kept = df['kept'].to_numpy(dtype=bool)
            texts = df['filtered_text']
        else:
            # pre-extracted plain text: the C4 line rules target raw web
            # pages; pass-through keeps the ledger shape
            kept = np.ones(len(df), dtype=bool)
            texts = df[text_col]
        ids = df[id_col].to_numpy(dtype=np.int64)
        live = quality(pa.table({
            id_col: pa.array(ids[kept], pa.int64()),
            'extracted_text': pa.array(texts[kept], pa.string())}))
        n_dead = len(ids) - len(live)
        return pa.concat_tables([
            pa.table({
                id_col: live.column(id_col),
                'extracted_text': live.column('extracted_text'),
                'drop_stage': pc.if_else(live.column('keep'), '', 'quality'),
                'drop_reason': live.column('drop_reason')}),
            pa.table({
                id_col: pa.array(ids[~kept], pa.int64()),
                'extracted_text': pa.repeat('', n_dead),
                'drop_stage': pa.repeat('c4_filter', n_dead),
                'drop_reason': pa.repeat('line_rules', n_dead)})])

    # materialize ONCE: staged is consumed three times (drop ledger, the
    # winners groupby, the winner join).  Lazy, the normalize→C4→quality
    # chain — the pipeline's dominant compute — would re-execute each time;
    # this is the expensive-upstream case where the barrier wins (the url
    # dedup kept payloads lazy because ITS upstream was a cheap re-read).
    staged = docs.map_batches(clean_quality,
                              batch_format='pyarrow').materialize()
    dropped_early = staged.filter(expr="drop_stage != ''") \
        .select_columns([id_col] + _LEDGER_COLS)

    # --- map phase 2: scrub the survivors only ---
    live = staged.filter(expr="drop_stage == ''") \
        .select_columns([id_col, 'extracted_text']) \
        .map_batches(scrub, batch_format='pyarrow',
                     batch_size=cfg.scrub_batch_size)

    # --- exact dedup on scrubbed text: min-id winners over 16 B hashes,
    # marker-based left join decides winner/duplicate per row ---
    def keyed(batch: pa.Table) -> pa.Table:
        hs = [hashlib.sha256((t or '').encode()).digest()[:16]
              for t in batch.column('scrubbed_text').to_pylist()]
        return pa.table({id_col: batch.column(id_col),
                         'scrubbed_text': batch.column('scrubbed_text'),
                         '_h': pa.array(hs, pa.binary())})

    # same reasoning: the scrub+sha chain feeds both the winners groupby
    # and the winner join — one execution, spillable blocks
    live_keyed = live.map_batches(keyed, batch_format='pyarrow').materialize()
    winners = drop_empty_blocks(
        live_keyed.select_columns(['_h', id_col])
        .groupby('_h').aggregate(Min(id_col, alias_name=id_col)))
    if winners.count() == 0:           # empty input short-circuit
        empty_corpus = ray.data.from_arrow(pa.table({
            id_col: pa.array([], pa.int64()),
            'final_text': pa.array([], pa.string()),
            'n_tokens_ws': pa.array([], pa.int64()),
            'n_tokens_bpe': pa.array([], pa.int64()),
            'n_spans_dropped': pa.array([], pa.int64())}))
        return empty_corpus, dropped_early
    winners = winners.map_batches(
        lambda t: t.append_column('_win', pa.array([True] * len(t))),
        batch_format='pyarrow')
    joined = hash_join(live_keyed, winners, ('_h', id_col), 'left_outer')

    kept_rows = joined.map_batches(
        lambda t: pa.table({
            id_col: t.filter(pc.is_valid(t.column('_win'))).column(id_col),
            text_col: t.filter(pc.is_valid(t.column('_win')))
                       .column('scrubbed_text')}),
        batch_format='pyarrow')
    dup_ledger = joined.map_batches(
        lambda t: pa.table({
            id_col: t.filter(pc.is_null(t.column('_win'))).column(id_col),
        }).append_column(
            'drop_stage', pa.array(
                ['exact_dedup'] * len(t.filter(pc.is_null(t.column('_win')))),
                pa.string())
        ).append_column(
            'drop_reason', pa.array(
                ['duplicate_text'] * len(t.filter(pc.is_null(t.column('_win')))),
                pa.string())),
        batch_format='pyarrow')
    dropped = dropped_early.union(drop_empty_blocks(dup_ledger))

    # --- near dedup: exact Jaccard join, drop the higher-id side of every
    # qualifying pair (lossless candidates, so the policy is deterministic
    # under any partitioning) ---
    if near_dedup_enabled:
        from pii_detector_ray.stages.dedup import jaccard_pairs_prefix
        kept_rows = kept_rows.materialize()   # feeds the join AND the filter
        pairs = jaccard_pairs_prefix(kept_rows, threshold=near_threshold,
                                     id_col=id_col, text_col=text_col)
        # materialize the LOSER ids (tiny: one int64 per dropped doc) so the
        # expensive Jaccard chain executes exactly once — lazy, the chain
        # would re-run for every downstream consumer (review r5: count +
        # ledger + survivor filter each re-executed it).  The ledger derives
        # from losers DIRECTLY (every loser id is a kept_rows id by
        # construction), so only the survivor anti-join touches the corpus,
        # and it has a single consumer.
        losers = drop_empty_blocks(
            pairs.map_batches(
                lambda t: pa.table({id_col: t.column('doc_b')}),
                batch_format='pyarrow')
            .groupby(id_col).aggregate(Min(id_col, alias_name='_w'))) \
            .materialize()
        if losers.count():
            nd_ledger = losers.map_batches(
                lambda t: pa.table({
                    id_col: t.column(id_col),
                    'drop_stage': pa.array(['near_dedup'] * len(t),
                                           pa.string()),
                    'drop_reason': pa.array(
                        ['jaccard_near_duplicate'] * len(t), pa.string())}),
                batch_format='pyarrow')
            marked = losers.map_batches(
                lambda t: pa.table({id_col: t.column(id_col),
                                    '_nd': pa.array([True] * len(t))}),
                batch_format='pyarrow')
            kept_rows = hash_join(kept_rows, marked, id_col, 'left_outer') \
                .map_batches(
                lambda t: pa.table({
                    id_col: t.filter(pc.is_null(t.column('_nd')))
                             .column(id_col),
                    text_col: t.filter(pc.is_null(t.column('_nd')))
                               .column(text_col)}),
                batch_format='pyarrow')
            dropped = dropped.union(nd_ledger)

    # --- global span dedup, then stats ---
    if span_dedup_enabled:
        deduped = span_dedup(kept_rows, id_col=id_col, text_col=text_col)
        final_col = 'deduped_text'
    else:
        deduped = kept_rows
        final_col = text_col

    def stats(df: pd.DataFrame) -> pd.DataFrame:
        s = token_stats_batch(
            df.rename(columns={final_col: 'text'})[['text']].copy())
        out = pd.DataFrame({
            id_col: df[id_col].astype('int64'),
            'final_text': df[final_col].astype('string'),
            'n_tokens_ws': s['n_tokens_ws'].astype('int64'),
            'n_tokens_bpe': s['n_tokens_bpe'].astype('int64'),
            'n_spans_dropped':
                df['n_spans_dropped'].astype('int64')
                if 'n_spans_dropped' in df.columns
                else np.zeros(len(df), dtype=np.int64)})
        return out

    corpus = deduped.map_batches(stats, batch_format='pandas')
    return corpus, dropped
