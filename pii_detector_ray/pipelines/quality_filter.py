"""The flagship pipeline: read → filter → extract → score → keep/drop → scrub.

Ray-Data-native replacement for the reference's scan lifecycle
(``run_periodic_scanning_task`` → mp.Pool → ``run_scanner`` per chunk;
SURVEY.md §3.1): the streaming executor owns scheduling/backpressure, stages
are Arrow ``map_batches`` callables, the scorer models are cached once per
worker process, and resumable execution comes from per-partition manifests
(``pii_detector_ray/state/manifest.py``) instead of a status-CAS database.

Stage order is chosen for scale (SURVEY.md §7):

1. url filters (F1-F4) — cheap Arrow predicate, prunes rows first;
2. extract (P1) — then the large ``html`` column is DROPPED so it never
   flows through later stages or the object store again;
3. optional exact url dedup — the only wide/shuffle step, key = ``url``;
4-6. quality — heuristics, scorers (langid+perplexity+toxicity, models
   cached per worker process) and keep/drop fused into ONE Arrow stage
   (``stages/keepdrop.make_quality_stage``);
7. scrub — megastring regex pass, stateless (patterns cached per worker);
8. finalize — ``warc_ts`` as ``timestamp[us]``, schema metadata dropped.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from pii_detector_ray.sources.pqread import read_parquet_clean

from pii_detector_ray.config import PipelineConfig
from pii_detector_ray.stages.extract import extract_batch, make_url_filter
from pii_detector_ray.stages.keepdrop import make_quality_stage
from pii_detector_ray.stages.scrub import make_scrub_stage


def dedup_exact_by_url(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Exact url dedup: keep the earliest (min ``warc_ts``) row per url;
    ties broken by text md5 then arbitrary-but-single.

    Ray-native version of the reference's ``(path, etag)``/(path, offset,
    hash) catalog diffs (``base_scan_service.py:643-731``; SURVEY.md §2.2 F7).

    Round-2 strategy (re-measured, reversing the round-1 note): winners are
    computed over NARROW (url, winner-key) rows — winner key =
    ``warc_ts|md5(text)`` — with a vectorized ``groupby.aggregate(Min)``,
    then the payload joins the winner keys once, hash-partitioned.  On the
    600k bench corpus @32 CPUs this runs **19.6 s vs 48.7 s** (min of 3;
    16.0 s without the exactness tie-detection below) for the round-1
    full-row ``groupby('url').map_groups(head(1))`` — the
    map_groups formulation pays per-group Python on ~588k mostly-singleton
    groups, which dominates once the payload rides the same shuffle.  This
    is also the 100 TB shape: documents never shuffle for the aggregation,
    only for the single co-partitioned join.

    Exactness under full ties: two rows with identical (url, warc_ts,
    text md5) would BOTH survive the winner join, so winner keys seen more
    than once (``_n > 1`` — empty on any real crawl) are split out and
    resolved to one row with a groupby over just those rows.
    """
    import hashlib

    from ray.data.aggregate import Count, Min

    from pii_detector_ray.stages.dedup import join_partitions

    # lexicographic winner key: offset keeps negative (pre-1970) timestamps
    # ordered, and NULL warc_ts sorts LAST ('~' > any digit) — matching the
    # round-1 sort_values semantics (pandas puts NaT last)
    _TS_OFFSET = 1 << 62

    def wkey(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        ts = batch.column('warc_ts').cast(pa.int64()).to_pylist()
        # md5 straight off the Arrow utf8 buffer: NULL-filled string cast to
        # binary is zero-copy, and each row hashes a memoryview SLICE — no
        # per-row Python str materialization or re-encode (VERDICT r4 nit)
        txt = pc.cast(pc.fill_null(batch.column('extracted_text'), ''),
                      pa.binary()).combine_chunks()
        bufs = txt.buffers()
        offs = np.frombuffer(bufs[1], dtype=np.int32,
                             count=txt.offset + len(txt) + 1)[txt.offset:]
        data = memoryview(bufs[2]) if bufs[2] is not None else memoryview(b'')
        keys = [('~' if t is None else f'{t + _TS_OFFSET:020d}')
                + '|' + hashlib.md5(data[offs[i]:offs[i + 1]]).hexdigest()
                for i, t in enumerate(ts)]
        return batch.append_column('_wkey', pa.array(keys, pa.string()))

    from pii_detector_ray.stages.dedup import drop_empty_blocks

    # DELIBERATELY LAZY: keyed feeds both the counts aggregate and the
    # winner join, so the upstream read→filter→extract→md5 chain executes
    # twice (three times in the rare ties branch; counts/winners themselves
    # are narrow and materialized, so their downstream reuse is free) — but
    # materializing keyed instead (payload through the object store as a
    # hard barrier) measured 40.9 s vs 19.6 s min-of-3 on the 600k corpus
    # @32 CPUs: the recompute is cheap, parallel and overlapped, while the
    # materialize serializes the pipeline and spills ~600 MB.
    keyed = ds.map_batches(wkey, batch_format='pyarrow')
    nparts = join_partitions()
    # drop_empty_blocks: both aggregates are narrow join inputs (Ray 2.49
    # empty-schema-block workaround, see stages/dedup.drop_empty_blocks)
    counts = drop_empty_blocks(
        keyed.select_columns(['url', '_wkey'])
        .groupby(['url', '_wkey']).aggregate(Count(alias_name='_n')))
    if counts.count() == 0:               # empty input: nothing to dedup
        return keyed.drop_columns(['_wkey'])
    winners = drop_empty_blocks(
        counts.groupby('url').aggregate(Min('_wkey', alias_name='_wkey')))
    winners_n = winners.join(counts, join_type='inner', num_partitions=nparts,
                             on=('url', '_wkey'))
    # filter(expr=) emits schema-less empty blocks too — normalize both
    # (narrow) sides before they feed joins
    uniq = drop_empty_blocks(winners_n.filter(expr='_n == 1').drop_columns(['_n']))
    ties = winners_n.filter(expr='_n > 1').drop_columns(['_n']).materialize()

    main = keyed.join(uniq, join_type='inner', num_partitions=nparts,
                      on=('url', '_wkey'))
    if ties.count() == 0:        # the common case: no byte-identical captures
        return main.drop_columns(['_wkey'])
    tie_rows = keyed.join(drop_empty_blocks(ties), join_type='inner',
                          num_partitions=nparts, on=('url', '_wkey')) \
        .groupby('url').map_groups(lambda g: g.head(1), batch_format='pandas')
    return main.union(tie_rows).drop_columns(['_wkey'])


def _finalize(batch: pa.Table) -> pa.Table:
    if 'warc_ts' in batch.column_names:
        idx = batch.column_names.index('warc_ts')
        batch = batch.set_column(
            idx, 'warc_ts', batch.column('warc_ts').cast(pa.timestamp('us')))
    # pandas batches upstream (a caller's from_pandas input, the url dedup's
    # tie-break map_groups) leave b'pandas' schema metadata (a dict) on their
    # blocks, which defeats Ray's schema-dedup hashing ("Failed to hash the
    # schemas" log spam on every task) — strip it
    return batch.replace_schema_metadata(None)


def build_pipeline(
    ds: ray.data.Dataset,
    cfg: PipelineConfig | None = None,
    *,
    dedup_urls: bool = False,
    keep_only: bool = False,
) -> ray.data.Dataset:
    """Compose the flagship pipeline over a pages Dataset (lazy; caller
    consumes via write_parquet / iter_batches / aggregate)."""
    cfg = cfg or PipelineConfig()
    ds = ds.map_batches(make_url_filter(cfg), batch_format='pyarrow')
    if cfg.canonicalize_urls:
        # after the filters (F1-F4 are contracts on the RAW url), before
        # extract/dedup so the dedup key is the canonical spelling
        from pii_detector_ray.stages.urlnorm import canonicalize_url_array

        def canon_inplace(batch: pa.Table) -> pa.Table:
            idx = batch.schema.get_field_index('url')
            return batch.set_column(
                idx, 'url', canonicalize_url_array(batch.column('url')))

        ds = ds.map_batches(canon_inplace, batch_format='pyarrow')
    ds = ds.map_batches(extract_batch, batch_format='pyarrow')
    ds = ds.select_columns(['url', 'warc_ts', 'lang', 'extracted_text'])
    if dedup_urls:
        ds = dedup_exact_by_url(ds)
    ds = ds.map_batches(make_quality_stage(cfg), batch_format='pyarrow',
                        batch_size=cfg.scorer_batch_size)
    ds = ds.map_batches(make_scrub_stage(cfg), batch_format='pyarrow',
                        batch_size=cfg.scrub_batch_size)
    if keep_only:
        ds = ds.map_batches(lambda t: t.filter(t.column('keep')),
                            batch_format='pyarrow')
    ds = ds.map_batches(_finalize, batch_format='pyarrow')
    return ds


def read_pages(paths: str | list[str], *, override_num_blocks: int | None = None) -> ray.data.Dataset:
    """Read the pages table (column-complete: all 5 input columns are used —
    ``html`` only until extraction, after which it is dropped)."""
    return read_parquet_clean(paths, override_num_blocks=override_num_blocks)
