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

Plan shape: no stage sets a ``batch_size``, so every stage takes whole
blocks and Ray fuses them, and the caller's ``write_parquet``, into one
task per input block.  ``read_pages`` picks the blocks from the Parquet
footers: one block per file when the files are at least as many as the
cluster's CPUs or as the 1,024-row tasks the rows fill
(``files >= min(CPUs, ceil(rows / 1024))``) — then the read fuses in too
and each file is ONE task from read to write — else Ray's split of the
files into ``min(2 x CPUs, ceil(rows / 1024))`` blocks.  With
``dedup_urls`` the stages up to the dedup key fuse into the read, and the
rest, the write included, into the map after the dedup's range-partitioned
sort, one task per reducer: ``max(CPUs, read tasks)`` of them, at most
``bucket_count()``, however few blocks the read makes
(``dedup_exact_by_url``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from pii_detector_ray.sources.pqread import footers, read_parquet_clean

from pii_detector_ray.config import PipelineConfig
from pii_detector_ray.stages.extract import extract_batch, make_url_filter
from pii_detector_ray.stages.keepdrop import make_quality_stage
from pii_detector_ray.stages.scrub import make_scrub_stage


def cluster_cpus() -> int:
    """The cluster's CPUs, starting Ray as Ray Data's first call would."""
    if not ray.is_initialized():
        ray.init()
    return max(1, int(ray.cluster_resources().get('CPU', 1)))


def dedup_exact_by_url(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Exact url dedup: keep the earliest (min ``warc_ts``, NULL last) row
    per url; ties broken by text md5 then arbitrary-but-single.

    Ray-native version of the reference's ``(path, etag)``/(path, offset,
    hash) catalog diffs (``base_scan_service.py:643-731``; SURVEY.md §2.2 F7).

    One shuffle, a range split of url buckets: a map appends the winner
    key ``_wkey`` = ``warc_ts|md5(text)`` and the bucket ``_bk`` =
    crc32(url) masked to ``bucket_count()``; ``sort('_bk', boundaries=...)``
    cuts ``[0, bucket_count())`` at ``k - 1`` evenly spaced boundaries, so
    every row of a url lands in the same one of ``k`` reducer blocks; then
    ``pick``, once per block (``batch_size=None``), sorts the block by
    ``(url, _wkey)`` and keeps the first row of every url run (a vectorized
    adjacent-key compare).  Byte-identical full ties are adjacent after that
    sort, so they collapse to one row in the same pass; the upstream
    read→filter→extract→md5 chain runs once.  A block calls the UDF once,
    not once per url — per-url Python on mostly singleton groups is what
    sank the round-1 ``groupby('url')`` version.

    Reducers: ``k = max(cluster CPUs, input blocks)``, at most
    ``bucket_count()``, fixed when the plan is built.  The input blocks are
    Ray's plan estimate, which counts read tasks: one per file when
    ``read_pages`` reads a block per file, one for a file Ray splits.
    Boundaries given by the caller set the reducers whatever the input's
    blocks and skip the sampling pass; Ray's sampled sort (the plan of
    ``groupby('_bk').map_groups``) gives one reducer per input block, which
    leaves all the work after the dedup of a one-block partition (pick,
    quality, scrub, finalize, write) to one task on one CPU.  More reducers
    than CPUs only cost: in-process on 4 vCPUs (medians of 5 runs after a
    warm run), one 8,000-row file took 0.85 s at ``k = 4`` and 1.00 s at
    ``k = 8``; 8 files of 1,000 rows 1.42 s at ``k = 8`` and 1.62 s at
    ``k = 16``.  A reducer that gets no rows (inputs of a few rows) yields
    a schema-less empty block, as in any Ray sort.

    Measured on a 4-vCPU VM with Ray ``num_cpus=4``, ``python3
    perfbench/run.py --workload dedup_resume --seed N --seconds 10``, 20
    pairs of runs (seeds 501-510 and 521-530) against the one-reducer-per-
    block plan: median 1,988 -> 2,540 docs/s, faster in 18 of 20 pairs;
    peak RSS 1,446 -> 1,485 MB.  Traced (``--trace 1``, seeds 511-513):
    ``runner.partition_wall_s`` 0.87-1.00 -> 0.72-0.81 s,
    ``ray.busy_frac`` 0.35-0.37 -> 0.49-0.51, while the rescan, reading
    4 files per partition instead of 1, went 0.16-0.21 -> 0.20-0.27 s.
    Against the plan before the bucket sort (two aggregates and three hash
    joins over narrow winner keys): seeds 1-10, median 122 -> 708 docs/s;
    ``build_pipeline(..., dedup_urls=True)`` over ``PagesSpec(n_rows=100_000,
    n_shards=16, dup_url_frac=0.3)``, 98-132 s -> 41-53 s (3 runs each,
    same output).
    """
    import hashlib
    import zlib

    import pyarrow.compute as pc

    from pii_detector_ray.stages.dedup import bucket_count

    # lexicographic winner key: offset keeps negative (pre-1970) timestamps
    # ordered, and NULL warc_ts sorts LAST ('~' > any digit)
    _TS_OFFSET = 1 << 62
    n = bucket_count()
    mask = n - 1

    def utf8_slices(col: pa.ChunkedArray) -> tuple[memoryview, np.ndarray]:
        # NULL-filled string cast to binary is zero-copy; each row is read as
        # a memoryview SLICE — no per-row Python str materialization
        arr = pc.cast(pc.fill_null(col, ''), pa.binary()).combine_chunks()
        bufs = arr.buffers()
        offs = np.frombuffer(bufs[1], dtype=np.int32,
                             count=arr.offset + len(arr) + 1)[arr.offset:]
        return (memoryview(bufs[2]) if bufs[2] is not None
                else memoryview(b''), offs)

    def wkey(batch: pa.Table) -> pa.Table:
        ts = batch.column('warc_ts').cast(pa.int64()).to_pylist()
        data, offs = utf8_slices(batch.column('extracted_text'))
        keys = [('~' if t is None else f'{t + _TS_OFFSET:020d}')
                + '|' + hashlib.md5(data[offs[i]:offs[i + 1]]).hexdigest()
                for i, t in enumerate(ts)]
        # crc32, not the per-process salted hash(): every worker must send a
        # url to the same bucket
        data, offs = utf8_slices(batch.column('url'))
        bk = [zlib.crc32(data[offs[i]:offs[i + 1]]) & mask
              for i in range(len(offs) - 1)]
        return batch.append_column('_wkey', pa.array(keys, pa.string())) \
            .append_column('_bk', pa.array(bk, pa.int64()))

    def pick(t: pa.Table) -> pa.Table:
        t = t.drop_columns(['_bk'])
        order = pc.sort_indices(t, sort_keys=[('url', 'ascending'),
                                              ('_wkey', 'ascending')],
                                null_placement='at_end')
        url = t.column('url').take(order)
        head = np.ones(len(url), bool)
        if len(url) > 1:
            a, b = url.slice(1), url.slice(0, len(url) - 1)
            # a run breaks where the url differs; NULL urls form one run
            head[1:] = np.asarray(pc.or_(
                pc.fill_null(pc.not_equal(a, b), False),
                pc.xor(pc.is_null(a), pc.is_null(b))))
        return t.take(order.filter(pa.array(head))).drop_columns(['_wkey'])

    k = min(n, max(cluster_cpus(), ds._plan.initial_num_blocks() or 0))
    return ds.map_batches(wkey, batch_format='pyarrow') \
        .sort('_bk', boundaries=[n * i // k for i in range(1, k)]) \
        .map_batches(pick, batch_format='pyarrow', batch_size=None)


def _finalize(batch: pa.Table) -> pa.Table:
    if 'warc_ts' in batch.column_names:
        idx = batch.column_names.index('warc_ts')
        batch = batch.set_column(
            idx, 'warc_ts', batch.column('warc_ts').cast(pa.timestamp('us')))
    # pandas batches upstream (a caller's from_pandas input) leave b'pandas'
    # schema metadata (a dict) on their blocks, which defeats Ray's
    # schema-dedup hashing ("Failed to hash the schemas" log spam on every
    # task) — strip it
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
    ds = ds.map_batches(make_quality_stage(cfg), batch_format='pyarrow')
    ds = ds.map_batches(make_scrub_stage(cfg), batch_format='pyarrow')
    if keep_only:
        ds = ds.map_batches(lambda t: t.filter(t.column('keep')),
                            batch_format='pyarrow')
    ds = ds.map_batches(_finalize, batch_format='pyarrow')
    return ds


# rows per task below which the files are not split further: scrub's fixed
# per-batch cost makes smaller batches dearer (in-process, the seed-1 corpus:
# 0.21 / 0.18 / 0.15 CPU-s per 1k rows in 312 / 625 / 1,024-row batches)
ROWS_PER_TASK = 1024


def read_blocks(n_files: int, rows: int) -> int:
    """Read blocks for ``n_files`` Parquet files of ``rows`` rows in all:
    one per file when the files fill the cluster's CPUs or its share of
    ``ROWS_PER_TASK``-row tasks, else about two blocks per CPU (Ray splits
    each file's block; none holds fewer than ``ROWS_PER_TASK`` rows on
    average).

    One task per file reads, transforms and writes without a hand-off, but
    with fewer files than CPUs it leaves CPUs idle: 2 files of 10,000 pages
    took 4.08 s as 2 tasks and 3.42 s as 8 blocks (medians of 5 runs,
    4-vCPU VM, Ray ``num_cpus=4``)."""
    cpus = cluster_cpus()
    tasks = -(-rows // ROWS_PER_TASK)
    if n_files >= min(cpus, tasks):
        return n_files
    return min(2 * cpus, tasks)


def read_pages(paths: str | list[str], *, override_num_blocks: int | None = None) -> ray.data.Dataset:
    """Read the pages table (column-complete: all 5 input columns are used —
    ``html`` only until extraction, after which it is dropped) in
    ``read_blocks`` blocks, unless ``override_num_blocks`` is given.

    The dataset's own ``target_max_block_size`` (its copy of the
    ``DataContext``; the global one is untouched) becomes the largest
    file's footer ``total_byte_size``, capped at the inherited value.
    Until a task has reported output, Ray Data books it at twice that
    size against the object store; at Ray's 128 MiB default, the first
    fused task of a small corpus on a 256 MiB store ran alone."""
    metas = footers(paths)
    if metas is not None and override_num_blocks is None:
        override_num_blocks = read_blocks(len(metas), sum(md.num_rows for md in metas))
    ds = read_parquet_clean(paths, metas=metas, override_num_blocks=override_num_blocks)
    largest = max((sum(md.row_group(i).total_byte_size for i in range(md.num_row_groups))
                   for md in metas or ()), default=0)
    cap = ds.context.target_max_block_size
    if largest and cap is not None:
        ds.context.target_max_block_size = min(cap, largest)
    return ds
