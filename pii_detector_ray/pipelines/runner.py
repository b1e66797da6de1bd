"""Resumable partitioned runner for the flagship pipeline.

Execution model (SURVEY.md §4 'Checkpoint / resume'): input files are
assigned to deterministic partitions, and each partition not yet committed
goes through three steps:

1. remove any ``out/part=K/`` left by a crash (output with no manifest);
2. run the streaming pipeline over the partition's files and write
   ``out/part=K/`` through ``PartitionSink``, whose write tasks count the
   rows they write (rows, kept, drop reasons, PII span types);
3. sum those counts and atomically commit the manifest.

So a partition costs ONE Ray Data execution: its counts come from the write
pass, not from reading the files back.  A partition is read by
``quality_filter.read_pages``: one task per file when its files number at
least ``min(CPUs, ceil(rows / 1024))``, else its files split into
``min(2 x CPUs, ceil(rows / 1024))`` blocks.  So without the url dedup a
partition of fewer files than CPUs fills the cluster only when its rows
make enough 1,024-row blocks; a one-file partition of at most 1,024 rows is
one task.  With ``dedup_urls`` the work after the dedup runs as
``max(CPUs, read tasks)`` reducer tasks, at most ``bucket_count()``,
however few blocks the read makes (``quality_filter.dedup_exact_by_url``).
Serializing over partitions buys exact resume: a killed job re-runs only
uncommitted partitions (``tests/test_resume.py`` kills the driver between
partitions and inside a write task, and asserts identical final output
with no recomputation of committed ones).
"""

from __future__ import annotations

import os
import shutil
import time
from collections import Counter
from typing import Any, Iterable

import pyarrow as pa
import pyarrow.compute as pc
from ray.data._internal.datasource.parquet_datasink import ParquetDatasink
from ray.data.block import Block, BlockAccessor
from ray.data.datasource.datasink import WriteResult

import pii_detector_ray
from pii_detector_ray.config import PipelineConfig
from pii_detector_ray.pipelines.quality_filter import build_pipeline, read_pages
from pii_detector_ray.state.manifest import (
    assign_partitions,
    completed_partitions,
    input_fingerprint,
    write_manifest,
)


def _tally(t: pa.Table) -> dict[str, Any]:
    """The manifest's label counts over one table of pipeline output."""
    def value_counts(values: pa.ChunkedArray) -> Counter[str]:
        vc = pc.value_counts(values.drop_null())
        return Counter(dict(zip(vc.field('values').to_pylist(),
                                vc.field('counts').to_pylist())))
    return {
        'rows': t.num_rows,
        'kept': pc.sum(pc.cast(t.column('keep'), pa.int64())).as_py() or 0,
        'drop_reasons': value_counts(t.column('drop_reason')),
        'pii_types': value_counts(pc.struct_field(
            pc.list_flatten(t.column('pii_spans')), 'type')),
    }


def _sum_tallies(tallies: Iterable[dict[str, Any]]) -> dict[str, Any]:
    total = {'rows': 0, 'kept': 0, 'drop_reasons': Counter(), 'pii_types': Counter()}
    for t in tallies:
        for k, v in t.items():
            total[k] += v
    return total


class PartitionSink(ParquetDatasink):
    """``write_parquet``'s sink whose write tasks also count what they write.

    Each write task returns a ``_tally`` of its rows: ``rows``, ``kept``,
    ``drop_reasons`` and ``pii_types`` (span type -> spans).
    ``on_write_complete`` keeps the ``WriteResult``, whose
    ``write_returns`` hold one tally per task.

    Subclasses Ray 2.49's private
    ``ray.data._internal.datasource.parquet_datasink.ParquetDatasink``,
    the class ``Dataset.write_parquet`` builds."""

    result: WriteResult | None = None

    def write(self, blocks: Iterable[Block], ctx) -> dict[str, Any]:
        blocks = list(blocks)
        super().write(blocks, ctx)
        tables = (BlockAccessor.for_block(b).to_arrow() for b in blocks)
        return _sum_tallies(_tally(t) for t in tables if t.num_rows)

    def on_write_complete(self, write_result: WriteResult) -> None:
        super().on_write_complete(write_result)
        self.result = write_result


def _partition_counts(result: WriteResult) -> dict[str, Any]:
    """The manifest's counts: the sum of the write tasks' tallies.

    ``bytes_out`` is the Arrow in-memory size of the rows written, as Ray
    reports it, not the size of the Parquet files."""
    total = _sum_tallies(result.write_returns)
    rows, kept, types = total['rows'], total['kept'], total['pii_types']
    return {'rows': rows, 'kept': kept, 'dropped': rows - kept,
            'drop_reasons': dict(total['drop_reasons']),
            'pii_type_counts': dict(types), 'pii_findings': sum(types.values()),
            'write_tasks': len(result.write_returns),
            'bytes_out': int(result.size_bytes)}


def _check_run_manifest(out_dir: str, num_partitions: int, cfg: PipelineConfig,
                        input_files: list[str]) -> None:
    """Resume safety: a rerun must use the same partition layout, config AND
    input file set as the original run — ``assign_partitions`` is a sorted
    round-robin, so adding/removing/renaming any input file shifts files
    across ALL partitions and committed manifests would silently cover stale
    subsets.  The run-level manifest pins all three; a mismatch fails fast
    instead of silently mixing layouts."""
    import hashlib
    import json
    path = os.path.join(out_dir, 'manifests', '_run.json')
    input_hash = hashlib.sha256(
        '\n'.join(sorted(input_files)).encode()).hexdigest()[:16]
    current = {'num_partitions': num_partitions, 'config_hash': cfg.config_hash(),
               'input_set_hash': input_hash}
    if os.path.exists(path):
        with open(path) as f:
            prior = json.load(f)
        # compare only the keys the prior manifest recorded: a manifest
        # written before a new pin (e.g. input_set_hash) was added must
        # stay resumable; the missing key is backfilled below
        mismatched = {k: (prior[k], current[k]) for k in prior
                      if k in current and prior[k] != current[k]}
        if mismatched:
            raise ValueError(
                f'resume mismatch in {out_dir}: prior run used {prior}, this '
                f'invocation uses {current}; use a fresh --output (or delete '
                f'the manifests) to change partitioning/config')
        if set(current) - set(prior):      # backfill newly-pinned keys
            tmp = path + '.tmp'
            with open(tmp, 'w') as f:
                json.dump(current, f)
            os.replace(tmp, path)
    else:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + '.tmp'
        with open(tmp, 'w') as f:
            json.dump(current, f)
        os.replace(tmp, path)


def run_partitioned(
    input_files: list[str],
    out_dir: str,
    cfg: PipelineConfig | None = None,
    *,
    num_partitions: int | None = None,
    dedup_urls: bool = False,
    keep_only: bool = False,
    fail_after_partitions: int | None = None,
) -> dict[str, Any]:
    """Run (or resume) the flagship pipeline over ``input_files``.

    ``fail_after_partitions`` is a test hook: raise after committing that
    many partitions, simulating a mid-job kill.
    Returns a summary dict {partitions_total, partitions_run, partitions_skipped, rows, kept}.
    """
    cfg = cfg or PipelineConfig()
    parts = assign_partitions(input_files, num_partitions or cfg.num_output_partitions)
    _check_run_manifest(out_dir, len(parts), cfg, input_files)
    done = completed_partitions(out_dir)
    ran = 0
    skipped = 0
    for part_id, files in enumerate(parts):
        if part_id in done:
            skipped += 1
            continue
        if fail_after_partitions is not None and ran >= fail_after_partitions:
            raise RuntimeError(f'injected failure after {ran} partitions')
        part_dir = os.path.join(out_dir, f'part={part_id:05d}')
        if os.path.isdir(part_dir):
            shutil.rmtree(part_dir)   # uncommitted partial output from a crash
        t0 = time.monotonic()
        ds = build_pipeline(read_pages(files), cfg, dedup_urls=dedup_urls, keep_only=keep_only)
        sink = PartitionSink(part_dir, dataset_uuid=ds._uuid)
        ds.write_datasink(sink)
        metrics = _partition_counts(sink.result)
        write_manifest(out_dir, part_id, {
            'part_id': part_id,
            'engine_version': pii_detector_ray.__version__,
            'config_hash': cfg.config_hash(),
            'input': input_fingerprint(files),
            'wall_sec': round(time.monotonic() - t0, 3),
            **metrics,
        })
        ran += 1

    from pii_detector_ray.state.manifest import read_manifest
    totals = {'rows': 0, 'kept': 0}
    for part_id in range(len(parts)):
        m = read_manifest(out_dir, part_id)
        if m:
            totals['rows'] += m['rows']
            totals['kept'] += m['kept']
    return {'partitions_total': len(parts), 'partitions_run': ran,
            'partitions_skipped': skipped, **totals}
