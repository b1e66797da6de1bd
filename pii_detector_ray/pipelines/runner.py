"""Resumable partitioned runner for the flagship pipeline.

Execution model (SURVEY.md §4 'Checkpoint / resume'): input files →
deterministic partitions → for each partition not yet committed, run the
streaming pipeline over that partition's files, write ``out/part=K/``,
aggregate partition metrics, then atomically commit the manifest.  A
partition is read by ``quality_filter.read_pages``: one task per file when
its files number at least ``min(CPUs, ceil(rows / 1024))``, else its files
split into ``min(2 x CPUs, ceil(rows / 1024))`` blocks.  So a partition
of fewer files than CPUs fills the cluster only when its rows make enough
1,024-row blocks; a one-file partition of at most 1,024 rows is one task.
Serializing over partitions buys exact resume: a killed job re-runs only
uncommitted partitions (``tests/test_resume.py`` kills between partitions
and asserts identical final output with no recomputation of committed
ones).
"""

from __future__ import annotations

import os
import shutil
import time
from typing import Any

import pyarrow as pa
import ray.data

from pii_detector_ray.sources.pqread import read_parquet_clean

import pii_detector_ray
from pii_detector_ray.config import PipelineConfig
from pii_detector_ray.pipelines.quality_filter import build_pipeline, read_pages
from pii_detector_ray.state.manifest import (
    assign_partitions,
    completed_partitions,
    input_fingerprint,
    write_manifest,
)


def _partition_metrics(part_dir: str) -> dict[str, Any]:
    """Distributed rollup over the partition's (small) label columns."""
    # a partition whose rows were ALL filtered writes no files at all
    # (write_parquet creates nothing for an empty dataset) — commit zeros
    if not os.path.isdir(part_dir) or not os.listdir(part_dir):
        return {'rows': 0, 'kept': 0, 'dropped': 0, 'drop_reasons': {},
                'pii_type_counts': {}, 'pii_findings': 0}
    ds = read_parquet_clean(part_dir, columns=['keep', 'drop_reason', 'pii_spans'])

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        keep = batch.column('keep')
        reasons = batch.column('drop_reason')
        span_types = pc.struct_field(pc.list_flatten(batch.column('pii_spans')), 'type') \
            if len(batch) else pa.array([], pa.string())
        reason_counts = pa.table({'v': reasons.drop_null()}) \
            .group_by('v').aggregate([('v', 'count')])
        type_counts = pa.table({'v': span_types}).group_by('v').aggregate([('v', 'count')])
        import json as _json
        return pa.table({
            'rows': pa.array([len(batch)], pa.int64()),
            'kept': pa.array([pc.sum(pc.cast(keep, pa.int64())).as_py() or 0], pa.int64()),
            'reason_json': pa.array([_json.dumps(
                dict(zip(reason_counts.column('v').to_pylist(),
                         reason_counts.column('v_count').to_pylist())))], pa.string()),
            'types_json': pa.array([_json.dumps(
                dict(zip(type_counts.column('v').to_pylist(),
                         type_counts.column('v_count').to_pylist())))], pa.string()),
        })

    import json as _json
    partials = ds.map_batches(partial, batch_format='pyarrow').take_all()
    rows = sum(p['rows'] for p in partials)
    kept = sum(p['kept'] for p in partials)
    reasons: dict[str, int] = {}
    types: dict[str, int] = {}
    for p in partials:
        for k, v in _json.loads(p['reason_json']).items():
            reasons[k] = reasons.get(k, 0) + v
        for k, v in _json.loads(p['types_json']).items():
            types[k] = types.get(k, 0) + v
    return {'rows': rows, 'kept': kept, 'dropped': rows - kept,
            'drop_reasons': reasons, 'pii_type_counts': types,
            'pii_findings': sum(types.values())}


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
        ds.write_parquet(part_dir)
        metrics = _partition_metrics(part_dir)
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
