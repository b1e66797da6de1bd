"""Per-partition manifests: the engine's checkpoint/resume + lineage store.

Replaces the reference's externalized chunk-status state machine (per-chunk
``WAIT_FOR_SCAN → IN_PROGRESS → SCANNED`` CAS against an HTTP-API database,
``base_scan_service.py:431-447,874-972``; SURVEY.md §2.7/§4) with plain
files on the output store:

- input files are grouped into N partitions (round-robin by sorted order —
  deterministic across runs);
- each partition's output is written to ``out/part=K/`` and, only after the
  write completes, a manifest ``manifests/part-K.json`` is committed
  atomically (temp file + ``os.replace``);
- on restart the driver anti-joins partitions against existing manifests
  (the reference's ``(full_path, etag)`` already-scanned anti-join, F5) and
  re-runs only the missing ones.  A partition interrupted mid-write has no
  manifest → it reruns and overwrites → exactly-once output.

Each manifest records metrics + lineage: row counts, keep/drop counts,
drop-reason histogram, PII counts per type, the input file list + byte sizes
(fingerprint), the config hash, and the engine version.  The counts come
from the partition's write tasks (``pipelines/runner.PartitionSink``), not
from reading the output back; ``write_tasks`` is how many tasks wrote and
``bytes_out`` the Arrow in-memory bytes they wrote (not Parquet file bytes).
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any

MANIFEST_DIR = 'manifests'


def manifest_path(out_dir: str, part_id: int) -> str:
    return os.path.join(out_dir, MANIFEST_DIR, f'part-{part_id:05d}.json')


def write_manifest(out_dir: str, part_id: int, payload: dict[str, Any]) -> None:
    """Atomic commit: write to a temp file in the same directory, fsync, rename."""
    mdir = os.path.join(out_dir, MANIFEST_DIR)
    os.makedirs(mdir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=mdir, prefix=f'.part-{part_id:05d}.', suffix='.tmp')
    try:
        with os.fdopen(fd, 'w') as f:
            json.dump(payload, f, sort_keys=True, indent=1)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, manifest_path(out_dir, part_id))
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def read_manifest(out_dir: str, part_id: int) -> dict[str, Any] | None:
    path = manifest_path(out_dir, part_id)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def completed_partitions(out_dir: str) -> set[int]:
    mdir = os.path.join(out_dir, MANIFEST_DIR)
    if not os.path.isdir(mdir):
        return set()
    out = set()
    for name in os.listdir(mdir):
        if name.startswith('part-') and name.endswith('.json'):
            out.add(int(name[5:-5]))
    return out


def assign_partitions(input_files: list[str], num_partitions: int) -> list[list[str]]:
    """Deterministic round-robin assignment over the sorted file list."""
    files = sorted(input_files)
    num_partitions = max(1, min(num_partitions, len(files)))
    parts: list[list[str]] = [[] for _ in range(num_partitions)]
    for i, f in enumerate(files):
        parts[i % num_partitions].append(f)
    return parts


def input_fingerprint(files: list[str]) -> list[dict[str, Any]]:
    return [{'path': f, 'bytes': os.path.getsize(f)} for f in sorted(files)]
