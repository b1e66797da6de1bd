"""Spans around each layer's public functions, for the traced run only.

``install()`` replaces the public entry points of each layer with wrappers
that record a span: name, id, parent, trace id, pid, start, wall and CPU
seconds, plus counts taken from the call's arguments and result (taken
after the clock stops).  It runs in the measuring process and, through Ray's
``worker_process_setup_hook``, in every worker, so the stage functions that
Ray Data ships to workers are traced where they execute.

Spans stay in memory while calls are open; when a process's outermost traced
call returns, its finished spans are appended to ``spans-<pid>.jsonl`` in
the trace directory (``PERFBENCH_TRACE_DIR``).  A worker's spans have no
parent in the measuring process: every span carries the run's trace id instead.
"""

from __future__ import annotations

import functools
import glob
import itertools
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

TRACE_DIR_ENV = 'PERFBENCH_TRACE_DIR'
TRACE_ID_ENV = 'PERFBENCH_TRACE_ID'

_finished: list[dict] = []
_open: list[str] = []
_ids = itertools.count()


def flush() -> None:
    """Append finished spans to this process's span file, once no span is open."""
    if _open or not _finished:
        return
    path = os.path.join(os.environ[TRACE_DIR_ENV], f'spans-{os.getpid()}.jsonl')
    with open(path, 'a') as f:
        f.write(''.join(json.dumps(s) + '\n' for s in _finished))
    _finished.clear()


@contextmanager
def span(name: str):
    """Record one span.  Counts may be added to the yielded dict until the
    next ``flush()``, so they can be taken after the clock stops."""
    sp = {'name': name, 'id': f'{os.getpid()}-{next(_ids)}',
          'parent': _open[-1] if _open else None,
          'trace': os.environ.get(TRACE_ID_ENV), 'pid': os.getpid(),
          'start': time.time()}
    _open.append(sp['id'])
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        yield sp
    finally:
        sp['wall_s'] = time.perf_counter() - t0
        sp['cpu_s'] = time.process_time() - c0
        _open.pop()
        _finished.append(sp)


def traced(name: str, fn, count=None):
    """``fn`` inside a span; ``count(args, result)`` returns the span's counts."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with span(name) as sp:
            out = fn(*args, **kwargs)
        if count is not None:
            sp.update(count(args, out))
        flush()
        return out
    return wrapper


def traced_factory(name: str, factory, count=None):
    """A stage factory whose returned batch callable is traced as ``name``."""
    @functools.wraps(factory)
    def wrapper(*args, **kwargs):
        return traced(name, factory(*args, **kwargs), count)
    return wrapper


class Tally:
    """A pass-through ``map_batches`` stage that counts the rows crossing a
    point in the plan.  Each span carries a batch key, so a re-executed
    upstream (the url dedup runs its input twice) is counted once."""

    def __init__(self, name: str):
        self.name = name

    def __call__(self, batch):
        with span(self.name) as sp:
            sp['rows'] = len(batch)
            if len(batch):
                sp['key'] = f"{batch.column('url')[0]}|{batch.column('url')[-1]}|{len(batch)}"
        flush()
        return batch


# --------------------------------------------------------------------------
# counts per layer
# --------------------------------------------------------------------------

def _rows_of_batch(args, out) -> dict:
    return {'rows': len(args[0]), 'rows_out': len(out)}


def _extract_counts(args, out) -> dict:
    return {'rows': len(args[0]), 'html_rows': args[0].column('text').null_count}


def _texts_counts(args, out) -> dict:
    return {'rows': len(args[1])}


def _list_counts(args, out) -> dict:
    return {'rows': len(args[0])}


def _keepdrop_counts(args, out) -> dict:
    keep = out[0]
    return {'rows': len(keep), 'kept': int(keep.sum())}


def _scrub_counts(args, out) -> dict:
    import pyarrow.compute as pc
    n_pii = out.column('n_pii')
    return {'rows': len(out), 'spans': int(pc.sum(n_pii).as_py() or 0),
            'docs_with_pii': int(pc.sum(pc.greater(n_pii, 0)).as_py() or 0)}


def _traced_dedup(orig):
    @functools.wraps(orig)
    def wrapper(ds, *args, **kwargs):
        ds = ds.map_batches(Tally('dedup.rows_in'), batch_format='pyarrow')
        with span('dedup_exact_by_url'):
            out = orig(ds, *args, **kwargs)
        flush()
        return out.map_batches(Tally('dedup.rows_out'), batch_format='pyarrow')
    return wrapper


_installed = False


def install() -> None:
    """Wrap each layer's public functions in this process (idempotent)."""
    global _installed
    if _installed:
        return
    _installed = True
    from pii_detector_ray.pipelines import quality_filter, rescan
    from pii_detector_ray.stages import extract, heuristics, keepdrop, repetition, scorers, scrub

    url_filter = traced_factory('make_url_filter', extract.make_url_filter, _rows_of_batch)
    extract_batch = traced('extract_batch', extract.extract_batch, _extract_counts)
    scrub_stage = traced_factory('make_scrub_stage', scrub.make_scrub_stage, _scrub_counts)
    extract.make_url_filter = quality_filter.make_url_filter = url_filter
    extract.extract_batch = quality_filter.extract_batch = extract_batch
    scrub.make_scrub_stage = quality_filter.make_scrub_stage = scrub_stage
    rescan.make_scrub_stage = scrub_stage
    heuristics.heuristics_arrays = traced('heuristics_arrays', heuristics.heuristics_arrays,
                                          _texts_counts)
    repetition.repetition_arrays = traced('repetition_arrays', repetition.repetition_arrays,
                                          _list_counts)
    keepdrop.keepdrop_arrays = traced('keepdrop_arrays', keepdrop.keepdrop_arrays,
                                      _keepdrop_counts)
    scorers.QualityScorers.score_arrays = traced(
        'QualityScorers.score_arrays', scorers.QualityScorers.score_arrays, _texts_counts)
    quality_filter.dedup_exact_by_url = _traced_dedup(quality_filter.dedup_exact_by_url)

    import ray.data
    ray.data.Dataset.materialize = _traced_execute(ray.data.Dataset.materialize)
    ray.data.Dataset.write_parquet = _traced_write(ray.data.Dataset.write_parquet)


def _traced_execute(orig):
    """``materialize`` (which ``write_parquet`` also runs) followed by the
    operators' own time from Ray Data's stats of that execution."""
    @functools.wraps(orig)
    def wrapper(self, *args, **kwargs):
        with span('ray_data.execute') as sp:
            out = orig(self, *args, **kwargs)
        sp.update(operator_times(out))
        flush()
        return out
    return wrapper


def _traced_write(orig):
    """``write_parquet`` with the bytes it wrote."""
    @functools.wraps(orig)
    def wrapper(self, path, *args, **kwargs):
        with span('write_parquet') as sp:
            out = orig(self, path, *args, **kwargs)
        sp['bytes'] = sum(os.path.getsize(f) for f in
                          glob.glob(os.path.join(path, '**', '*.parquet'), recursive=True))
        flush()
        return out
    return wrapper


def operator_times(ds) -> dict:
    """Own time (task wall time minus UDF time, summed over tasks) of the
    read, write, and join/aggregate operators of one Ray Data execution.
    Inputs that were materialized earlier show as a ``Read`` of ~0 s, so
    no execution is counted twice."""
    times = {'read_wall_s': 0.0, 'write_wall_s': 0.0, 'join_agg_wall_s': 0.0}
    pending = [ds._get_stats_summary()]
    while pending:
        summary = pending.pop()
        pending.extend(summary.parents)
        for op in summary.operators_stats:
            own = (op.wall_time or {}).get('sum', 0.0) - (op.udf_time or {}).get('sum', 0.0)
            name = op.operator_name
            if 'ReadParquet' in name:
                times['read_wall_s'] += own
            if 'Write' in name:
                times['write_wall_s'] += own
            if name.startswith(('Join', 'Aggregate')):
                times['join_agg_wall_s'] += own
    return times


# --------------------------------------------------------------------------
# reading spans back
# --------------------------------------------------------------------------

def load_spans(trace_dir: str) -> list[dict]:
    spans = []
    for path in sorted(glob.glob(os.path.join(trace_dir, 'spans-*.jsonl'))):
        with open(path) as f:
            spans += [json.loads(line) for line in f if line.strip()]
    return spans


def aggregate(spans: list[dict]) -> dict[str, dict]:
    """Sum calls, wall, CPU and counts per span name.  Tally spans count each
    batch key once."""
    out: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    seen: set = set()
    for s in spans:
        if 'key' in s:
            if (s['name'], s['key']) in seen:
                continue
            seen.add((s['name'], s['key']))
        agg = out[s['name']]
        agg['calls'] += 1
        for k, v in s.items():
            if (k not in ('start', 'pid') and isinstance(v, (int, float))
                    and not isinstance(v, bool)):
                agg[k] += v
    return {k: dict(v) for k, v in out.items()}
