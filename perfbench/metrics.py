"""Metric declarations and the one function that turns raw events into them.

The measured process (``child.py``) emits raw facts as events; the
supervisor (``run.py``) folds them here into the result line.  Keeping the
arithmetic in one pure module lets the harness tests check every declared
metric and the failure accounting without starting Ray.

Event shapes (one JSON object per line, see ``child.emit``):

- ``{"ev": "info", "nproc": .., "ray_cpus": .., "docs": ..}``
- ``{"ev": "setup", "s": ..}`` — one per set-up (``ray.init`` + warm-up)
- ``{"ev": "start", "job": i, "deadline_s": ..}`` — a job began
- ``{"ev": "job", "job": i, "wall_s": .., "ok": .., "quality": {..},
  "facts": {..}, "rss_mb": .., "busy_frac": .., "cpu_s": ..}`` — a job ended
  and was checked; ``cpu_s`` is the CPU time of the measuring process and the Ray workers
- ``{"ev": "layers", "spans": {..}, "facts": {..}, "overhead_s": ..,
  "digest_match": ..}`` — the traced run's per-layer aggregates
- ``{"ev": "killed", "job": i | null, "deadline_s": ..}`` — written by the
  supervisor when it killed the measured process at a deadline
- ``{"ev": "done"}``
"""

from __future__ import annotations

import statistics

WORKLOADS = ('webtext_default', 'html_gopher', 'dedup_resume', 'gate_queries')
GATE_QUERIES = ('event_markov2', 'value_time_spearman', 'weighted_median_price',
                'events_segment_join', 'scrub_documents')

# north rule: keep/drop and span F1 and text identity at or above this
QUALITY_FLOOR = 0.99

END_TO_END = {
    'docs_per_s': '1/s',
    'setup_s': 's',
    'peak_rss_mb': 'MB',
    'oracle_match_frac': 'frac',
}

PER_LAYER = {
    'extract.url_filter.cpu_s_per_1k': 's/1k',
    'extract.cpu_s_per_1k': 's/1k',
    'extract.html_rows_frac': 'frac',
    'heuristics.cpu_s_per_1k': 's/1k',
    'repetition.cpu_s_per_1k': 's/1k',
    'scorers.cpu_s_per_1k': 's/1k',
    'keepdrop.cpu_s_per_1k': 's/1k',
    'keepdrop.kept_frac': 'frac',
    'scrub.cpu_s_per_1k': 's/1k',
    'scrub.spans_per_1k': 'count/1k',
    'scrub.docs_with_pii_frac': 'frac',
    'sources.read_wall_s': 's',
    'write.wall_s': 's',
    'write.bytes': 'B',
    'dedup.wall_s': 's',
    'dedup.rows_in': 'count',
    'dedup.rows_out': 'count',
    'runner.partition_wall_s': 's',
    'runner.partitions_run': 'count',
    'runner.partitions_skipped': 'count',
    'runner.resume_wall_s': 's',
    'runner.recompute_frac': 'frac',
    'rescan.wall_s': 's',
    'rescan.rows_hit': 'count',
    'rescan.docs_per_s': '1/s',
    **{f'queries.{q}.wall_s': 's' for q in GATE_QUERIES},
    'queries.wall_s': 's',
    'ray.busy_frac': 'frac',
    'trace.overhead_s': 's',
}

# span name -> per-layer prefix, for the CPU-per-1k-docs metrics
CPU_LAYERS = {
    'make_url_filter': 'extract.url_filter',
    'extract_batch': 'extract',
    'heuristics_arrays': 'heuristics',
    'repetition_arrays': 'repetition',
    'QualityScorers.score_arrays': 'scorers',
    'keepdrop_arrays': 'keepdrop',
    'make_scrub_stage': 'scrub',
}

# spans a workload's traced run must produce, each with rows where it counts
# them; a traced run that misses one is failed, as its metrics would read 0
_PIPELINE_SPANS = ('make_url_filter', 'extract_batch', 'heuristics_arrays',
                   'QualityScorers.score_arrays', 'keepdrop_arrays', 'make_scrub_stage',
                   'ray_data.execute', 'write_parquet')
REQUIRED_SPANS = {
    'webtext_default': _PIPELINE_SPANS,
    'html_gopher': _PIPELINE_SPANS + ('repetition_arrays',),
    'dedup_resume': _PIPELINE_SPANS + ('dedup_exact_by_url', 'dedup.rows_in', 'dedup.rows_out',
                                       'run_partitioned', 'rescan_output'),
    'gate_queries': ('make_scrub_stage',) + tuple(f'queries.{q}' for q in GATE_QUERIES),
}


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def missing_spans(workload: str, spans: dict) -> list[str]:
    """Required spans of ``workload`` that are absent or counted no rows."""
    return [name for name in REQUIRED_SPANS[workload]
            if name not in spans or spans[name].get('rows', 1) <= 0]


def per_layer(spans: dict, facts: dict, docs: int, overhead_s: float,
              busy_frac: float) -> dict[str, float]:
    """Per-layer metrics from the traced run's span aggregates.

    ``spans`` maps a span name to summed ``calls``, ``wall_s``, ``cpu_s``,
    ``rows`` and named counts; ``facts`` carries what the job read from the
    program's own outputs (manifests, written bytes, Ray Data stats).  Layers
    a workload does not exercise report 0.

    ``sources.read_wall_s``, ``write.wall_s`` and ``dedup.wall_s`` are
    operator times from Ray Data's stats (task wall time minus UDF time,
    summed over tasks, so they can exceed the job's wall time):
    ``dedup.wall_s`` is that of the url dedup's Join and Aggregate operators
    in every execution the job ran, except the aggregate that
    ``dedup_exact_by_url`` executes through ``count()``, which records no
    operator stats."""
    per_1k = docs / 1000.0
    out: dict[str, float] = {}
    for span_name, prefix in CPU_LAYERS.items():
        out[f'{prefix}.cpu_s_per_1k'] = _frac(spans.get(span_name, {}).get('cpu_s', 0.0), per_1k)
    ext = spans.get('extract_batch', {})
    out['extract.html_rows_frac'] = _frac(ext.get('html_rows', 0), ext.get('rows', 0))
    kd = spans.get('keepdrop_arrays', {})
    out['keepdrop.kept_frac'] = _frac(kd.get('kept', 0), kd.get('rows', 0))
    sc = spans.get('make_scrub_stage', {})
    out['scrub.spans_per_1k'] = _frac(sc.get('spans', 0), sc.get('rows', 0) / 1000.0)
    out['scrub.docs_with_pii_frac'] = _frac(sc.get('docs_with_pii', 0), sc.get('rows', 0))
    out['sources.read_wall_s'] = float(facts.get('read_wall_s', 0.0))
    out['write.wall_s'] = float(facts.get('write_wall_s', 0.0))
    out['write.bytes'] = float(facts.get('write_bytes', 0))
    out['dedup.wall_s'] = float(facts.get('dedup_wall_s', 0.0))
    out['dedup.rows_in'] = float(facts.get('dedup_rows_in', 0))
    out['dedup.rows_out'] = float(facts.get('dedup_rows_out', 0))
    out['runner.partition_wall_s'] = float(facts.get('partition_wall_s', 0.0))
    out['runner.partitions_run'] = float(facts.get('partitions_run', 0))
    out['runner.partitions_skipped'] = float(facts.get('partitions_skipped', 0))
    out['runner.resume_wall_s'] = float(facts.get('resume_s', 0.0))
    out['runner.recompute_frac'] = float(facts.get('recompute_frac', 0.0))
    out['rescan.wall_s'] = float(facts.get('rescan_s', 0.0))
    out['rescan.rows_hit'] = float(facts.get('rescan_rows_hit', 0))
    out['rescan.docs_per_s'] = _frac(facts.get('rescan_rows_in', 0), facts.get('rescan_s', 0.0))
    total = 0.0
    for q in GATE_QUERIES:
        wall = float(spans.get(f'queries.{q}', {}).get('wall_s', 0.0))
        out[f'queries.{q}.wall_s'] = wall
        total += wall
    out['queries.wall_s'] = total
    out['ray.busy_frac'] = float(busy_frac)
    out['trace.overhead_s'] = float(overhead_s)
    return out


def summarize(workload: str, trace: bool, events: list[dict]) -> dict | None:
    """Fold the events of one run into ``{"report": .., "final": ..}``.

    Returns None when nothing was measured (the program could not even be
    set up), so the caller exits non-zero without printing a result.

    Failure accounting: every started job is attempted; a job fails when it
    raised, returned a wrong output, or was killed at its deadline.  A killed
    job's wall time is its deadline, so a hang reads as slow as well as
    failed."""
    info = next((e for e in events if e['ev'] == 'info'), None)
    setups = [e['s'] for e in events if e['ev'] == 'setup']
    jobs = {e['job']: e for e in events if e['ev'] == 'job'}
    started = {e['job']: e for e in events if e['ev'] == 'start'}
    killed = next((e for e in events if e['ev'] == 'killed'), None)
    if info is None or not setups or not started:
        return None
    docs = int(info['docs'])

    walls: list[float] = []
    failed = 0
    for i, start in started.items():
        job = jobs.get(i)
        if job is None:         # raised without a report, or killed
            failed += 1
            walls.append(float(start['deadline_s']))
            continue
        if not job['ok']:
            failed += 1
        walls.append(float(job['wall_s']))
    # the whole run passed its deadline between jobs: one more attempt, failed
    between_jobs = int(killed is not None and killed.get('job') is None)
    failed += between_jobs
    attempted = len(started) + between_jobs

    done = [jobs[i] for i in sorted(jobs)]
    quality = [j['quality'] for j in done]
    match = _median([q['oracle_match_frac'] for q in quality])
    final_metrics: dict[str, float]
    missing: list[str] = []
    if trace:
        layers = next((e for e in events if e['ev'] == 'layers'), None)
        if layers is None:
            failed += 1
            final_metrics = per_layer({}, {}, docs, 0.0, 0.0)
        else:
            missing = missing_spans(workload, layers['spans'])
            failed += int(not layers['digest_match']) + int(bool(missing))
            final_metrics = per_layer(layers['spans'], layers['facts'], docs,
                                      layers['overhead_s'], layers['busy_frac'])
        units = PER_LAYER
    else:
        final_metrics = {
            'docs_per_s': _median([docs / w for w in walls if w > 0]),
            'setup_s': _median(setups),
            'peak_rss_mb': _median([j['rss_mb'] for j in done]),
            'oracle_match_frac': match,
        }
        units = END_TO_END

    correct = failed == 0 and bool(done)
    report = {
        'workload': workload,
        'trace': int(trace),
        'nproc': info['nproc'],
        'ray_num_cpus': info['ray_cpus'],
        'docs': docs,
        'prepare_s': info.get('prepare_s'),
        'jobs': len(started),
        'job_wall_s': [round(w, 4) for w in walls],
        'setup_s': setups,
        'failed_frac': _frac(failed, attempted),
        'killed_at_deadline': killed is not None,
    }
    if trace:
        report['missing_spans'] = missing
    for key in ('keepdrop_f1', 'span_f1', 'text_identical_frac', 'oracle_match_frac',
                'rescan_match_frac'):
        vals = [q[key] for q in quality if key in q]
        if vals:
            report[key] = min(vals)
    fact_keys = ('resume_s', 'rescan_docs_per_s', 'queries_s', 'recompute_frac')
    for key in fact_keys:
        vals = [j['facts'][key] for j in done if key in j.get('facts', {})]
        if vals:
            report[key] = _median(vals)
    report['cpu_s_per_1k'] = _median([j['cpu_s'] for j in done]) / (docs / 1000.0)
    per_query = [j['facts']['query_wall_s'] for j in done if 'query_wall_s' in j.get('facts', {})]
    if per_query:
        report['query_wall_s'] = {q: _median([w[q] for w in per_query]) for q in per_query[0]}
    final = {
        'correct': correct,
        'attempted': attempted,
        'failed': failed,
        'metrics': {name: {'value': final_metrics[name], 'unit': unit}
                    for name, unit in units.items()},
    }
    return {'report': report, 'final': final}
