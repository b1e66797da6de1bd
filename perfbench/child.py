"""The measured process: set up Ray, run one workload's jobs, check each.

Started by ``run.py`` as the leader of its own session; it reports raw facts
as ``@perfbench {json}`` lines on stdout (shapes in ``metrics.py``) and
leaves the arithmetic of the result to the supervisor.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
import traceback

from perfbench import inputs, metrics, oracles, procfs, tracing

EVENT_PREFIX = '@perfbench '
# per-job deadlines; a job past its deadline is killed and counted failed
DEADLINE_S = {'webtext_default': 60.0, 'html_gopher': 60.0,
              'dedup_resume': 100.0, 'gate_queries': 100.0}
# gate_queries' tables are fixed, so its ~15 s job is the run's only
# variable; one job per run spread 0.16 (IQR/median) across runs
MIN_JOBS = {'gate_queries': 2}
DEDUP_PARTITIONS = inputs.DEDUP_SHARDS      # one input shard per partition
RESCAN_ONLY = ['EMAIL_ADDRESS']
# Unix socket paths under Ray's temp dir must stay below 108 bytes
MAX_RAY_TEMP_DIR = 45
# how long a warm-up task waits for the others to reach their workers
WARM_BARRIER_S = 60.0


def emit(ev: str, **fields) -> None:
    print(EVENT_PREFIX + json.dumps({'ev': ev, **fields}), flush=True)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def gopher_config():
    from pii_detector_ray.config import PipelineConfig, QualityThresholds
    return PipelineConfig(thresholds=QualityThresholds(
        max_top_2gram_char_frac=0.20, max_top_3gram_char_frac=0.18,
        max_top_4gram_char_frac=0.16, max_dup_5gram_char_frac=0.15,
        max_dup_10gram_char_frac=0.10))


# --------------------------------------------------------------------------
# inputs and oracles, outside every timed window
# --------------------------------------------------------------------------

def prepare(workload: str, seed: int, cache_root: str) -> dict:
    """Inputs, expected outputs and the doc count of one workload, cached."""
    from pii_detector_ray.config import PipelineConfig
    if workload == 'gate_queries':
        seed = inputs.GATE_SEED               # fixed tables: the seed has no effect
    cache = inputs.cache_dir(cache_root, workload, seed)
    os.makedirs(cache, exist_ok=True)
    oracle_path = os.path.join(cache, 'oracle.json')
    if workload == 'gate_queries':
        tables = inputs.gate_tables(cache, seed)
        frames_path = os.path.join(cache, 'oracle.parquet.d')
        if not os.path.exists(frames_path + '.done'):
            import pyarrow as pa
            import pyarrow.parquet as pq
            os.makedirs(frames_path, exist_ok=True)
            for name, df in oracles.gate_oracle(tables, metrics.GATE_QUERIES).items():
                pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                               os.path.join(frames_path, f'{name}.parquet'))
            open(frames_path + '.done', 'w').close()
        import pyarrow.parquet as pq
        expected = {n: oracles.normalize(pq.read_table(os.path.join(frames_path, f'{n}.parquet'))
                                         .to_pandas())
                    for n in metrics.GATE_QUERIES}
        rows = {t: pq.ParquetFile(os.path.join(tables, f'{t}.parquet')).metadata.num_rows
                for t in ('events', 'lineitem', 'documents')}
        # event_markov2, value_time_spearman and events_segment_join read events
        docs = 3 * rows['events'] + rows['lineitem'] + rows['documents']
        return {'tables': tables, 'expected': expected, 'docs': docs,
                'warm_file': os.path.join(tables, 'documents.parquet')}

    pages = inputs.pages_input(cache, workload, seed)
    cfg = gopher_config() if workload == 'html_gopher' else PipelineConfig()
    dedup = workload == 'dedup_resume'
    if not os.path.exists(oracle_path):
        oracle = oracles.pipeline_oracle(pages, cfg, dedup=dedup, keep_only=dedup)
        if dedup:
            oracle['rescan'] = oracles.rescan_oracle(oracle['rows'], RESCAN_ONLY)
        tmp = oracle_path + '.tmp'
        with open(tmp, 'w') as f:
            json.dump(oracle, f)
        os.replace(tmp, oracle_path)
    with open(oracle_path) as f:
        oracle = json.load(f)
    files = sorted(glob.glob(os.path.join(pages, '*.parquet')))
    import pyarrow.parquet as pq
    docs = sum(pq.ParquetFile(p).metadata.num_rows for p in files)
    return {'pages': pages, 'files': files, 'cfg': cfg, 'oracle': oracle,
            'docs': docs, 'warm_file': files[0]}


# --------------------------------------------------------------------------
# Ray session
# --------------------------------------------------------------------------

def start_ray(ncpus: int, root: str, trace_env: dict | None = None) -> None:
    import ray
    kwargs = {}
    temp_dir = os.path.join(root, '.pbray')
    if len(temp_dir) <= MAX_RAY_TEMP_DIR:
        kwargs['_temp_dir'] = temp_dir
    else:
        print(f'perfbench: {temp_dir} is too long for Ray sockets; using its default',
              file=sys.stderr)
    if trace_env is not None:
        kwargs['runtime_env'] = {'env_vars': trace_env,
                                 'worker_process_setup_hook': 'perfbench.tracing.install'}
    ray.init(address='local', num_cpus=ncpus, include_dashboard=False,
             logging_level='ERROR', log_to_driver=False,
             object_store_memory=256 * 1024 * 1024, **kwargs)
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False


def import_main_modules() -> None:
    """This process's own imports, done before any set-up is timed so that
    ``setup_s`` is Ray's start and the workers' warm-up alone."""
    import ray.data  # noqa: F401

    import pii_detector_ray.pipelines.quality_filter  # noqa: F401
    import pii_detector_ray.pipelines.rescan  # noqa: F401
    import pii_detector_ray.pipelines.runner  # noqa: F401
    import pii_detector_ray.queries  # noqa: F401


def warm_up(ncpus: int, warm_file: str, barrier_dir: str) -> None:
    """Import the stage modules and build the scorer models in every worker,
    then push one small file through Ray Data.

    Each of the ``ncpus`` warm tasks holds its CPU until all of them have
    started (a file barrier in ``barrier_dir``); a worker runs one task at a
    time, so they can only all start on ``ncpus`` distinct workers."""
    import ray
    import ray.data

    @ray.remote
    def warm(barrier_dir: str, n: int) -> int:
        import pii_detector_ray.pipelines.quality_filter  # noqa: F401
        import pii_detector_ray.pipelines.rescan  # noqa: F401
        import pii_detector_ray.pipelines.runner  # noqa: F401
        import pii_detector_ray.queries  # noqa: F401
        from pii_detector_ray.stages.scorers import QualityScorers
        QualityScorers.process_cached()
        open(os.path.join(barrier_dir, str(os.getpid())), 'w').close()
        t_end = time.monotonic() + WARM_BARRIER_S
        while len(os.listdir(barrier_dir)) < n and time.monotonic() < t_end:
            time.sleep(0.005)
        return os.getpid()

    pids = ray.get([warm.remote(barrier_dir, ncpus) for _ in range(ncpus)])
    if len(set(pids)) < ncpus:
        raise RuntimeError(f'warm-up reached {len(set(pids))} of {ncpus} workers')
    ray.data.read_parquet(warm_file).map_batches(lambda t: t, batch_format='pyarrow') \
        .materialize()


def set_up(ncpus: int, root: str, warm_file: str, run_dir: str,
           trace_env: dict | None = None) -> float:
    barrier_dir = tempfile.mkdtemp(prefix='warm-', dir=run_dir)
    t0 = time.perf_counter()
    start_ray(ncpus, root, trace_env)
    warm_up(ncpus, warm_file, barrier_dir)
    wall = time.perf_counter() - t0
    shutil.rmtree(barrier_dir)
    return wall


# --------------------------------------------------------------------------
# jobs: each returns (wall_s, facts, outputs) and is timed from first read to
# last committed write
# --------------------------------------------------------------------------

def _span(name: str):
    return tracing.span(name) if tracing._installed else contextlib.nullcontext()


def pipeline_job(ctx: dict, run_dir: str) -> tuple[float, dict, dict]:
    from pii_detector_ray.pipelines.quality_filter import build_pipeline, read_pages
    out = os.path.join(run_dir, 'out')
    shutil.rmtree(out, ignore_errors=True)
    t0 = time.perf_counter()
    with _span('job'):
        build_pipeline(read_pages(ctx['pages']), ctx['cfg']).write_parquet(out)
    return time.perf_counter() - t0, {}, {'out': out}


def dedup_resume_job(ctx: dict, run_dir: str) -> tuple[float, dict, dict]:
    from pii_detector_ray.config import PipelineConfig
    from pii_detector_ray.pipelines.rescan import rescan_output
    from pii_detector_ray.pipelines.runner import run_partitioned
    from pii_detector_ray.state.manifest import completed_partitions, manifest_path, read_manifest
    out = os.path.join(run_dir, 'dedup')
    rescan_out = os.path.join(run_dir, 'rescan')
    for d in (out, rescan_out):
        shutil.rmtree(d, ignore_errors=True)
    kwargs = dict(num_partitions=DEDUP_PARTITIONS, dedup_urls=True, keep_only=True)
    t0 = time.perf_counter()
    with _span('job'):
        killed = False
        with _span('run_partitioned'):
            try:
                run_partitioned(ctx['files'], out, ctx['cfg'],
                                fail_after_partitions=DEDUP_PARTITIONS // 2, **kwargs)
            except RuntimeError as e:
                if not str(e).startswith('injected failure'):
                    raise
                killed = True
        t1 = time.perf_counter()
        committed = completed_partitions(out)
        stamps = {p: os.stat(manifest_path(out, p)).st_mtime_ns for p in committed}
        with _span('run_partitioned'):
            summary = run_partitioned(ctx['files'], out, ctx['cfg'], **kwargs)
        t2 = time.perf_counter()
        with _span('rescan_output'):
            rescan_output(out, PipelineConfig(rescan_only=RESCAN_ONLY)).write_parquet(rescan_out)
        t3 = time.perf_counter()
    rerun = sum(1 for p, m in stamps.items() if os.stat(manifest_path(out, p)).st_mtime_ns != m)
    manifests = [read_manifest(out, p) for p in range(summary['partitions_total'])]
    rescan_table = oracles.read_output(rescan_out, ['url'])
    facts = {
        'injected_kill': killed,
        'committed_before_resume': len(committed),
        'resume_s': t2 - t1,
        'rescan_s': t3 - t2,
        'rescan_rows_in': summary['rows'],
        'rescan_rows_hit': 0 if rescan_table is None else len(rescan_table),
        'rescan_docs_per_s': summary['rows'] / (t3 - t2),
        'partitions_run': summary['partitions_run'],
        'partitions_skipped': summary['partitions_skipped'],
        'partition_wall_s': sum(m['wall_sec'] for m in manifests if m),
        'recompute_frac': rerun / len(committed) if committed else 1.0,
    }
    return t3 - t0, facts, {'out': out, 'rescan': rescan_out}


def gate_job(ctx: dict, run_dir: str) -> tuple[float, dict, dict]:
    import pandas as pd

    from pii_detector_ray.queries import queries
    registry = queries()
    frames, walls = {}, {}
    with _span('job'):
        for name in metrics.GATE_QUERIES:
            t0 = time.perf_counter()
            with _span(f'queries.{name}'):
                result = registry[name](ctx['tables'])
                frames[name] = result if isinstance(result, pd.DataFrame) else result.to_pandas()
            walls[name] = time.perf_counter() - t0
    total = sum(walls.values())
    return total, {'queries_s': total, 'query_wall_s': walls}, {'frames': frames}


JOBS = {'webtext_default': pipeline_job, 'html_gopher': pipeline_job,
        'dedup_resume': dedup_resume_job, 'gate_queries': gate_job}


# --------------------------------------------------------------------------
# checks and digests, outside the timed window
# --------------------------------------------------------------------------

def check(workload: str, ctx: dict, facts: dict, outputs: dict) -> tuple[dict, bool]:
    """Quality scores of one job's output and whether it is correct."""
    if workload == 'gate_queries':
        ok = [oracles.frames_equal(oracles.normalize(outputs['frames'][n]), ctx['expected'][n])
              for n in metrics.GATE_QUERIES]
        quality = {'oracle_match_frac': sum(ok) / len(ok)}
        return quality, oracles.passes(quality) and all(ok)
    oracle = ctx['oracle']
    rows, n_rows, n_urls = oracles.sampled_output(
        sorted(glob.glob(os.path.join(outputs['out'], 'part=*'))) or outputs['out'])
    quality = oracles.compare_rows(oracle['rows'], rows)
    if workload != 'dedup_resume':
        return quality, oracles.passes(quality) and n_rows == oracle['rows_passing']
    table = oracles.read_output(outputs['rescan'], ['url', 'scrubbed_text', 'n_pii'])
    got = {} if table is None else {
        r['url']: r for r in table.to_pylist() if oracles.sampled(r['url'])}
    exp = {r['url']: r for r in oracle['rescan']}
    quality['rescan_match_frac'] = oracles.identical_frac(
        exp, {u: {k: r[k] for k in ('url', 'scrubbed_text', 'n_pii')} for u, r in got.items()})
    ok = (oracles.passes(quality) and n_rows == n_urls and facts['injected_kill']
          and facts['recompute_frac'] == 0
          and facts['partitions_skipped'] == facts['committed_before_resume'])
    return quality, ok


def digest(workload: str, outputs: dict) -> str:
    if workload == 'gate_queries':
        return oracles.frame_digest({n: oracles.normalize(f) for n, f in outputs['frames'].items()})
    keys = ['url', 'warc_ts', 'extracted_text']
    parts = [oracles.table_digest(oracles.read_output(outputs['out']), keys)]
    if 'rescan' in outputs:
        parts.append(oracles.table_digest(oracles.read_output(outputs['rescan']), ['url']))
    return '-'.join(parts)


# --------------------------------------------------------------------------
# one job, measured
# --------------------------------------------------------------------------

def run_job(i: int, workload: str, ctx: dict, run_dir: str, want_digest: bool) -> dict | None:
    """Run, time and check one job; emit its events.  Returns the job record,
    or None when the job or its check raised."""
    emit('start', job=i, deadline_s=DEADLINE_S[workload])
    try:
        c0 = time.process_time()
        with procfs.JobMeter(os.getsid(0)) as meter:
            wall, facts, outputs = JOBS[workload](ctx, run_dir)
        main_cpu_s = time.process_time() - c0
        quality, ok = check(workload, ctx, facts, outputs)
    except Exception:
        traceback.print_exc()
        emit('job', job=i, ok=False, wall_s=DEADLINE_S[workload],
             quality={'oracle_match_frac': 0.0}, facts={}, rss_mb=0.0, busy_frac=0.0,
             cpu_s=0.0)
        return None
    record = {'job': i, 'ok': ok, 'wall_s': wall, 'quality': quality, 'facts': facts,
              'rss_mb': meter.peak_mb, 'busy_frac': meter.cpu_s / (wall * nproc()),
              'cpu_s': meter.cpu_s + main_cpu_s}
    emit('job', **record)
    if want_digest:
        record['digest'] = digest(workload, outputs)
    return record


def traced_run(args, ctx: dict, ncpus: int) -> None:
    """One untraced job, then the same job traced in a fresh session."""
    import ray
    emit('setup', s=set_up(ncpus, args.root, ctx['warm_file'], args.run_dir))
    ref = run_job(0, args.workload, ctx, args.run_dir, want_digest=True)
    ray.shutdown()

    trace_dir = os.path.join(args.run_dir, 'spans')
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    env = {tracing.TRACE_DIR_ENV: trace_dir,
           tracing.TRACE_ID_ENV: f'{args.workload}-{args.seed}'}
    os.environ.update(env)
    tracing.install()
    emit('setup', s=set_up(ncpus, args.root, ctx['warm_file'], args.run_dir, trace_env=env))
    for path in glob.glob(os.path.join(trace_dir, 'spans-*.jsonl')):
        os.unlink(path)                          # warm-up spans
    traced = run_job(1, args.workload, ctx, args.run_dir, want_digest=True)
    tracing.flush()                              # this process's own spans
    ray.shutdown()
    if ref is None or traced is None:
        return
    spans = tracing.load_spans(trace_dir)
    keep_dir = os.path.join(os.path.dirname(args.cache_dir), 'traces')
    os.makedirs(keep_dir, exist_ok=True)
    with open(os.path.join(keep_dir, f'{args.workload}-{args.seed}.jsonl'), 'w') as f:
        f.write(''.join(json.dumps(s) + '\n' for s in spans))
    agg = tracing.aggregate(spans)
    execute = agg.get('ray_data.execute', {})
    facts = dict(traced['facts'])
    facts.update({
        'read_wall_s': execute.get('read_wall_s', 0.0),
        'write_wall_s': execute.get('write_wall_s', 0.0),
        'write_bytes': agg.get('write_parquet', {}).get('bytes', 0),
        # the url dedup is the only join or aggregate of the pipelines
        'dedup_wall_s': (execute.get('join_agg_wall_s', 0.0)
                         if 'dedup_exact_by_url' in agg else 0.0),
        'dedup_rows_in': agg.get('dedup.rows_in', {}).get('rows', 0),
        'dedup_rows_out': agg.get('dedup.rows_out', {}).get('rows', 0),
    })
    emit('layers', spans=agg, facts=facts, overhead_s=traced['wall_s'] - ref['wall_s'],
         busy_frac=ref['busy_frac'], digest_match=ref['digest'] == traced['digest'])


def measured_run(args, ctx: dict, ncpus: int) -> None:
    """Set up once, then run whole jobs, at least ``MIN_JOBS``, until the
    next would take the timed total past ``--seconds`` (checks run between
    jobs, outside the timed windows).

    One set-up per run: a set-up costs about as much as the whole measured
    window, and the run count a benchmark pass makes has a fixed time
    budget, so ``setup_s`` is steadied by the median across runs instead."""
    import ray
    emit('setup', s=set_up(ncpus, args.root, ctx['warm_file'], args.run_dir))
    walls: list[float] = []
    while True:
        rec = run_job(len(walls), args.workload, ctx, args.run_dir, want_digest=False)
        walls.append(rec['wall_s'] if rec else DEADLINE_S[args.workload])
        if (len(walls) >= MIN_JOBS.get(args.workload, 1)
                and sum(walls) + statistics.median(walls) > args.seconds):
            break
    ray.shutdown()


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument('--workload', required=True)
    ap.add_argument('--seed', type=int, required=True)
    ap.add_argument('--seconds', type=float, required=True)
    ap.add_argument('--trace', type=int, default=0)
    ap.add_argument('--run-dir', required=True)
    ap.add_argument('--cache-dir', required=True)
    ap.add_argument('--root', required=True)
    args = ap.parse_args()
    t0 = time.perf_counter()
    ctx = prepare(args.workload, args.seed, args.cache_dir)
    import_main_modules()
    ncpus = max(2, nproc())       # at 1 logical CPU Ray's joins deadlock
    emit('info', nproc=nproc(), ray_cpus=ncpus, docs=ctx['docs'],
         prepare_s=time.perf_counter() - t0)
    if args.trace:
        traced_run(args, ctx, ncpus)
    else:
        measured_run(args, ctx, ncpus)
    emit('done')


if __name__ == '__main__':
    main()
