#!/usr/bin/env python3
"""The repository benchmark: seeded, oracle-checked throughput of the
pii_detector_ray engine on four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload webtext_default --seed 1 --seconds 5 --trace 0

Workloads (closed loop: one process submits one job at a time; a run times
whole jobs until the next would pass ``--seconds``, at least one, and two on
``gate_queries``):

- ``webtext_default``: ``build_pipeline(read_pages(dir), PipelineConfig())
  .write_parquet(out)`` over a seeded default corpus (about 30% of docs carry
  PII, 3% have NULL text).  Scrub and the fused quality stage do the work.
- ``html_gopher``: the same corpus with ``text`` nulled in every row, so every
  row goes through ``extract_html``, and Gopher's repetition thresholds on.
- ``dedup_resume``: a corpus where 30% of rows repeat an earlier url of the
  same shard, run through ``run_partitioned(dedup_urls=True, keep_only=True)``
  over two partitions,
  killed after half the partitions, the resuming call, then
  ``rescan_output(out, rescan_only=['EMAIL_ADDRESS'])`` written out.
- ``gate_queries``: ``event_markov2``, ``value_time_spearman``,
  ``weighted_median_price``, ``events_segment_join`` and ``scrub_documents``
  over events / lineitem / documents tables generated in the shape of the
  repository's sf0.01 test tables.

Every job's output is checked: the pipelines against the serial oracle
(``pii_detector_ray/oracle.py``) on a seeded sample of urls, the queries
against their DuckDB ``oracle_sql()`` or, for ``scrub_documents``, a serial
per-document scan.  A wrong output counts as a failed job.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the job once
untraced and once with spans around each layer's public functions and
prints the per-layer metrics.  The last stdout line is the result JSON; the
line before it is a fuller report (F1 scores, failed_frac, resume time...).

This file is the supervisor: it starts the measured process (``child.py``)
in its own session, enforces each job's deadline and the run's deadline by
killing that whole session (Ray included), and waits until every process
it started has ended.  Inputs and oracle outputs are cached per seed and
per digest of the package's and the benchmark's source under
``perfbench/.work/cache``.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, ROOT)

from perfbench import metrics, procfs  # noqa: E402

EVENT_PREFIX = '@perfbench '
# the whole run must end within 180 s; leave room for the final kill + wait
RUN_DEADLINE_S = 160.0


def supervise(cmd: list[str], env: dict, log_path: str,
              run_deadline_s: float = RUN_DEADLINE_S) -> list[dict]:
    """Run ``cmd`` in a new session and collect its events.

    A ``start`` event arms that job's deadline and the matching ``job``
    event disarms it.  Passing either deadline kills the whole session and
    appends a ``killed`` event naming the job that was running (or None)."""
    events: list[dict] = []
    t_end = time.monotonic() + run_deadline_s
    job_end: float | None = None
    running: dict | None = None
    with open(log_path, 'ab') as log:
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=log, start_new_session=True)
        sel = selectors.DefaultSelector()
        sel.register(proc.stdout, selectors.EVENT_READ)
        buf = b''
        try:
            while True:
                deadline = t_end if job_end is None else min(t_end, job_end)
                timeout = deadline - time.monotonic()
                if timeout <= 0:
                    job, limit = ((running['job'], running['deadline_s']) if running
                                  else (None, run_deadline_s))
                    events.append({'ev': 'killed', 'job': job, 'deadline_s': limit})
                    break
                if not sel.select(timeout):
                    continue
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                buf += chunk
                *lines, buf = buf.split(b'\n')
                for raw in lines:
                    line = raw.decode('utf-8', 'replace')
                    if not line.startswith(EVENT_PREFIX):
                        continue
                    ev = json.loads(line[len(EVENT_PREFIX):])
                    events.append(ev)
                    if ev['ev'] == 'start':
                        running = ev
                        job_end = time.monotonic() + float(ev['deadline_s'])
                    elif ev['ev'] == 'job':
                        running, job_end = None, None
        finally:
            sel.close()
            procfs.kill_session(proc.pid)
            proc.stdout.close()
            proc.wait()
    return events


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    ap.add_argument('--workload', required=True, choices=metrics.WORKLOADS)
    ap.add_argument('--seed', type=int, required=True)
    ap.add_argument('--seconds', type=float, required=True)
    ap.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM unwind through supervise(), which kills the measured session
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    work = os.path.join(BENCH_DIR, '.work')
    run_dir = os.path.join(work, 'runs', f'{args.workload}-{args.seed}-{args.trace}-{os.getpid()}')
    os.makedirs(run_dir, exist_ok=True)
    log_path = os.path.join(run_dir, 'child.log')
    env = dict(os.environ)
    env['PYTHONPATH'] = os.pathsep.join(
        [ROOT] + ([env['PYTHONPATH']] if env.get('PYTHONPATH') else []))
    cmd = [sys.executable, '-u', '-m', 'perfbench.child',
           '--workload', args.workload, '--seed', str(args.seed),
           '--seconds', str(args.seconds), '--trace', str(args.trace),
           '--run-dir', run_dir, '--cache-dir', os.path.join(work, 'cache'),
           '--root', ROOT]
    events = supervise(cmd, env, log_path)
    shutil.rmtree(os.path.join(ROOT, '.pbray'), ignore_errors=True)
    result = metrics.summarize(args.workload, bool(args.trace), events)
    if result is None:
        with open(log_path, 'rb') as f:
            tail = f.read()[-4000:].decode('utf-8', 'replace')
        print(f'perfbench: nothing was measured; last lines of {log_path}:\n{tail}',
              file=sys.stderr)
        return 1
    if result['final']['correct']:
        shutil.rmtree(run_dir, ignore_errors=True)
    else:
        print(f'perfbench: a job failed; see {log_path}', file=sys.stderr)
    print(json.dumps(result['report'], sort_keys=True))
    print(json.dumps(result['final']))
    return 0


if __name__ == '__main__':
    sys.exit(main())
