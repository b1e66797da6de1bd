"""Deadline and failure accounting: a hung job is killed, with everything it
started, and counts as failed."""

import json
import os
import sys
import textwrap
import time

import pytest

from perfbench import metrics, procfs, run, tracing

INFO = {'ev': 'info', 'nproc': 1, 'ray_cpus': 2, 'docs': 1000}


def job(i, wall, ok=True):
    return {'ev': 'job', 'job': i, 'ok': ok, 'wall_s': wall, 'rss_mb': 100.0,
            'busy_frac': 0.5, 'cpu_s': 3.0, 'facts': {},
            'quality': {'keepdrop_f1': 1.0, 'span_f1': 1.0, 'text_identical_frac': 1.0,
                        'oracle_match_frac': 1.0}}


def start(i, deadline=60.0):
    return {'ev': 'start', 'job': i, 'deadline_s': deadline}


def test_all_jobs_pass():
    events = [INFO, {'ev': 'setup', 's': 3.0}, {'ev': 'setup', 's': 5.0},
              start(0), job(0, 2.0), start(1), job(1, 1.0), start(2), job(2, 4.0), {'ev': 'done'}]
    res = metrics.summarize('webtext_default', False, events)
    assert res['final']['correct'] is True
    assert (res['final']['attempted'], res['final']['failed']) == (3, 0)
    assert res['report']['failed_frac'] == 0.0
    assert res['final']['metrics']['docs_per_s']['value'] == pytest.approx(1000 / 2.0)
    assert res['final']['metrics']['setup_s']['value'] == pytest.approx(4.0)


def test_killed_job_counts_failed_at_its_deadline():
    events = [INFO, {'ev': 'setup', 's': 3.0}, start(0), job(0, 2.0),
              start(1, deadline=30.0), {'ev': 'killed', 'job': 1, 'deadline_s': 30.0}]
    res = metrics.summarize('dedup_resume', False, events)
    assert res['final']['correct'] is False
    assert (res['final']['attempted'], res['final']['failed']) == (2, 1)
    assert res['report']['failed_frac'] == 0.5
    assert res['report']['killed_at_deadline'] is True
    assert res['report']['job_wall_s'] == [2.0, 30.0]


def test_wrong_output_counts_failed():
    events = [INFO, {'ev': 'setup', 's': 3.0}, start(0), job(0, 2.0, ok=False)]
    res = metrics.summarize('html_gopher', False, events)
    assert (res['final']['correct'], res['final']['failed']) == (False, 1)


def test_run_deadline_between_jobs_counts_one_more_attempt():
    events = [INFO, {'ev': 'setup', 's': 3.0}, start(0), job(0, 2.0),
              {'ev': 'killed', 'job': None, 'deadline_s': 160.0}]
    res = metrics.summarize('gate_queries', False, events)
    assert (res['final']['attempted'], res['final']['failed']) == (2, 1)


def test_nothing_measured_gives_no_result():
    assert metrics.summarize('webtext_default', False, []) is None
    assert metrics.summarize('webtext_default', False, [INFO]) is None


def traced_events(workload, spans, digest_match=True):
    layers = {'ev': 'layers', 'spans': tracing.aggregate(spans), 'facts': {},
              'overhead_s': 0.1, 'busy_frac': 0.5, 'digest_match': digest_match}
    return [INFO, {'ev': 'setup', 's': 3.0}, start(0), job(0, 2.0), start(1), job(1, 2.1),
            layers]


def all_spans(workload):
    return [{'name': n, 'wall_s': 0.1, 'cpu_s': 0.05, 'rows': 10}
            for n in metrics.REQUIRED_SPANS[workload]]


def test_traced_digest_mismatch_fails():
    events = traced_events('webtext_default', all_spans('webtext_default'), digest_match=False)
    res = metrics.summarize('webtext_default', True, events)
    assert (res['final']['correct'], res['final']['failed']) == (False, 1)


@pytest.mark.parametrize('workload', metrics.WORKLOADS)
def test_traced_run_missing_a_span_fails(workload):
    spans = all_spans(workload)
    res = metrics.summarize(workload, True, traced_events(workload, spans))
    assert (res['final']['correct'], res['report']['missing_spans']) == (True, [])

    dropped = metrics.REQUIRED_SPANS[workload][-1]
    res = metrics.summarize(workload, True, traced_events(workload, spans[:-1]))
    assert (res['final']['correct'], res['final']['failed']) == (False, 1)
    assert res['report']['missing_spans'] == [dropped]


def test_traced_span_with_no_rows_fails():
    spans = all_spans('html_gopher')
    next(s for s in spans if s['name'] == 'extract_batch')['rows'] = 0
    res = metrics.summarize('html_gopher', True, traced_events('html_gopher', spans))
    assert (res['final']['correct'], res['report']['missing_spans']) == (False, ['extract_batch'])


HANG = textwrap.dedent('''
    import json, subprocess, time
    def emit(ev, **kw):
        print('@perfbench ' + json.dumps({'ev': ev, **kw}), flush=True)
    emit('info', nproc=1, ray_cpus=2, docs=10)
    emit('setup', s=0.1)
    emit('start', job=0, deadline_s=0.1)
    emit('job', job=0, ok=True, wall_s=0.05, rss_mb=1.0, busy_frac=0.1, cpu_s=0.1, facts={},
         quality={'oracle_match_frac': 1.0})
    sleeper = subprocess.Popen(['sleep', '60'])
    emit('sleeper', pid=sleeper.pid)
    emit('start', job=1, deadline_s=%s)
    time.sleep(60)
''')


def test_supervisor_kills_a_hung_job_and_its_children(tmp_path):
    t0 = time.monotonic()
    events = run.supervise([sys.executable, '-c', HANG % 1.0], dict(os.environ),
                           str(tmp_path / 'child.log'), run_deadline_s=30.0)
    assert time.monotonic() - t0 < 15.0
    killed = [e for e in events if e['ev'] == 'killed']
    assert killed == [{'ev': 'killed', 'job': 1, 'deadline_s': 1.0}]
    sleeper = next(e['pid'] for e in events if e['ev'] == 'sleeper')
    assert not os.path.exists(f'/proc/{sleeper}') or procfs._stat(sleeper)[0] == 'Z'

    res = metrics.summarize('gate_queries', False, events)
    assert json.loads(json.dumps(res['final']))['failed'] == 1
    assert res['report']['failed_frac'] == 0.5


def test_supervisor_run_deadline(tmp_path):
    events = run.supervise([sys.executable, '-c', HANG % 600.0], dict(os.environ),
                           str(tmp_path / 'child.log'), run_deadline_s=2.0)
    assert events[-1] == {'ev': 'killed', 'job': 1, 'deadline_s': 600.0}
