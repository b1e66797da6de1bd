"""Every metric BENCHMARK.json declares is emitted, with its unit, for every
workload, and the declarations agree with ``metrics.py``."""

import json
import os

import pytest

from perfbench import metrics, run, tracing


@pytest.fixture(scope='module')
def declared():
    with open(os.path.join(run.ROOT, 'BENCHMARK.json')) as f:
        return json.load(f)


def test_declarations_match(declared):
    assert [w['name'] for w in declared['workloads']] == list(metrics.WORKLOADS)
    assert {m['name']: m['unit'] for m in declared['end_to_end']} == metrics.END_TO_END
    assert {m['name']: m['unit'] for m in declared['per_layer']} == metrics.PER_LAYER
    assert 'setup_s' in metrics.END_TO_END


def events(workload, trace):
    evs = [{'ev': 'info', 'nproc': 1, 'ray_cpus': 2, 'docs': 500}, {'ev': 'setup', 's': 4.0}]
    for i in range(2 if trace else 3):
        evs += [{'ev': 'start', 'job': i, 'deadline_s': 60.0},
                {'ev': 'job', 'job': i, 'ok': True, 'wall_s': 1.0 + i, 'rss_mb': 900.0,
                 'busy_frac': 0.4, 'cpu_s': 2.0, 'facts': {}, 'quality': {'oracle_match_frac': 1.0}}]
    if trace:
        spans = [{'name': n, 'wall_s': 0.1, 'cpu_s': 0.05, 'rows': 100}
                 for n in metrics.REQUIRED_SPANS[workload]]
        evs.append({'ev': 'layers', 'spans': tracing.aggregate(spans), 'facts': {},
                    'overhead_s': 0.2, 'busy_frac': 0.4, 'digest_match': True})
    return evs + [{'ev': 'done'}]


@pytest.mark.parametrize('trace', [0, 1])
@pytest.mark.parametrize('workload', metrics.WORKLOADS)
def test_every_declared_metric_is_emitted(declared, workload, trace):
    final = metrics.summarize(workload, bool(trace), events(workload, trace))['final']
    assert set(final) == {'correct', 'attempted', 'failed', 'metrics'}
    assert final['correct'] is True
    wanted = declared['per_layer' if trace else 'end_to_end']
    assert set(final['metrics']) == {m['name'] for m in wanted}
    for m in wanted:
        got = final['metrics'][m['name']]
        assert got['unit'] == m['unit']
        assert isinstance(got['value'], float)
    if not trace:
        assert all(v['value'] > 0 for v in final['metrics'].values())
    json.dumps(final)


def test_span_aggregation_counts_a_tally_batch_once():
    spans = [{'name': 'dedup.rows_in', 'key': 'a|b|3', 'rows': 3, 'wall_s': 0.0},
             {'name': 'dedup.rows_in', 'key': 'a|b|3', 'rows': 3, 'wall_s': 0.0},
             {'name': 'dedup.rows_in', 'key': 'c|d|2', 'rows': 2, 'wall_s': 0.0},
             {'name': 'scrub', 'rows': 4, 'spans': 7, 'wall_s': 0.5, 'cpu_s': 0.25},
             {'name': 'scrub', 'rows': 6, 'spans': 1, 'wall_s': 0.5, 'cpu_s': 0.25}]
    agg = tracing.aggregate(spans)
    assert agg['dedup.rows_in']['rows'] == 5 and agg['dedup.rows_in']['calls'] == 2
    assert agg['scrub'] == {'calls': 2, 'rows': 10, 'spans': 8, 'wall_s': 1.0, 'cpu_s': 0.5}
