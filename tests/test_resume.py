"""Kill-and-resume test (BASELINE.md resumability gate): a job killed after
some partitions commits must resume running only the remaining partitions and
produce identical output."""

import glob
import os
import signal
import subprocess
import sys
import textwrap
from collections import Counter

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from pii_detector_ray.config import PipelineConfig
from pii_detector_ray.pipelines.runner import run_partitioned
from pii_detector_ray.state.manifest import (
    assign_partitions,
    completed_partitions,
    manifest_path,
    read_manifest,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope='module')
def corr_files():
    from pii_detector_ray.sources.pages import ensure_corpus
    pages = ensure_corpus('correctness')
    return sorted(glob.glob(os.path.join(pages, '*.parquet')))


def _read_sorted(out_dir):
    df = ray.data.read_parquet(
        sorted(glob.glob(os.path.join(out_dir, 'part=*', '*.parquet'))),
        columns=['url', 'warc_ts', 'keep', 'scrubbed_text'],
    ).to_pandas()
    return df.sort_values(['url', 'warc_ts']).reset_index(drop=True)


def _recount(part_dir):
    """The manifest's counts, recounted from a partition's Parquet files."""
    files = sorted(glob.glob(os.path.join(part_dir, '*.parquet')))
    rows = [r for f in files for r in pq.read_table(
        f, columns=['keep', 'drop_reason', 'pii_spans']).to_pylist()]
    kept = sum(r['keep'] for r in rows)
    types = Counter(s['type'] for r in rows for s in r['pii_spans'] or ())
    return {'rows': len(rows), 'kept': kept, 'dropped': len(rows) - kept,
            'drop_reasons': dict(Counter(r['drop_reason'] for r in rows
                                         if r['drop_reason'] is not None)),
            'pii_type_counts': dict(types), 'pii_findings': sum(types.values())}


def _manifests_match_files(out_dir, n_parts):
    """Each partition's manifest, after checking that its counts (summed
    from the write tasks) equal a recount of its files."""
    manifests = [read_manifest(out_dir, p) for p in range(n_parts)]
    for p, m in enumerate(manifests):
        recount = _recount(os.path.join(out_dir, f'part={p:05d}'))
        assert {k: m[k] for k in recount} == recount
    return manifests


def test_kill_and_resume_identical(tmp_path, corr_files):
    cfg = PipelineConfig()
    out_a = str(tmp_path / 'a')
    out_b = str(tmp_path / 'b')

    # uninterrupted reference run
    summary = run_partitioned(corr_files, out_a, cfg, num_partitions=4)
    assert summary['partitions_run'] == 4 and summary['rows'] == 5000

    # killed run: commits 2 partitions then dies
    with pytest.raises(RuntimeError, match='injected failure'):
        run_partitioned(corr_files, out_b, cfg, num_partitions=4,
                        fail_after_partitions=2)
    assert len(completed_partitions(out_b)) == 2

    # resume: only the missing partitions run
    summary = run_partitioned(corr_files, out_b, cfg, num_partitions=4)
    assert summary['partitions_skipped'] == 2
    assert summary['partitions_run'] == 2
    assert summary['rows'] == 5000

    a = _read_sorted(out_a)
    b = _read_sorted(out_b)
    assert a.equals(b)
    for out in (out_a, out_b):
        manifests = _manifests_match_files(out, 4)
        assert all(m['dropped'] > 0 and m['pii_findings'] > 0 for m in manifests)


def test_kill_and_resume_with_url_dedup(tmp_path, corr_files):
    """Resume with the url dedup on: the rerun skips the committed partition
    (its manifest is not rewritten) and the output equals an uninterrupted
    run's."""
    from pii_detector_ray.state.manifest import manifest_path
    cfg = PipelineConfig()
    kwargs = dict(num_partitions=2, dedup_urls=True, keep_only=True)
    out_a = str(tmp_path / 'a')
    out_b = str(tmp_path / 'b')
    run_partitioned(corr_files, out_a, cfg, **kwargs)

    with pytest.raises(RuntimeError, match='injected failure'):
        run_partitioned(corr_files, out_b, cfg, fail_after_partitions=1, **kwargs)
    assert completed_partitions(out_b) == {0}
    committed = os.stat(manifest_path(out_b, 0)).st_mtime_ns

    summary = run_partitioned(corr_files, out_b, cfg, **kwargs)
    assert summary['partitions_skipped'] == 1 and summary['partitions_run'] == 1
    assert os.stat(manifest_path(out_b, 0)).st_mtime_ns == committed

    a = _read_sorted(out_a)
    b = _read_sorted(out_b)
    assert len(a) == summary['rows'] and a['keep'].all()
    assert a.equals(b)
    for out in (out_a, out_b):
        manifests = _manifests_match_files(out, 2)
        assert all(m['dropped'] == 0 and m['pii_findings'] > 0 for m in manifests)


def test_manifest_lineage_fields(tmp_path, corr_files):
    cfg = PipelineConfig()
    out = str(tmp_path / 'm')
    run_partitioned(corr_files[:1], out, cfg, num_partitions=1)
    m = read_manifest(out, 0)
    assert m['config_hash'] == cfg.config_hash()
    assert m['rows'] == m['kept'] + m['dropped']
    assert m['input'][0]['path'] == corr_files[0]
    assert m['pii_findings'] == sum(m['pii_type_counts'].values())
    assert 'wall_sec' in m and m['rows'] > 0
    # the write pass's own figures: tasks that wrote, and the Arrow
    # in-memory bytes they wrote (not the Parquet file bytes)
    assert m['write_tasks'] >= 1
    files = glob.glob(os.path.join(out, 'part=00000', '*.parquet'))
    assert 1 <= len(files) <= m['write_tasks']
    in_memory = pa.concat_tables(pq.read_table(f) for f in files).nbytes
    assert 0.5 * in_memory <= m['bytes_out'] <= 2 * in_memory


def test_resume_rejects_changed_input_set(tmp_path, smoke_pages_dir):
    """ADVICE r1: resuming with a different input file list must fail fast —
    the sorted round-robin assignment would shift files across every
    partition and committed manifests would cover stale subsets."""
    import glob
    import shutil

    import pytest as _pytest
    files = sorted(glob.glob(os.path.join(smoke_pages_dir, '*.parquet')))
    out = str(tmp_path / 'out')
    run_partitioned(files, out, PipelineConfig(), num_partitions=2)
    extra = str(tmp_path / 'extra-shard.parquet')
    shutil.copy(files[0], extra)
    with _pytest.raises(ValueError, match='resume mismatch'):
        run_partitioned(files + [extra], out, PipelineConfig(), num_partitions=2)


def test_resume_accepts_pre_input_hash_manifest(tmp_path, corr_files):
    """ADVICE r2: a _run.json written before the input_set_hash pin existed
    (missing key) must stay resumable — shared keys compared, new key
    backfilled — rather than failing every old output directory."""
    import json

    from pii_detector_ray.pipelines.runner import _check_run_manifest
    cfg = PipelineConfig()
    out = str(tmp_path / 'legacy')
    path = os.path.join(out, 'manifests', '_run.json')
    os.makedirs(os.path.dirname(path))
    with open(path, 'w') as f:      # legacy manifest: no input_set_hash
        json.dump({'num_partitions': 2, 'config_hash': cfg.config_hash()}, f)
    _check_run_manifest(out, 2, cfg, corr_files)        # must not raise
    with open(path) as f:
        assert 'input_set_hash' in json.load(f)         # backfilled
    with pytest.raises(ValueError, match='resume mismatch'):
        _check_run_manifest(out, 3, cfg, corr_files)    # real mismatch still fails


def test_manifest_counts_summed_over_write_tasks(tmp_path, corr_files):
    """2 files of 1,250 rows in one partition are read in 3 blocks and
    written by as many tasks, whose counts the runner sums."""
    out = str(tmp_path / 'out')
    run_partitioned(corr_files[:2], out, PipelineConfig(), num_partitions=1)
    [m] = _manifests_match_files(out, 1)
    assert m['write_tasks'] >= 2
    assert m['dropped'] > 0 and m['pii_findings'] > 0


def test_run_partitioned_reads_only_its_input(tmp_path, corr_files, monkeypatch):
    """One Ray Data execution per partition: the only Parquet reads are the
    partitions' inputs, through ``read_pages``; no output is read back."""
    from pii_detector_ray.pipelines import runner
    assert not hasattr(runner, '_partition_metrics')
    real = ray.data.read_parquet
    reads = []

    def counting(paths, **kwargs):
        reads.append(paths)
        return real(paths, **kwargs)

    monkeypatch.setattr(ray.data, 'read_parquet', counting)
    summary = run_partitioned(corr_files, str(tmp_path / 'out'), PipelineConfig(),
                              num_partitions=3)
    assert summary['partitions_run'] == 3
    assert reads == assign_partitions(corr_files, 3)


_KILL_IN_WRITE = textwrap.dedent('''
    import os, signal, sys, time
    import ray
    from pii_detector_ray.pipelines import runner

    class KillingSink(runner.PartitionSink):
        """SIGKILLs the driver from a write task of partition 1, once that
        task's file is on disk."""
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.driver_pid = os.getpid()

        def write(self, blocks, ctx):
            tally = super().write(blocks, ctx)
            if self.path.endswith('part=00001') and os.listdir(self.path):
                os.kill(self.driver_pid, signal.SIGKILL)
                time.sleep(60)
            return tally

    runner.PartitionSink = KillingSink
    ray.init(address='local', num_cpus=2, include_dashboard=False,
             logging_level='ERROR')
    out, files = sys.argv[1], sys.argv[2:]
    runner.run_partitioned(files, out, num_partitions=3)
''')


def test_driver_killed_inside_write_resumes_exactly_once(tmp_path, corr_files):
    """The driver dies (SIGKILL) while partition 1 is being written, after one
    of its write tasks put a file on disk.  The resume replaces that partial
    directory, reruns no committed partition, and the output equals an
    uninterrupted run's."""
    out_a = str(tmp_path / 'a')
    out_b = str(tmp_path / 'b')
    run_partitioned(corr_files, out_a, PipelineConfig(), num_partitions=3)

    script = tmp_path / 'kill_in_write.py'
    script.write_text(_KILL_IN_WRITE)
    env = {**os.environ, 'PYTHONPATH': ROOT}
    proc = subprocess.Popen([sys.executable, str(script), out_b, *corr_files],
                            env=env, start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=240)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)   # Ray processes it started
        except ProcessLookupError:
            pass
    assert proc.returncode == -signal.SIGKILL, err.decode()[-2000:]
    assert completed_partitions(out_b) == {0}
    partial = set(os.listdir(os.path.join(out_b, 'part=00001')))
    assert any(f.endswith('.parquet') for f in partial)
    committed = os.stat(manifest_path(out_b, 0)).st_mtime_ns

    summary = run_partitioned(corr_files, out_b, PipelineConfig(), num_partitions=3)
    assert summary['partitions_skipped'] == 1 and summary['partitions_run'] == 2
    assert os.stat(manifest_path(out_b, 0)).st_mtime_ns == committed
    rewritten = set(os.listdir(os.path.join(out_b, 'part=00001')))
    assert rewritten and not rewritten & partial
    assert _read_sorted(out_a).equals(_read_sorted(out_b))
