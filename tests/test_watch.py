"""Incremental watch lifecycle (pipelines/watch.py): only new/changed
shards execute per cycle, crash-resume within a generation, atomic
ledger commit — the Ray-native form of the reference's 15-minute
rescheduler + new-task detection (customer_worker.py:73-91,
redis_jobs.py:35-108)."""

import glob
import json
import os
import selectors
import shutil
import signal
import subprocess
import sys
import time

import pytest
import ray.data

from pii_detector_ray.config import PipelineConfig
from pii_detector_ray.pipelines.watch import read_ledger, watch_once
from pii_detector_ray.state.manifest import completed_partitions


@pytest.fixture()
def shards(tmp_path):
    """A small input dir of 3 pages shards cut from the 5k corpus."""
    from pii_detector_ray.sources.pages import ensure_corpus
    src = sorted(glob.glob(os.path.join(ensure_corpus('correctness'),
                                        '*.parquet')))
    d = str(tmp_path / 'in')
    os.makedirs(d)
    for i, f in enumerate(src[:3]):
        shutil.copyfile(f, os.path.join(d, f'shard{i}.parquet'))
    return d


def _gen_rows(out_dir, gen):
    files = sorted(glob.glob(os.path.join(
        out_dir, f'gen={gen:05d}', 'part=*', '*.parquet')))
    if not files:
        return None
    return ray.data.read_parquet(files, columns=['url']).to_pandas()


def test_watch_cycles_new_and_changed_shards(ray_session, shards, tmp_path):
    out = str(tmp_path / 'out')
    cfg = PipelineConfig()

    # cycle 1: everything is new -> generation 0
    s1 = watch_once(shards, out, cfg, num_partitions=2)
    assert s1['generation'] == 0
    assert s1['files_new'] == 3 and s1['files_unchanged'] == 0
    assert s1['partitions_run'] == 2
    rows_g0 = len(_gen_rows(out, 0))
    assert rows_g0 == s1['rows'] > 0

    # cycle 2: nothing changed -> no work, no new generation
    g0_manifest_mtimes = {
        p: os.path.getmtime(p)
        for p in glob.glob(os.path.join(out, 'gen=00000', 'manifests', '*'))}
    s2 = watch_once(shards, out, cfg, num_partitions=2)
    assert s2['generation'] is None and s2['partitions_run'] == 0
    assert s2['files_unchanged'] == 3

    # cycle 3: one NEW shard arrives -> generation 1 runs ONLY that shard
    src = sorted(glob.glob(os.path.join(shards, '*.parquet')))
    shutil.copyfile(src[0], os.path.join(shards, 'shard_late.parquet'))
    s3 = watch_once(shards, out, cfg, num_partitions=2)
    assert s3['generation'] == 1
    assert s3['files_new'] == 1 and s3['files_unchanged'] == 3
    assert s3['partitions_run'] == 1          # 1 file -> 1 partition
    n_shard_rows = ray.data.read_parquet(src[0]).count()
    assert len(_gen_rows(out, 1)) == n_shard_rows
    # generation 0 is untouched (manifests not rewritten)
    for p, m in g0_manifest_mtimes.items():
        assert os.path.getmtime(p) == m, p

    # cycle 4: a shard CHANGES -> re-emitted in generation 2
    with open(src[1], 'ab') as f:            # append garbage bytes ->
        pass                                  # (no-op write keeps parquet
    os.utime(src[1], ns=(1, 1))               # valid; mtime change is the
    s4 = watch_once(shards, out, cfg, num_partitions=2)    # "changed" signal)
    assert s4['generation'] == 2
    assert s4['files_new'] == 1 and s4['files_unchanged'] == 3
    led = read_ledger(out)
    assert led[src[1]]['gen'] == 2
    assert led[src[0]]['gen'] == 0


def test_watch_crash_resumes_same_generation(ray_session, shards, tmp_path):
    out = str(tmp_path / 'out')
    cfg = PipelineConfig()

    with pytest.raises(RuntimeError, match='injected failure'):
        watch_once(shards, out, cfg, num_partitions=3,
                   fail_after_partitions=1)
    gen0 = os.path.join(out, 'gen=00000')
    assert len(completed_partitions(gen0)) == 1
    assert read_ledger(out) == {}             # ledger NOT advanced

    # retry: same todo -> same generation dir, committed partition skipped
    s = watch_once(shards, out, cfg, num_partitions=3)
    assert s['generation'] == 0
    assert s['partitions_skipped'] == 1 and s['partitions_run'] == 2
    assert len(read_ledger(out)) == 3
    assert not os.path.isdir(os.path.join(out, 'gen=00001'))


def test_watch_skips_stale_foreign_generation(ray_session, shards, tmp_path):
    """A half-built generation pinned to a DIFFERENT input set (crash, then
    inputs changed before the retry) is skipped, not mixed into."""
    out = str(tmp_path / 'out')
    cfg = PipelineConfig()
    with pytest.raises(RuntimeError, match='injected failure'):
        watch_once(shards, out, cfg, num_partitions=3,
                   fail_after_partitions=1)
    # a new shard lands before the retry -> todo set differs from the pin
    src = sorted(glob.glob(os.path.join(shards, 'shard0.parquet')))
    shutil.copyfile(src[0], os.path.join(shards, 'shard_x.parquet'))
    s = watch_once(shards, out, cfg, num_partitions=4)
    assert s['generation'] == 1               # gen 0 left as-is, not resumed
    assert s['files_new'] == 4
    assert len(read_ledger(out)) == 4


def test_watch_mixed_layout_lists_nested_shards(ray_session, shards, tmp_path):
    """A mixed layout (root-level shards AND date-partitioned subdirs) must
    list every shard — one stray root file must not hide the nested ones."""
    sub = os.path.join(shards, 'date=2026-08-19')
    os.makedirs(sub)
    src = sorted(glob.glob(os.path.join(shards, '*.parquet')))
    shutil.move(src[1], os.path.join(sub, 'nested.parquet'))
    shutil.move(src[2], os.path.join(sub, 'nested2.parquet'))
    out = str(tmp_path / 'out')
    s = watch_once(shards, out, PipelineConfig(), num_partitions=2)
    assert s['files_total'] == 3 and s['files_new'] == 3


def test_watch_ledger_records_prerun_fingerprint(
        ray_session, shards, tmp_path, monkeypatch):
    """A shard overwritten WHILE the generation runs must be re-processed
    next cycle: the ledger records the fingerprint captured when the todo
    set was computed, not a post-run re-stat."""
    import pii_detector_ray.pipelines.runner as runner_mod

    out = str(tmp_path / 'out')
    cfg = PipelineConfig()
    target = sorted(glob.glob(os.path.join(shards, '*.parquet')))[0]
    real = runner_mod.run_partitioned

    def racing(files, *a, **kw):
        res = real(files, *a, **kw)
        os.utime(target, ns=(123456789, 123456789))   # producer overwrite
        return res

    monkeypatch.setattr(runner_mod, 'run_partitioned', racing)
    s1 = watch_once(shards, out, cfg, num_partitions=2)
    assert s1['generation'] == 0
    monkeypatch.setattr(runner_mod, 'run_partitioned', real)
    # next cycle must see the mid-run change and re-run exactly that shard
    s2 = watch_once(shards, out, cfg, num_partitions=2)
    assert s2['generation'] == 1
    assert s2['files_new'] == 1 and s2['files_unchanged'] == 2


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _read_json_line(proc, timeout_s):
    """The first JSON object ``proc`` prints, or None at EOF or timeout."""
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if not sel.select(deadline - time.monotonic()):
            break
        line = proc.stdout.readline()
        if not line:
            break
        if line.startswith(b'{'):
            return json.loads(line)
    return None


def test_cli_watch_sigterm_during_sleep_exits_zero(shards, tmp_path):
    """SIGTERM while ``cli watch`` sleeps between cycles ends it with exit 0
    right away, with the finished cycle committed to the ledger."""
    out = str(tmp_path / 'out')
    proc = subprocess.Popen(
        [sys.executable, '-m', 'pii_detector_ray.cli', 'watch',
         '--input', shards, '--output', out, '--interval', '30',
         '--max-cycles', '3', '--partitions', '1', '--num-cpus', '1'],
        env={**os.environ, 'PYTHONPATH': ROOT}, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    try:
        summary = _read_json_line(proc, 240)
        assert summary is not None and summary['generation'] == 0
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=25) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        try:
            os.killpg(proc.pid, signal.SIGKILL)   # Ray processes it started
        except ProcessLookupError:
            pass
    led = read_ledger(out)
    assert len(led) == 3 and {e['gen'] for e in led.values()} == {0}


def test_cli_watch_sigterm_mid_cycle_resumes_generation(
        ray_session, shards, tmp_path, monkeypatch, capsys):
    """SIGTERM right after a cycle's first partition commits stops ``cli
    watch`` with exit 0 and the ledger not advanced; the next invocation
    resumes the same generation and skips the committed partition."""
    import pii_detector_ray.pipelines.runner as runner_mod
    from pii_detector_ray import cli

    out = str(tmp_path / 'out')
    argv = ['watch', '--input', shards, '--output', out, '--once',
            '--partitions', '2']
    real = runner_mod.write_manifest

    def commit_then_sigterm(*args):
        real(*args)
        os.kill(os.getpid(), signal.SIGTERM)

    monkeypatch.setattr(runner_mod, 'write_manifest', commit_then_sigterm)
    handler = signal.getsignal(signal.SIGTERM)
    assert cli.main(argv) == 0
    assert completed_partitions(os.path.join(out, 'gen=00000')) == {0}
    assert read_ledger(out) == {}
    assert signal.getsignal(signal.SIGTERM) is handler    # restored

    monkeypatch.setattr(runner_mod, 'write_manifest', real)
    capsys.readouterr()
    assert cli.main(argv) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary['generation'] == 0
    assert summary['partitions_skipped'] == 1 and summary['partitions_run'] == 1
    assert len(read_ledger(out)) == 3
