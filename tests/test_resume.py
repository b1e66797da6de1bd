"""Kill-and-resume test (BASELINE.md resumability gate): a job killed after
some partitions commits must resume running only the remaining partitions and
produce identical output."""

import glob
import os

import pytest
import ray.data

from pii_detector_ray.config import PipelineConfig
from pii_detector_ray.pipelines.runner import run_partitioned
from pii_detector_ray.state.manifest import completed_partitions, read_manifest


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
