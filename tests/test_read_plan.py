"""The flagship's plan shape: ``read_pages`` reads one block per file when
the files meet ``files >= min(CPUs, ceil(rows / 1024))``, so the whole
pipeline and the write fuse into the read; with fewer files it keeps
Ray's split.  Both plans write the same rows, and neither touches the
global ``DataContext``."""

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
from ray.data import DataContext

from pii_detector_ray.config import PipelineConfig
from pii_detector_ray.pipelines.quality_filter import (
    ROWS_PER_TASK,
    build_pipeline,
    read_blocks,
    read_pages,
)
from pii_detector_ray.pipelines.runner import run_partitioned
from pii_detector_ray.sources.pages import PagesSpec, generate_pages


FEW_ROWS = 4098


def _cpus() -> int:
    return int(ray.cluster_resources()['CPU'])


def _pages(tmp_path_factory, n_rows: int, n_shards: int) -> str:
    return generate_pages(str(tmp_path_factory.mktemp('pages')),
                          PagesSpec(n_rows=n_rows, n_shards=n_shards, seed=5))


@pytest.fixture(scope='module')
def many_files(ray_session, tmp_path_factory):
    """One file per CPU: meets the rule whatever the row count."""
    return _pages(tmp_path_factory, 100 * _cpus(), _cpus())


@pytest.fixture(scope='module')
def few_files(ray_session, tmp_path_factory):
    """2 files of more than ``ROWS_PER_TASK`` rows per CPU in all: the rule
    needs ``min(CPUs, ceil(rows / 1024)) = CPUs`` files."""
    if _cpus() < 3:
        pytest.skip('2 files meet the rule on 2 CPUs')
    return _pages(tmp_path_factory, FEW_ROWS, 2)


def _write(ds, out: str) -> list[str]:
    """Write ``ds`` to ``out``; the names of the operators that ran."""
    ds.write_parquet(out)
    # write_parquet runs a dataset of its own; its stats hold the plan
    return [line.split(':')[0] for line in ds._write_ds.stats().splitlines()
            if line.startswith('Operator ')]


def _rows(out: str) -> pa.Table:
    t = pq.read_table(sorted(glob.glob(os.path.join(out, '*.parquet'))))
    return t.sort_by([('url', 'ascending'), ('warc_ts', 'ascending'),
                      ('extracted_text', 'ascending')])


def test_read_blocks_rule(ray_session):
    cpus = _cpus()
    assert read_blocks(cpus, 10 ** 9) == cpus            # files fill the CPUs
    assert read_blocks(1, ROWS_PER_TASK) == 1            # one task of rows
    assert read_blocks(1, 0) == 1
    if cpus > 1:
        # fewer files than CPUs and rows for more tasks: about 2 per CPU,
        # never more blocks than ROWS_PER_TASK-row tasks
        assert read_blocks(1, 10 ** 9) == 2 * cpus
        assert read_blocks(1, 2 * ROWS_PER_TASK) == 2


def test_files_meeting_rule_run_as_one_operator(ray_session, tmp_path,
                                                many_files):
    ds = read_pages(many_files)
    largest = max(pq.ParquetFile(f).metadata.row_group(0).total_byte_size
                  for f in glob.glob(os.path.join(many_files, '*.parquet')))
    assert ds.context.target_max_block_size == largest
    names = _write(build_pipeline(ds, PipelineConfig()), str(tmp_path / 'out'))
    assert len(names) == 1, names
    assert 'ReadParquet' in names[0] and 'Write' in names[0], names
    assert len(os.listdir(tmp_path / 'out')) == _cpus()   # one file per task


def test_few_files_keep_split_and_write_same_rows(ray_session, tmp_path,
                                                  few_files):
    split = _write(build_pipeline(read_pages(few_files), PipelineConfig()),
                   str(tmp_path / 'split'))
    assert 'SplitBlocks' in split[0] and 'Write' not in split[0], split
    assert len(split) == 2 and 'Write' in split[1], split
    # the same corpus forced to one block per file: the fused plan
    fused = _write(build_pipeline(read_pages(few_files, override_num_blocks=2),
                                  PipelineConfig()), str(tmp_path / 'fused'))
    assert len(fused) == 1, fused
    a, b = _rows(str(tmp_path / 'split')), _rows(str(tmp_path / 'fused'))
    assert a.num_rows == FEW_ROWS
    assert a.equals(b)


def test_global_block_size_unchanged(ray_session, tmp_path, many_files):
    before = DataContext.get_current().target_max_block_size
    ds = read_pages(many_files)
    assert ds.context.target_max_block_size < before
    assert DataContext.get_current().target_max_block_size == before
    build_pipeline(ds, PipelineConfig(), dedup_urls=True).materialize()
    assert DataContext.get_current().target_max_block_size == before
    files = sorted(glob.glob(os.path.join(many_files, '*.parquet')))
    run_partitioned(files, str(tmp_path / 'run'), num_partitions=2,
                    dedup_urls=True)
    assert DataContext.get_current().target_max_block_size == before


def test_dedup_plan_fuses_around_the_sort(ray_session, tmp_path, many_files):
    """With the url dedup, the stages before its key fuse into the read and
    the rest, the write included, into the ``pick`` map after the dedup's
    range-partitioned sort.  That sort has ``max(CPUs, read tasks)``
    reducers, at most ``bucket_count()``, so one task per reducer runs
    ``pick`` through the write (on 4 vCPUs, the ``dedup_resume``
    benchmark's one-file partitions went from 1 such task to 4)."""
    names = _write(build_pipeline(read_pages(many_files), PipelineConfig(),
                                  dedup_urls=True), str(tmp_path / 'out'))
    assert len(names) == 3, names
    assert 'ReadParquet' in names[0] and 'wkey' in names[0], names
    assert 'Sort' in names[1], names
    assert 'pick' in names[2] and 'Write' in names[2], names
    assert len(os.listdir(tmp_path / 'out')) == _cpus()   # one file per reducer
