"""Session-scoped Ray fixture (one init per pytest session, per driver contract)."""

from __future__ import annotations

import contextlib
from collections import Counter

import pytest
import ray
import ray.data
from ray.data.context import DataContext


@pytest.fixture(scope='session', autouse=True)
def ray_session():
    if not ray.is_initialized():
        ray.init(address='local', num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True, logging_level='ERROR')
    yield
    ray.shutdown()


@pytest.fixture
def max_block_size():
    """``with max_block_size(n):`` runs the block with
    ``DataContext.target_max_block_size`` set to ``n``, then restores it.
    ``n=1`` makes every non-empty dataset too large to broadcast, so
    ``hash_join`` and ``skew_join`` take Ray's shuffle ``Join``."""
    @contextlib.contextmanager
    def set_to(n: int):
        ctx = DataContext.get_current()
        old = ctx.target_max_block_size
        ctx.target_max_block_size = n
        try:
            yield
        finally:
            ctx.target_max_block_size = old
    return set_to


@pytest.fixture
def both_join_paths(monkeypatch):
    """``both_join_paths(fn)`` returns ``(fn(), fn())``: the first run with
    the default join plans, the second with ``BROADCAST_BUILD_BYTES`` 0, so
    that every ``hash_join`` with rows on both sides takes Ray's shuffle
    ``Join``.  Asserts that the first run made at least one
    ``broadcast_join`` and the second at least one ``Dataset.join``."""
    from pii_detector_ray.stages import dedup
    calls = Counter()
    broadcast_join, join = dedup.broadcast_join, ray.data.Dataset.join

    def counted_broadcast_join(*args, **kwargs):
        calls['broadcast_join'] += 1
        return broadcast_join(*args, **kwargs)

    def counted_join(self, *args, **kwargs):
        calls['join'] += 1
        return join(self, *args, **kwargs)

    monkeypatch.setattr(dedup, 'broadcast_join', counted_broadcast_join)
    monkeypatch.setattr(ray.data.Dataset, 'join', counted_join)

    def run(fn):
        calls.clear()
        default = fn()
        assert calls['broadcast_join'] >= 1, calls
        with monkeypatch.context() as m:
            m.setattr(dedup, 'BROADCAST_BUILD_BYTES', 0)
            calls.clear()
            shuffled = fn()
        assert calls['join'] >= 1, calls
        return default, shuffled
    return run


@pytest.fixture
def count_executions(monkeypatch):
    """A list that gets one entry per Ray Data execution while the test
    runs: every ``materialize``, ``to_pandas``, ``take_all`` or iteration of
    a Dataset plan goes through one ``StreamingExecutor.execute`` call."""
    from ray.data._internal.execution.streaming_executor import \
        StreamingExecutor
    executions = []
    execute = StreamingExecutor.execute

    def counted_execute(self, *args, **kwargs):
        executions.append(self._dataset_id)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, 'execute', counted_execute)
    return executions


@pytest.fixture(scope='session')
def smoke_pages_dir():
    from pii_detector_ray.sources.pages import ensure_corpus
    return ensure_corpus('smoke')


@pytest.fixture(scope='session')
def webtext_pages(tmp_path_factory):
    """``seed -> pa.Table`` of the pages of the perfbench ``webtext_default``
    corpus shape (5,000 rows over 8 shards, 2% duplicate urls), generated
    once per seed per session."""
    import glob
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from pii_detector_ray.sources.pages import PagesSpec, generate_pages

    tables = {}

    def pages(seed: int) -> pa.Table:
        if seed not in tables:
            out = generate_pages(str(tmp_path_factory.mktemp(f'webtext{seed}')),
                                 PagesSpec(n_rows=5000, n_shards=8, seed=seed,
                                           dup_url_frac=0.02))
            tables[seed] = pa.concat_tables(
                pq.read_table(p) for p in sorted(glob.glob(os.path.join(out, '*.parquet'))))
        return tables[seed]

    return pages
