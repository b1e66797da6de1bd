"""Session-scoped Ray fixture (one init per pytest session, per driver contract)."""

from __future__ import annotations

import contextlib

import pytest
import ray
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
