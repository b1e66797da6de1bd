"""Seeded inputs for each workload, cached per seed and per source digest.

Pages corpora come from ``PagesSpec(seed=<seed>)``; the html-only and
high-duplicate variants are derived here.  The gate-query tables (events,
lineitem, documents) are generated here once, from a fixed seed, in the shape
of the repository's sf0.01 test tables, so the benchmark needs nothing
outside its checkout; like those tables they do not vary with ``--seed``.  The
program under test only ever receives the Parquet files written here.

The sf0.01 shape, read from those tables' Parquet files:

- ``events``: 10,000 rows over 150 distinct ``user_id`` (49-86 rows per user,
  median 66.5), 5 ``event_type`` values in near-equal shares, ``ts``
  increasing with ``event_id`` over 30 days from 2024-01-01, ``value`` with
  minimum 0.01, median 34.59 and mean 49.6 (exponential, mean 50, to the
  cent), 100 distinct ``props``.
- ``lineitem``: 60,000 rows; ``l_quantity`` 1-50, ``l_extendedprice``
  uniform on 900-105,000 and independent of quantity, ``l_returnflag``
  A/N/R in equal shares.  Only these three columns are generated: they are
  all that ``weighted_median_price`` reads.
- ``documents``: 500 rows of 10-99 words drawn from a 30-word vocabulary,
  ``lang`` en 44% and de/es/fr/zh about 14% each, ``source`` ``src<id % 20>``.
"""

from __future__ import annotations

import glob
import hashlib
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

PAGES_ROWS = 5_000
PAGES_SHARDS = 8
# one shard per run_partitioned partition: each partition pays a fixed
# hash-shuffle start-up, so fewer, larger partitions keep a job short
DEDUP_ROWS = 2_000
DEDUP_SHARDS = 2
DEDUP_DUP_FRAC = 0.30
EVENTS_ROWS = 10_000
EVENTS_USERS = 150
EVENT_TYPES = ('click', 'error', 'purchase', 'signup', 'view')
LINEITEM_ROWS = 60_000
DOCUMENTS_ROWS = 500
DOC_VOCAB = ('a agg batch big column customer data fast filter group hash join key '
             'line merge order part query row scan slow small sort spark stream '
             'table the value vector window').split()
DOC_LANGS = ('en', 'de', 'es', 'fr', 'zh')
DOC_LANG_P = (0.44, 0.14, 0.14, 0.14, 0.14)
GATE_SEED = 0

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def source_digest() -> str:
    """Digest of the code the inputs and expected outputs come from: the
    package under test and this benchmark's own modules (tests excluded).
    A change to either gives new cache directories."""
    files = sorted(glob.glob(os.path.join(ROOT, 'pii_detector_ray', '**', '*'), recursive=True)
                   + glob.glob(os.path.join(BENCH_DIR, '*.py')))
    h = hashlib.sha256()
    for path in files:
        if os.path.isfile(path) and '__pycache__' not in path:
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, 'rb') as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def cache_dir(root: str, workload: str, seed: int) -> str:
    """This workload's and seed's cache directory; directories made from
    other sources are removed."""
    digest = source_digest()
    if os.path.isdir(root):
        for name in os.listdir(root):
            if not name.startswith(digest + '-'):
                shutil.rmtree(os.path.join(root, name), ignore_errors=True)
    return os.path.join(root, f'{digest}-{workload}-{seed}')


def _pages(out_dir: str, seed: int, n_rows: int, dup_url_frac: float,
           n_shards: int = PAGES_SHARDS) -> str:
    from pii_detector_ray.sources.pages import PagesSpec, generate_pages
    spec = PagesSpec(n_rows=n_rows, n_shards=n_shards, seed=seed,
                     dup_url_frac=dup_url_frac)
    return generate_pages(out_dir, spec)


def _rewrite_shards(src_dir: str, dst_dir: str, fn) -> str:
    os.makedirs(dst_dir, exist_ok=True)
    for path in sorted(glob.glob(os.path.join(src_dir, '*.parquet'))):
        pq.write_table(fn(pq.read_table(path), os.path.basename(path)),
                       os.path.join(dst_dir, os.path.basename(path)))
    return dst_dir


def html_only(table: pa.Table, _name: str = '') -> pa.Table:
    """An html-only crawl: ``text`` is NULL in every row."""
    idx = table.schema.get_field_index('text')
    return table.set_column(idx, 'text', pa.nulls(len(table), pa.string()))


def within_shard_dups(table: pa.Table, seed: int, shard: str,
                      frac: float = DEDUP_DUP_FRAC) -> pa.Table:
    """Give ``frac`` of the rows the url of an earlier row of the same shard.

    Kept within a shard so every duplicate lands in the same partition of
    ``run_partitioned`` (which dedups per partition): the surviving urls are
    then unique across the whole output.  Later rows keep their own later
    ``warc_ts``, so the earliest capture is the winner."""
    rng = np.random.default_rng([seed, int(shard.split('-')[1].split('.')[0]), 7])
    urls = table.column('url').to_pylist()
    for i in range(1, len(urls)):
        if rng.random() < frac:
            urls[i] = urls[int(rng.integers(0, i))]
    idx = table.schema.get_field_index('url')
    return table.set_column(idx, 'url', pa.array(urls, pa.string()))


def pages_input(cache: str, workload: str, seed: int) -> str:
    """Directory of pages shards for a pipeline workload."""
    if workload == 'webtext_default':
        return _pages(os.path.join(cache, 'base'), seed, PAGES_ROWS, 0.02)
    if workload == 'html_gopher':
        out = os.path.join(cache, 'html')
        if not os.path.exists(out + '.done'):
            base = _pages(os.path.join(cache, 'base'), seed, PAGES_ROWS, 0.02)
            shutil.rmtree(out, ignore_errors=True)
            _rewrite_shards(base, out, html_only)
            open(out + '.done', 'w').close()
        return out
    if workload == 'dedup_resume':
        out = os.path.join(cache, 'dups')
        if not os.path.exists(out + '.done'):
            base = _pages(os.path.join(cache, 'base'), seed, DEDUP_ROWS, 0.0, DEDUP_SHARDS)
            shutil.rmtree(out, ignore_errors=True)
            _rewrite_shards(base, out, lambda t, name: within_shard_dups(t, seed, name))
            open(out + '.done', 'w').close()
        return out
    raise ValueError(workload)


def _events(rng: np.random.Generator) -> pa.Table:
    n = EVENTS_ROWS
    base_us = 1_704_067_200_000_000          # 2024-01-01
    step = 30 * 86_400_000_000 // n          # spread over 30 days, arrival order
    ts = base_us + np.arange(n, dtype=np.int64) * step + rng.integers(0, step, n)
    value = np.maximum(np.round(rng.exponential(50.0, n), 2), 0.01)
    return pa.table({
        'event_id': pa.array(np.arange(n, dtype=np.int64)),
        'ts': pa.array(ts, pa.timestamp('us')),
        'user_id': pa.array(rng.integers(0, EVENTS_USERS, n, dtype=np.int64)),
        'event_type': pa.array([EVENT_TYPES[i] for i in rng.integers(0, len(EVENT_TYPES), n)],
                               pa.string()),
        'value': pa.array(value, pa.float64()),
        'props': pa.array([f'{{"k": {k}}}' for k in rng.integers(0, 100, n)], pa.string()),
    })


def _lineitem(rng: np.random.Generator) -> pa.Table:
    n = LINEITEM_ROWS
    return pa.table({
        'l_quantity': pa.array(rng.integers(1, 51, n).astype(np.float64)),
        'l_extendedprice': pa.array(np.round(rng.uniform(900.0, 105_000.0, n), 2)),
        'l_returnflag': pa.array([('A', 'N', 'R')[i] for i in rng.integers(0, 3, n)],
                                 pa.string()),
    })


def _documents(rng: np.random.Generator) -> pa.Table:
    n = DOCUMENTS_ROWS
    texts = [' '.join(rng.choice(DOC_VOCAB, int(k))) for k in rng.integers(10, 100, n)]
    return pa.table({
        'doc_id': pa.array(np.arange(n, dtype=np.int64)),
        'text': pa.array(texts, pa.string()),
        'lang': pa.array(list(rng.choice(DOC_LANGS, n, p=DOC_LANG_P)), pa.string()),
        'source': pa.array([f'src{i % 20}' for i in range(n)], pa.string()),
        'n_chars': pa.array([len(t) for t in texts], pa.int64()),
    })


def gate_tables(cache: str, seed: int) -> str:
    """Directory holding ``events``, ``lineitem`` and ``documents`` Parquet."""
    out = os.path.join(cache, 'tables')
    if os.path.exists(out + '.done'):
        return out
    os.makedirs(out, exist_ok=True)
    rng = np.random.default_rng([seed, 11])
    for name, make in (('events', _events), ('lineitem', _lineitem),
                       ('documents', _documents)):
        pq.write_table(make(rng), os.path.join(out, f'{name}.parquet'))
    open(out + '.done', 'w').close()
    return out
