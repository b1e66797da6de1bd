"""Conformance of the exact url dedup (``dedup_exact_by_url``) against a
serial reference: per url, the row with the least
``(warc_ts is NULL, warc_ts, md5(text))`` — the rule ``perfbench`` checks
the pipeline against.  Checked on its own and through ``run_partitioned``,
on many blocks, on one block and on degenerate inputs."""

import glob
import hashlib
import os
import time
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
import ray.data

from pii_detector_ray.config import PipelineConfig
from pii_detector_ray.pipelines.quality_filter import (
    build_pipeline,
    dedup_exact_by_url,
    read_blocks,
    read_pages,
)
from pii_detector_ray.pipelines.runner import run_partitioned
from pii_detector_ray.sources.pages import PAGES_SCHEMA, PagesSpec, generate_pages
from pii_detector_ray.state.manifest import read_manifest

_SCHEMA = pa.schema([('url', pa.string()), ('warc_ts', pa.timestamp('us')),
                     ('lang', pa.string()), ('extracted_text', pa.string())])


def _corpus(n_urls: int = 1600, seed: int = 11) -> list[dict]:
    """~2.5k rows, 30% of urls repeated: later captures, NULL and negative
    timestamps, NULL text, byte-identical copies of earlier rows, and a
    few NULL urls (one group)."""
    rng = np.random.default_rng(seed)
    rows = []
    for u in range(n_urls):
        url = None if u in (0, 3, 6) else f'https://site{u % 97}.example/p/{u}'
        lang = ('en', 'de', None)[u % 3]            # fixed per url: copies of
                                                    # a row are whole-row ties
        def capture():
            r = rng.random()
            ts = (None if r < 0.1 else int(rng.integers(-10**12, 0)) if r < 0.25
                  else int(rng.integers(0, 10**6)) * 1000)
            text = None if rng.random() < 0.1 else f'doc {u} v{rng.integers(10**9)}'
            return {'url': url, 'warc_ts': ts, 'lang': lang, 'extracted_text': text}
        group = [capture()]
        if rng.random() < 0.3:
            for _ in range(int(rng.integers(1, 4))):
                group.append(dict(group[0]) if rng.random() < 0.3 else capture())
        rows += group
    return [rows[i] for i in rng.permutation(len(rows))]


def _key(r: dict) -> tuple:
    text = (r['extracted_text'] or '').encode('utf-8')
    return (r['warc_ts'] is None, r['warc_ts'] or 0, hashlib.md5(text).hexdigest())


def _by_url(rows) -> list[tuple]:
    return sorted(rows, key=lambda r: (r[0] is None, r[0] or ''))


def _reference(rows: list[dict]) -> list[tuple]:
    best: dict[str | None, dict] = {}
    for r in rows:
        if r['url'] not in best or _key(r) < _key(best[r['url']]):
            best[r['url']] = r
    return _by_url(tuple(r.values()) for r in best.values())


def _rows(t: pa.Table) -> list[tuple]:
    ts = t.column('warc_ts').cast(pa.int64()).to_pylist()
    return _by_url(zip(t.column('url').to_pylist(), ts, t.column('lang').to_pylist(),
                       t.column('extracted_text').to_pylist()))


def test_dedup_exact_by_url_matches_serial_reference(tmp_path, monkeypatch):
    assert ray.cluster_resources().get('CPU', 0) >= 2
    rows = _corpus()
    table = pa.Table.from_pylist(rows, schema=_SCHEMA)
    blocks = [table.slice(i, 250) for i in range(0, len(table), 250)]
    assert len(table) >= 2000 and len(blocks) >= 8

    # the shapes the test exists for are really there
    where: dict[str | None, set] = {}            # url -> blocks holding it
    counts: dict[tuple, set] = {}                # row -> blocks holding it
    for b, blk in enumerate(blocks):
        for r in blk.to_pylist():
            where.setdefault(r['url'], set()).add(b)
            counts.setdefault(tuple(r.items()), set()).add(b)
    split = sum(len(v) > 1 for v in where.values())
    assert 0.25 <= split / len(where) <= 0.35     # repeated urls, across blocks
    assert sum(len(v) > 1 for v in counts.values()) >= 20       # cross-block full ties
    assert any(r['warc_ts'] is None for r in rows)
    assert any(r['warc_ts'] is not None and r['warc_ts'] < 0 for r in rows)
    assert any(r['extracted_text'] is None for r in rows)
    assert sum(r['url'] is None for r in rows) >= 3

    def spread(t: pa.Table) -> pa.Table:
        # fused with the dedup's key map: note the process, so the test
        # knows buckets came from several (a per-process salted hash would
        # split a url's rows)
        time.sleep(0.5)
        (tmp_path / f'pid-{os.getpid()}').touch()
        return t

    # Ray Data's per-operator reservations would run the key map one task
    # at a time ahead of the shuffle on a small cluster; lift them so the
    # blocks spread over workers
    monkeypatch.setattr(ray.data.DataContext.get_current(),
                        'op_resource_reservation_enabled', False)
    got = pa.concat_tables(_typed_parts(dedup_exact_by_url(
        ray.data.from_arrow(blocks).map_batches(spread, batch_format='pyarrow'))))
    assert len(list(tmp_path.glob('pid-*'))) >= 2
    assert got.num_rows == len({r['url'] for r in rows})        # one row per url
    assert len(set(got.column('url').to_pylist())) == got.num_rows
    assert _rows(got) == _reference(rows)

    # one block, the shape Ray's sampled sort gave a single reducer: the
    # fixed bucket boundaries still split it over the CPUs
    parts = _typed_parts(dedup_exact_by_url(ray.data.from_arrow(table)))
    assert len(parts) >= 2
    assert _rows(pa.concat_tables(parts)) == _reference(rows)


def _typed_parts(ds: ray.data.Dataset) -> list[pa.Table]:
    """The non-empty blocks of a dedup output, each checked to carry the
    input's columns and types and none of the dedup's own."""
    parts = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    for t in parts:
        assert t.schema.names == _SCHEMA.names
        assert t.schema.types == _SCHEMA.types
    return parts


def _read_dir(path) -> pa.Table | None:
    """The Parquet files under ``path`` as one table sorted by url (one row
    per url), or None when no file was written."""
    files = sorted(glob.glob(os.path.join(str(path), '*.parquet')))
    if not files:
        return None
    return pq.read_table(files, partitioning=None).sort_by('url') \
        .replace_schema_metadata(None)


def _serial_partition(pages_file: str, out) -> pa.Table | None:
    """The partition the url dedup must write: the pipeline run without
    the dedup (its later stages are row by row), then the serial rule."""
    build_pipeline(read_pages(pages_file), PipelineConfig()).write_parquet(str(out))
    t = _read_dir(out)
    if t is None:
        return None
    keys = [_key({'warc_ts': ts, 'extracted_text': text}) for ts, text in zip(
        t.column('warc_ts').cast(pa.int64()).to_pylist(),
        t.column('extracted_text').to_pylist())]
    best: dict[str | None, int] = {}
    for i, url in enumerate(t.column('url').to_pylist()):
        if url not in best or keys[i] < keys[best[url]]:
            best[url] = i
    return t.take(sorted(best.values())).sort_by('url')


def _counts(t: pa.Table | None) -> dict:
    """The manifest's label counts, recounted from rows."""
    rows = [] if t is None else t.select(['keep', 'drop_reason', 'pii_spans']).to_pylist()
    kept = sum(r['keep'] for r in rows)
    types = Counter(s['type'] for r in rows for s in r['pii_spans'] or ())
    return {'rows': len(rows), 'kept': kept, 'dropped': len(rows) - kept,
            'drop_reasons': dict(Counter(r['drop_reason'] for r in rows
                                         if r['drop_reason'] is not None)),
            'pii_type_counts': dict(types), 'pii_findings': sum(types.values())}


def _run_one_partition(pages_file: str, out) -> tuple[pa.Table | None, dict]:
    run_partitioned([pages_file], str(out), num_partitions=1, dedup_urls=True)
    return _read_dir(os.path.join(str(out), 'part=00000')), read_manifest(str(out), 0)


def test_one_file_partition_spreads_over_cpus(tmp_path, count_executions):
    """A one-file partition of fewer than 1,024 rows is one read block; its
    work after the dedup still runs as several tasks, in the partition's
    one Ray Data execution, and writes the serial reference's rows."""
    assert ray.cluster_resources().get('CPU', 0) >= 2
    pages = generate_pages(str(tmp_path / 'gen'), PagesSpec(
        n_rows=1000, n_shards=1, seed=7, dup_url_frac=0.3))
    files = sorted(glob.glob(os.path.join(pages, '*.parquet')))
    assert len(files) == 1 and read_blocks(1, 1000) == 1
    got, manifest = _run_one_partition(files[0], tmp_path / 'out')
    assert len(count_executions) == 1
    assert manifest['write_tasks'] >= 2
    expected = _serial_partition(files[0], tmp_path / 'ref')
    assert 0 < expected.num_rows < 1000                         # duplicates went
    assert got.equals(expected)
    assert {k: manifest[k] for k in _counts(expected)} == _counts(expected)


def _page(url, ts, text) -> dict:
    return {'url': url, 'warc_ts': ts, 'html': None, 'lang': 'en',
            'text': None if text is None else f'{text} ' * 40}


DEGENERATE = {
    'zero_rows': [],
    'three_rows': [_page(f'https://d.example/{i}', 10 - i, f'page {i}') for i in range(3)],
    # one url group: NULL timestamps last, a timestamp tie broken by the
    # text's md5, a byte-identical copy
    'null_urls': [_page(None, ts, text) for ts, text in
                  ((3, 'a'), (None, 'b'), (1, 'c'), (1, 'd'), (1, 'd'), (2, None))],
}


@pytest.mark.parametrize('name', DEGENERATE)
def test_degenerate_inputs_match_serial_reference(tmp_path, name):
    pages = DEGENERATE[name]
    rows = [{'url': r['url'], 'warc_ts': r['warc_ts'], 'lang': r['lang'],
             'extracted_text': r['text']} for r in pages]
    parts = _typed_parts(dedup_exact_by_url(
        ray.data.from_arrow(pa.Table.from_pylist(rows, schema=_SCHEMA))))
    got = pa.concat_tables(parts) if parts else pa.Table.from_pylist([], schema=_SCHEMA)
    assert _rows(got) == _reference(rows)

    pages_file = str(tmp_path / 'pages.parquet')
    pq.write_table(pa.Table.from_pylist(pages, schema=PAGES_SCHEMA), pages_file)
    got, manifest = _run_one_partition(pages_file, tmp_path / 'out')
    expected = _serial_partition(pages_file, tmp_path / 'ref')
    if expected is None:
        assert got is None and not rows
    else:
        assert got.equals(expected)
        assert got.num_rows == len({r['url'] for r in rows})
    assert {k: manifest[k] for k in _counts(expected)} == _counts(expected)
