"""Conformance of the exact url dedup (``dedup_exact_by_url``) against a
serial reference: per url, the row with the least
``(warc_ts is NULL, warc_ts, md5(text))`` — the rule ``perfbench`` checks
the pipeline against."""

import hashlib
import os
import time

import numpy as np
import pyarrow as pa
import ray
import ray.data

from pii_detector_ray.pipelines.quality_filter import dedup_exact_by_url

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
    out_ds = dedup_exact_by_url(
        ray.data.from_arrow(blocks).map_batches(spread, batch_format='pyarrow'))
    parts = [t for t in ray.get(out_ds.to_arrow_refs()) if t.num_rows]
    for t in parts:
        assert t.schema.names == _SCHEMA.names
        assert t.schema.types == _SCHEMA.types
        assert '_wkey' not in t.schema.names and '_bk' not in t.schema.names
    got = pa.concat_tables(parts)
    assert len(list(tmp_path.glob('pid-*'))) >= 2
    assert got.num_rows == len({r['url'] for r in rows})        # one row per url
    assert len(set(got.column('url').to_pylist())) == got.num_rows
    assert _rows(got) == _reference(rows)
