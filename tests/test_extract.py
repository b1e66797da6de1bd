"""Extraction byte-identity tests (P1 fallback semantics,
file_service.py:415: decode(errors='replace'))."""

import pyarrow as pa

from pii_detector_ray.stages.extract import extract_batch, extract_html, extract_row


def test_extract_html_strips_tags_and_unescapes():
    raw = b'<html><head><title>t</title><style>p{}</style></head><body><p>a &amp; b</p></body></html>'
    assert extract_html(raw) == 'ta & b'


def test_extract_html_invalid_utf8_replacement():
    raw = b'<p>ok \xff\xfe\x80 end</p>'
    out = extract_html(raw)
    assert out == 'ok ��� end'


def test_extract_row_prefers_text():
    assert extract_row('already here', b'<p>other</p>') == 'already here'
    assert extract_row(None, b'<p>other</p>') == 'other'
    assert extract_row(None, None) == ''


def test_extract_batch_mixed_nulls():
    batch = pa.table({
        'url': ['a', 'b', 'c'],
        'html': pa.array([None, b'<p>from html</p>', b'<p>x</p>'], pa.binary()),
        'text': pa.array(['plain', None, None], pa.string()),
    })
    out = extract_batch(batch)
    assert out.column('extracted_text').to_pylist() == ['plain', 'from html', 'x']


def test_extract_batch_no_nulls_zero_copy_path():
    batch = pa.table({'url': ['a'], 'text': pa.array(['t'], pa.string())})
    out = extract_batch(batch)
    assert out.column('extracted_text').to_pylist() == ['t']


def test_url_filter_null_urls():
    """A NULL url matches no pattern: the exclusions keep it, the
    inclusions drop it, and a batch of only NULL urls is filtered too."""
    from pii_detector_ray.config import PipelineConfig
    from pii_detector_ray.stages.extract import make_url_filter
    urls = pa.table({'url': pa.array([None, 'https://a.example/x.jpg',
                                      'https://a.example/blog', 'https://a.example/p'],
                                     pa.string())})
    kept = make_url_filter(PipelineConfig())(urls).column('url').to_pylist()
    assert kept == [None, 'https://a.example/p']
    nulls = pa.table({'url': pa.array([None, None], pa.string())})
    assert make_url_filter(PipelineConfig())(nulls).num_rows == 2
    for include in ({'url_include_regex': 'example'},
                    {'url_include_set': ['https://a.example/p']}):
        kept = make_url_filter(PipelineConfig(**include))(urls).column('url').to_pylist()
        assert kept == ['https://a.example/p']
        assert make_url_filter(PipelineConfig(**include))(nulls).num_rows == 0
