"""Alternate-format ingest → flagship pipeline."""

import json

from pii_detector_ray.config import PipelineConfig
from pii_detector_ray.pipelines.quality_filter import build_pipeline
from pii_detector_ray.sources.ingest import (
    read_pages_csv,
    read_pages_json,
    read_pages_text,
)

DOC = ('The children walk to the market and the weather is pleasant this '
       'morning and the teacher explains the lesson slowly. ' * 4)


def test_csv_ingest_runs_pipeline(tmp_path):
    p = tmp_path / 'pages.csv'
    p.write_text('url,text,lang\nhttps://a.com/1,"%s",en\n' % DOC)
    out = build_pipeline(read_pages_csv(str(p)), PipelineConfig()).to_pandas()
    assert len(out) == 1
    assert out['extracted_text'].iloc[0] == DOC
    assert bool(out['keep'].iloc[0])


def test_json_ingest_missing_columns_null(tmp_path):
    p = tmp_path / 'pages.jsonl'
    rows = [{'url': 'https://a.com/1', 'text': DOC},
            {'url': 'https://a.com/2', 'text': 'short'}]
    p.write_text('\n'.join(json.dumps(r) for r in rows))
    out = build_pipeline(read_pages_json(str(p)), PipelineConfig()).to_pandas().set_index('url')
    assert bool(out.loc['https://a.com/1', 'keep'])
    assert out.loc['https://a.com/2', 'drop_reason'] == 'too_short'


def test_text_ingest_html_fallback(tmp_path):
    p = tmp_path / 'page.html'
    p.write_text(f'<html><body><p>{DOC}</p></body></html>')
    out = build_pipeline(read_pages_text(str(p)), PipelineConfig()).to_pandas()
    assert len(out) == 1
    assert out['extracted_text'].iloc[0] == DOC


def test_warc_roundtrip_plain_and_gzip(tmp_path):
    """WARC writer → parser roundtrip: urls, dates, HTTP body stripping; the
    Common Crawl member-gzip layout parses identically."""
    from pii_detector_ray.sources.ingest import parse_warc, write_warc
    recs = [
        ('https://a.example.com/1', '2024-03-01T12:00:00Z',
         b'<html><body>mail jwhite@domain.com</body></html>'),
        ('https://b.example.com/2', '2024-03-02T00:30:00Z',
         b'<html><body>plain page</body></html>'),
    ]
    for gz, name in ((False, 'x.warc'), (True, 'x.warc.gz')):
        p = str(tmp_path / name)
        write_warc(recs, p, gzip_members=gz)
        parsed = parse_warc(open(p, 'rb').read())
        assert [(u, b) for u, _, b in parsed] == [(u, b) for u, _, b in recs]
        from datetime import datetime, timezone
        exp_ts = int(datetime(2024, 3, 1, 12, tzinfo=timezone.utc)
                     .timestamp() * 1_000_000)
        assert parsed[0][1] == exp_ts


def test_warc_to_pages_pipeline(tmp_path):
    """read_pages_warc conforms to the pages schema and feeds the flagship
    pipeline end-to-end (extract pulls text out of the html payload)."""
    from pii_detector_ray.config import PipelineConfig
    from pii_detector_ray.pipelines.quality_filter import build_pipeline
    from pii_detector_ray.sources.ingest import read_pages_warc, write_warc
    body = ('word ' * 60 + 'ssn 172-32-1176 and the morning train arrives '
            + 'with people walking to the market every day to buy bread '
            * 3).encode()
    recs = [(f'https://w{i}.example.com/p', '2024-01-05T00:00:00Z',
             b'<html><body><p>' + body + b'</p></body></html>')
            for i in range(6)]
    p = str(tmp_path / 'crawl.warc.gz')
    write_warc(recs, p, gzip_members=True)
    ds = read_pages_warc(p)
    assert ds.schema().names == ['url', 'warc_ts', 'html', 'text', 'lang']
    out = build_pipeline(ds, PipelineConfig()).to_pandas()
    assert len(out) == 6
    assert (out['n_pii'] >= 1).all()               # the ssn is found
    assert out['extracted_text'].str.contains('172-32-1176').all()
    assert not out['scrubbed_text'].str.contains('172-32-1176').any()


def test_warc_fractional_second_date():
    from datetime import datetime, timezone

    from pii_detector_ray.sources.ingest import parse_warc, write_warc
    rec = [('https://f.example.com/x', '2024-03-01T12:00:00.123456Z',
            b'<html>f</html>')]
    import io
    buf = io.BytesIO()
    # write_warc emits the date string verbatim
    write_warc(rec, '/tmp/warc_frac.warc')
    parsed = parse_warc(open('/tmp/warc_frac.warc', 'rb').read())
    exp = int(datetime(2024, 3, 1, 12, 0, 0, 123456,
                       tzinfo=timezone.utc).timestamp() * 1_000_000)
    assert parsed[0][1] == exp


def test_read_pages_orc(tmp_path):
    import pyarrow as pa
    import pyarrow.orc as orc

    from pii_detector_ray.sources.ingest import read_pages_orc
    t = pa.table({'url': [f'https://o{i}.example.com/p' for i in range(4)],
                  'text': ['orc page text with words here'] * 4,
                  'extra_col': [1, 2, 3, 4]})
    path = str(tmp_path / 'pages.orc')
    orc.write_table(t, path)
    ds = read_pages_orc(path)
    assert ds.schema().names == ['url', 'warc_ts', 'html', 'text', 'lang']
    df = ds.to_pandas()
    assert len(df) == 4
    assert df['text'].iloc[0] == 'orc page text with words here'
    assert df['warc_ts'].isna().all()            # missing columns -> nulls


def test_clean_schema_heterogeneous_files_falls_back(tmp_path):
    """r3 review: imposing file1's footer schema on a file set where file2
    has an extra column would silently drop it — clean_schema must return
    None so the caller takes Ray's schema-unification path."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pii_detector_ray.sources.pqread import clean_schema

    pq.write_table(pa.table({'a': [1]}), tmp_path / 'f1.parquet')
    pq.write_table(pa.table({'a': [2], 'lang': ['en']}),
                   tmp_path / 'f2.parquet')
    assert clean_schema(str(tmp_path)) is None
    # homogeneous set still yields the stripped schema
    pq.write_table(pa.table({'a': [3], 'lang': ['de']}),
                   tmp_path / 'f1.parquet')
    sch = clean_schema(str(tmp_path))
    assert sch is not None and sch.names == ['a', 'lang']
