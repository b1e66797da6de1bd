"""Expected outputs and the scores that compare a job's output with them.

Pipelines are checked against the serial oracle (``run_oracle``) on a seeded
sample of urls — every row whose url hashes into the sample, so duplicate
captures of a url are always checked together.  The gate queries are checked
against DuckDB running their ``oracle_sql()`` over the same tables, and
``scrub_documents`` (which has no SQL oracle) against a serial per-document
scan.  Oracle outputs are cached beside the inputs, per seed and per digest
of the package's and the benchmark's source (``inputs.source_digest``).
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

# one url in SAMPLE_MOD is checked (~500 rows of a 5k-row corpus)
SAMPLE_MOD = 10

OUTPUT_COLUMNS = ['url', 'warc_ts', 'extracted_text', 'keep', 'drop_reason',
                  'scrubbed_text', 'pii_spans', 'lang_pred', 'is_phi', 'n_pii']


def sampled(url: str) -> bool:
    return zlib.crc32(url.encode('utf-8')) % SAMPLE_MOD == 0


# --------------------------------------------------------------------------
# scores
# --------------------------------------------------------------------------

def f1(tp: int, fp: int, fn: int) -> float:
    """F1 with the empty case (nothing expected, nothing found) scored 1."""
    if tp + fp + fn == 0:
        return 1.0
    return 2 * tp / (2 * tp + fp + fn)


def keepdrop_f1(expected: dict, got: dict) -> float:
    """F1 of the keep label over the expected rows; a missing row is a drop."""
    tp = fp = fn = 0
    for key, keep in expected.items():
        mine = got.get(key, False)
        tp += keep and mine
        fp += mine and not keep
        fn += keep and not mine
    fp += sum(1 for key, keep in got.items() if key not in expected and keep)
    return f1(tp, fp, fn)


def span_f1(expected: set, got: set) -> float:
    return f1(len(expected & got), len(got - expected), len(expected - got))


def identical_frac(expected: dict, got: dict) -> float:
    """Matches over max(expected, got) rows: a row that differs, is missing,
    or is extra counts against the fraction."""
    n = max(len(expected), len(got))
    if n == 0:
        return 1.0
    return sum(1 for k, v in expected.items() if k in got and got[k] == v) / n


def compare_rows(expected: list[dict], got: list[dict]) -> dict:
    """Score output rows against oracle rows, both keyed by (url, warc_ts).

    Rows are in the form of ``compact_row``.  ``oracle_match_frac`` is the
    share of rows reproduced field for field."""
    exp = {(r['url'], r['warc_ts']): r for r in expected}
    mine = {(r['url'], r['warc_ts']): r for r in got}

    def spans(rows: dict) -> set:
        return {(k, *s[:3]) for k, r in rows.items() for s in r['spans']}

    return {
        'keepdrop_f1': keepdrop_f1({k: r['keep'] for k, r in exp.items()},
                                   {k: r['keep'] for k, r in mine.items()}),
        'span_f1': span_f1(spans(exp), spans(mine)),
        'text_identical_frac': identical_frac(
            {k: r['extracted_text'] for k, r in exp.items()},
            {k: r['extracted_text'] for k, r in mine.items()}),
        'oracle_match_frac': identical_frac(exp, mine),
    }


def passes(quality: dict) -> bool:
    """The north rule: every score at or above the floor."""
    from perfbench.metrics import QUALITY_FLOOR
    return all(v >= QUALITY_FLOOR for v in quality.values())


# --------------------------------------------------------------------------
# pipeline rows
# --------------------------------------------------------------------------

def _ts_us(ts) -> int | None:
    if ts is None:
        return None
    if isinstance(ts, (int, np.integer)):
        return int(ts)
    return int(pd.Timestamp(ts).value // 1000)


def compact_row(row: dict) -> dict:
    """The fields a pipeline output row is checked on, JSON-ready."""
    return {
        'url': row['url'],
        'warc_ts': _ts_us(row['warc_ts']),
        'extracted_text': row['extracted_text'],
        'keep': bool(row['keep']),
        'drop_reason': row['drop_reason'],
        'scrubbed_text': row['scrubbed_text'],
        'spans': [[s['type'], int(s['start']), int(s['end']), s['hash'], s['masked']]
                  for s in row['pii_spans']],
        'lang_pred': row['lang_pred'],
        'is_phi': bool(row['is_phi']),
        'n_pii': int(row['n_pii']),
    }


def read_output(paths: list[str] | str, columns: list[str] | None = None) -> pa.Table | None:
    """All Parquet files under ``paths`` as one table (None if there are none)."""
    files: list[str] = []
    for p in [paths] if isinstance(paths, str) else paths:
        files += sorted(glob.glob(os.path.join(p, '**', '*.parquet'), recursive=True))
    tables = [pq.read_table(f, columns=columns).replace_schema_metadata(None) for f in files]
    return pa.concat_tables(tables) if tables else None


def sampled_output(out_dirs: list[str] | str) -> tuple[list[dict], int, int]:
    """(compact sampled rows, total rows, distinct urls) of a pipeline output."""
    table = read_output(out_dirs, OUTPUT_COLUMNS)
    if table is None:
        return [], 0, 0
    urls = table.column('url').to_pylist()
    mask = pa.array([sampled(u) for u in urls], pa.bool_())
    rows = [compact_row(r) for r in table.filter(mask).to_pylist()]
    return rows, len(urls), len(set(urls))


def pipeline_oracle(pages_dir: str, cfg, *, dedup: bool = False,
                    keep_only: bool = False) -> dict:
    """Oracle rows for the sampled urls, plus whole-corpus counts.

    With ``dedup`` the winner per url is the earliest capture (ties by text
    md5), as in ``dedup_exact_by_url``; with ``keep_only`` dropped rows go."""
    from pii_detector_ray.oracle import run_oracle, url_passes_filters
    rows = pq.read_table(pages_dir).to_pylist()
    passing = [r for r in rows if url_passes_filters(r['url'], cfg, r.get('html'))]
    out = [compact_row(r) for r in run_oracle([r for r in rows if sampled(r['url'])], cfg)]
    if dedup:
        best: dict[str, tuple] = {}
        for r in out:
            key = (r['warc_ts'] is None, r['warc_ts'] or 0,
                   hashlib.md5(r['extracted_text'].encode('utf-8')).hexdigest())
            if r['url'] not in best or key < best[r['url']][0]:
                best[r['url']] = (key, r)
        out = [r for _, r in best.values()]
    if keep_only:
        out = [r for r in out if r['keep']]
    return {'rows': out, 'rows_passing': len(passing),
            'urls_passing': len({r['url'] for r in passing})}


def rescan_oracle(rows: list[dict], only: list[str]) -> list[dict]:
    """Expected rescan findings for oracle rows: the delta detectors, NER off."""
    from pii_detector_ray.config import PipelineConfig
    from pii_detector_ray.scan import scan_text, scrub_text
    from pii_detector_ray.stages.scrub import detectors_from_config
    dets = detectors_from_config(PipelineConfig(rescan_only=only))
    out = []
    for r in rows:
        spans = scan_text(r['extracted_text'], dets, ner=False)
        if spans:
            out.append({'url': r['url'], 'scrubbed_text': scrub_text(r['extracted_text'], spans),
                        'n_pii': len(spans)})
    return out


# --------------------------------------------------------------------------
# gate queries
# --------------------------------------------------------------------------

def normalize(df: pd.DataFrame) -> pd.DataFrame:
    """Order- and dtype-insensitive form of a query result (as the repo's
    DuckDB tests compare them): sorted columns and rows, floats to 6 places."""
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype('float64').round(6)
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype('int64')
        elif pd.api.types.is_bool_dtype(df[c]):
            df[c] = df[c].astype('bool')
        else:
            df[c] = df[c].astype('string')
    return df.sort_values(list(df.columns), kind='mergesort').reset_index(drop=True)


def frames_equal(got: pd.DataFrame, exp: pd.DataFrame) -> bool:
    if list(got.columns) != list(exp.columns) or len(got) != len(exp):
        return False
    for c in got.columns:
        if pd.api.types.is_float_dtype(got[c]):
            if not np.allclose(got[c].to_numpy(), exp[c].to_numpy(),
                               rtol=1e-9, atol=1e-9, equal_nan=True):
                return False
        elif (got[c].fillna('<NA>') != exp[c].fillna('<NA>')).any():
            return False
    return True


def scrub_documents_oracle(tables_dir: str) -> pd.DataFrame:
    """Serial mirror of ``q_scrub_documents``: augment, scan, mask per doc."""
    from pii_detector_ray.config import PipelineConfig
    from pii_detector_ray.queries import person_augment_text
    from pii_detector_ray.scan import scan_text, scrub_text
    from pii_detector_ray.sources.docs_adapter import augment_text
    from pii_detector_ray.stages.scrub import detectors_from_config
    cfg = PipelineConfig()
    dets = detectors_from_config(cfg)
    docs = pq.read_table(os.path.join(tables_dir, 'documents.parquet'),
                         columns=['doc_id', 'text']).to_pylist()
    out: dict[str, list] = {'doc_id': [], 'scrubbed_text': [], 'n_pii': [], 'n_person': []}
    for d in docs:
        text = person_augment_text(d['doc_id'], augment_text(d['doc_id'], d['text']))
        spans = scan_text(text, dets, ner=cfg.include_ner,
                          credential_keep_longest=cfg.credential_keep_longest)
        out['doc_id'].append(d['doc_id'])
        out['scrubbed_text'].append(scrub_text(text, spans))
        out['n_pii'].append(len(spans))
        out['n_person'].append(sum(1 for s in spans if s.type == 'PERSON'))
    return pd.DataFrame(out)


def gate_oracle(tables_dir: str, names: tuple[str, ...]) -> dict[str, pd.DataFrame]:
    """Normalized expected result per gate query."""
    import duckdb

    from pii_detector_ray.queries import oracle_sql
    sql = oracle_sql()
    con = duckdb.connect()
    try:
        for path in sorted(glob.glob(os.path.join(tables_dir, '*.parquet'))):
            name = os.path.basename(path)[:-len('.parquet')]
            con.execute(f"CREATE VIEW {name} AS SELECT * FROM read_parquet('{path}')")
        return {name: normalize(con.execute(sql[name]).fetchdf() if name in sql
                                else scrub_documents_oracle(tables_dir))
                for name in names}
    finally:
        con.close()


# --------------------------------------------------------------------------
# digests
# --------------------------------------------------------------------------

def table_digest(table: pa.Table | None, sort_keys: list[str]) -> str:
    """Order-independent sha256 of a table's rows."""
    h = hashlib.sha256()
    if table is not None and len(table):
        table = table.sort_by([(k, 'ascending') for k in sort_keys])
        for row in table.to_pylist():
            h.update(json.dumps(row, sort_keys=True, default=str).encode('utf-8'))
    return h.hexdigest()


def frame_digest(frames: dict[str, pd.DataFrame]) -> str:
    h = hashlib.sha256()
    for name in sorted(frames):
        h.update(name.encode())
        h.update(frames[name].to_csv(index=False).encode('utf-8'))
    return h.hexdigest()
