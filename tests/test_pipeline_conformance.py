"""End-to-end conformance: the Ray pipeline vs the serial oracle on the
synthetic smoke corpus — byte-identical extracted text per url, identical
keep/drop labels, identical span sets (the BASELINE.md correctness gates,
checked at equality, i.e. F1 == 1.0)."""

import math

import pyarrow.parquet as pq
import pytest
import ray.data

from pii_detector_ray.config import PipelineConfig
from pii_detector_ray.oracle import run_oracle
from pii_detector_ray.pipelines.quality_filter import build_pipeline


@pytest.fixture(scope='module')
def conformance(smoke_pages_dir):
    cfg = PipelineConfig()
    ds = ray.data.read_parquet(smoke_pages_dir)
    result = build_pipeline(ds, cfg).to_pandas()

    rows = pq.ParquetDataset(smoke_pages_dir).read().to_pylist()
    expected = run_oracle(rows, cfg)
    return result, expected


def _index(result):
    return {(r['url'], r['warc_ts'].to_pydatetime()): r for _, r in result.iterrows()}


def test_row_counts_match(conformance):
    result, expected = conformance
    assert len(result) == len(expected)


def test_extracted_text_byte_identical(conformance):
    result, expected = conformance
    got = _index(result)
    for exp in expected:
        row = got[(exp['url'], exp['warc_ts'])]
        assert row['extracted_text'] == exp['extracted_text'], exp['url']


def test_keep_drop_labels_match(conformance):
    result, expected = conformance
    got = _index(result)
    mismatches = []
    for exp in expected:
        row = got[(exp['url'], exp['warc_ts'])]
        if bool(row['keep']) != exp['keep']:
            mismatches.append((exp['url'], exp['drop_reason'], row['drop_reason']))
        reason = row['drop_reason'] if isinstance(row['drop_reason'], str) else None
        assert reason == exp['drop_reason'], (exp['url'], reason, exp['drop_reason'])
    assert not mismatches


def test_scrubbed_text_and_spans_match(conformance):
    result, expected = conformance
    got = _index(result)
    for exp in expected:
        row = got[(exp['url'], exp['warc_ts'])]
        assert row['scrubbed_text'] == exp['scrubbed_text'], exp['url']
        got_spans = list(row['pii_spans'])
        assert len(got_spans) == len(exp['pii_spans']), exp['url']
        for g, e in zip(got_spans, exp['pii_spans']):
            assert g['type'] == e['type']
            assert g['start'] == e['start'] and g['end'] == e['end']
            assert g['hash'] == e['hash'] and g['masked'] == e['masked']
            assert math.isclose(g['score'], e['score'], rel_tol=1e-6)
            assert bool(g['is_custom_regex']) == e['is_custom_regex']


def test_scores_match(conformance):
    result, expected = conformance
    got = _index(result)
    for exp in expected:
        row = got[(exp['url'], exp['warc_ts'])]
        assert row['lang_pred'] == exp['lang_pred']
        assert math.isclose(row['lang_conf'], exp['lang_conf'], rel_tol=1e-9, abs_tol=1e-12)
        assert math.isclose(row['perplexity'], exp['perplexity'], rel_tol=1e-9)
        assert math.isclose(row['toxicity'], exp['toxicity'], rel_tol=1e-9)
        assert bool(row['is_phi']) == exp['is_phi']


def test_truth_spans_recalled(smoke_pages_dir, conformance):
    """Injected PII values must be found (recall sanity vs generator truth)."""
    import os
    result, expected = conformance
    truth = pq.read_table(os.path.join(os.path.dirname(smoke_pages_dir),
                                       'pii_truth.parquet')).to_pylist()
    exp_by_url: dict[str, list] = {}
    for e in expected:
        exp_by_url.setdefault(e['url'], []).append(e)
    missed = 0
    total = 0
    for t in truth:
        total += 1
        rows = exp_by_url.get(t['url'], [])
        found = any(
            any(s['start'] <= t['start'] and s['end'] >= t['end'] and s['type'] == t['type']
                for s in r['pii_spans'])
            for r in rows)
        if not found:
            missed += 1
    assert total > 0
    assert missed / total < 0.02, f'{missed}/{total} injected PII values not recalled'


def test_big_conformance_correctness_corpus():
    """Full conformance at the 5k-row 'correctness' size (slow; opt-in via
    GRAFT_BIG_CONFORMANCE=1 — the driver's default run covers smoke)."""
    import os
    if not os.environ.get('GRAFT_BIG_CONFORMANCE'):
        pytest.skip('set GRAFT_BIG_CONFORMANCE=1 to run')
    from pii_detector_ray.sources.pages import ensure_corpus
    pages = ensure_corpus('correctness')
    cfg = PipelineConfig()
    result = build_pipeline(ray.data.read_parquet(pages), cfg).to_pandas()
    rows = pq.ParquetDataset(pages).read().to_pylist()
    expected = run_oracle(rows, cfg)
    assert len(result) == len(expected)
    got = _index(result)
    bad = 0
    for exp in expected:
        row = got[(exp['url'], exp['warc_ts'])]
        if (row['extracted_text'] != exp['extracted_text']
                or bool(row['keep']) != exp['keep']
                or row['scrubbed_text'] != exp['scrubbed_text']
                or len(row['pii_spans']) != len(exp['pii_spans'])):
            bad += 1
    assert bad == 0, f'{bad}/{len(expected)} rows diverged'


def test_stopword_rule_fail_equals_exact_counts():
    """The early-exit rule evaluator must equal the exact-count rule
    ``(sw >= 0) & (sw < min_hits)`` on adversarial texts, at several
    thresholds."""
    import numpy as np

    from pii_detector_ray.models.seeds import STOPWORDS
    from pii_detector_ray.stages.keepdrop import (
        stopword_hits_arrays,
        stopword_rule_fail,
    )
    samples = []
    for lang, ws in STOPWORDS.items():
        ws = list(ws)
        samples += [
            ('', lang),
            (ws[0], lang),                                   # 1 distinct
            (ws[0] + ' ' + ws[0], lang),                     # still 1 distinct
            (ws[0] + ' ' + ws[1], lang),                     # 2 distinct
            (' '.join(ws), lang),                            # all distinct
            ('x' * 50 + ' ' + ws[2], lang),                  # late single hit
            ('no hits at all 123', lang),
        ]
    samples.append(('any text', 'zz'))                        # no list -> skip
    texts = np.asarray([t for t, _ in samples], dtype=object)
    langs = np.asarray([l for _, l in samples], dtype=object)
    sw = stopword_hits_arrays(texts, langs)
    for min_hits in (1, 2, 3, 10):
        got = stopword_rule_fail(texts, langs, min_hits)
        exp = (sw >= 0) & (sw < min_hits)
        assert (got == exp).all(), (min_hits, list(zip(samples, got, exp)))


def test_toxicity_prefilter_equals_full_scan():
    """The RE2-prefiltered toxicity scan must equal a full Python megastring
    scan — incl. case variants, boundary-adjacent unicode (Python \\b is
    Unicode-aware: 'éhate' has NO boundary), and multi-hit docs."""
    import numpy as np

    from pii_detector_ray.models.textmodel import ToxicityModel
    tox = ToxicityModel()
    texts = [
        'clean document about markets and weather',
        'you are stupid and an idiot',
        'HATE Hate hate',                       # case folding, 3 hits
        'éhate xhate hateé',                    # unicode/word-adjacent: 0 hits
        'shut up please',                       # two-token lexicon entry
        'whitehate',                            # substring but no boundary
        '',
        'trash. garbage! loser?',               # punctuation boundaries
    ]
    got = tox.score_batch(texts)
    # expected via the unfiltered per-doc scan with the same pattern
    exp_hits = np.array([len(tox.pattern.findall(t)) for t in texts],
                        dtype=np.float64)
    n_words = np.array([len(tox.word.findall(t)) for t in texts],
                       dtype=np.float64)
    density = exp_hits / np.maximum(n_words, 1.0)
    exp = 1.0 / (1.0 + np.exp(-tox.steepness * (density - tox.midpoint)))
    assert np.allclose(got, exp, rtol=0, atol=0)
    assert exp_hits[3] == 0 and exp_hits[5] == 0     # the tricky rows
    assert exp_hits[2] == 3 and exp_hits[7] == 3


def test_keepdrop_stopwords_combined_equals_per_word():
    """The combined-alternation megastring stopword scan equals the per-word
    oracle count on adversarial cases (prefix words, punctuation boundaries,
    case, empty/multilingual rows)."""
    import numpy as np

    from pii_detector_ray.models.seeds import STOPWORDS
    from pii_detector_ray.oracle import oracle_stopword_hits
    from pii_detector_ray.stages.keepdrop import stopword_hits_arrays
    langs = list(STOPWORDS)
    samples = []
    for lang in langs:
        ws = list(STOPWORDS[lang])
        samples += [
            (' '.join(ws[:3]) + ' filler', lang),
            (ws[0].upper() + ',' + ws[0] + 'x ' + ws[-1], lang),
            ('', lang),
            ('nothing matching here 123', lang),
            (ws[0] * 3 + ' ' + ws[0], lang),
        ]
    samples.append(('some text', 'zz'))           # no stopword list -> -1
    texts = np.array([t for t, _ in samples], dtype=object)
    langs = np.array([l for _, l in samples], dtype=object)
    got = stopword_hits_arrays(texts, langs)
    exp = np.array([oracle_stopword_hits(t, l) for t, l in samples])
    assert (got == exp).all(), list(zip(samples, got, exp))
