"""Gopher repetition features: numpy stage vs Counter oracle vs DuckDB SQL,
plus the opt-in keep/drop rules."""

import duckdb
import numpy as np
import pandas as pd
import pytest

from pii_detector_ray.oracle import oracle_repetition
from pii_detector_ray.queries import _REPETITION_STATS_SQL
from pii_detector_ray.stages.repetition import FEATURE_COLUMNS, repetition_arrays

TEXTS = [
    'the cat sat on the mat the cat sat on the mat the cat sat',
    'a b a b a b a b a b a b',
    'completely unique words never repeating anything at all here now',
    'x ' * 30,
    '',
    'one',
    'single word doc',
    'wordy ' * 12 + 'tail tail tail tail tail',
    'Дети идут на рынок Дети идут на рынок Дети идут',
    'left right ' * 6,                       # exact 5-gram repetition
    '\t  spaced nbsp words \n tabs ',   # nbsp binds (ASCII split)
]


def _py():
    return pd.DataFrame({'doc_id': range(len(TEXTS)),
                         **repetition_arrays(TEXTS)})


def test_numpy_matches_counter_oracle():
    py = _py()
    for i, t in enumerate(TEXTS):
        o = oracle_repetition(t)
        for c in FEATURE_COLUMNS:
            assert o[c] == pytest.approx(py[c].iloc[i], abs=1e-12), (i, c)


def test_python_matches_duckdb_sql():
    py = _py()
    con = duckdb.connect()
    con.register('documents', pd.DataFrame(
        {'doc_id': range(len(TEXTS)), 'text': TEXTS}))
    sql = con.execute(_REPETITION_STATS_SQL).df() \
        .sort_values('doc_id').reset_index(drop=True)
    for c in FEATURE_COLUMNS:
        assert np.allclose(py[c].to_numpy(), sql[c].to_numpy()), c


def test_known_values():
    py = _py().set_index('doc_id')
    # 'a b' * 12: every gram fully repetitive -> all fracs 1.0 (capped)
    assert py.loc[1, list(FEATURE_COLUMNS)].tolist() == [1.0] * 5
    # unique words: dup fracs 0, top bigram = its single occurrence share
    assert py.loc[2, 'dup_5gram_char_frac'] == 0.0
    assert py.loc[2, 'dup_10gram_char_frac'] == 0.0
    # empty / one-word docs are all zero
    assert py.loc[4, list(FEATURE_COLUMNS)].tolist() == [0.0] * 5
    assert py.loc[5, list(FEATURE_COLUMNS)].tolist() == [0.0] * 5
    # 3 words: no 4-gram exists
    assert py.loc[6, 'top_4gram_char_frac'] == 0.0


def test_keepdrop_rule_and_flagship_conformance():
    """Thresholds on: the pipeline's drop_reason must name the repetition
    rule, and the serial oracle must agree end-to-end."""
    import ray.data

    from pii_detector_ray.config import PipelineConfig, QualityThresholds
    from pii_detector_ray.oracle import run_oracle
    from pii_detector_ray.pipelines.quality_filter import build_pipeline
    from tests.test_config_variants import _pages_table

    clean = ('The children walk to the market early because the weather is '
             'pleasant today. Later a neighbour brings fresh bread while '
             'musicians play near the old fountain. Everyone lingers until '
             'evening, trading small stories about harvests, rivers and the '
             'mountain roads beyond town.')
    loopy = ('buy now click here ' * 40)
    rows = [('https://a.com/clean', 1, None, clean, 'en'),
            ('https://a.com/loopy', 2, None, loopy, 'en')]
    cfg = PipelineConfig(thresholds=QualityThresholds(
        max_top_2gram_char_frac=0.20, max_top_3gram_char_frac=0.18,
        max_top_4gram_char_frac=0.16, max_dup_5gram_char_frac=0.15,
        max_dup_10gram_char_frac=0.10))
    out = build_pipeline(ray.data.from_arrow(_pages_table(rows)), cfg).to_pandas() \
        .set_index('url')
    assert bool(out.loc['https://a.com/clean', 'keep'])
    assert not bool(out.loc['https://a.com/loopy', 'keep'])
    assert out.loc['https://a.com/loopy', 'drop_reason'] == 'top_2gram_chars'

    oracle_rows = run_oracle(
        [dict(url=u, warc_ts=pd.Timestamp(ts, unit='s'), html=h, text=t,
              lang=lg) for u, ts, h, t, lg in rows], cfg)
    by_url = {r['url']: r for r in oracle_rows}
    for url in out.index:
        assert bool(out.loc[url, 'keep']) == bool(by_url[url]['keep'])
        assert (out.loc[url, 'drop_reason'] or None) == by_url[url]['drop_reason']


def test_batch_path_equals_per_doc_path():
    """The vectorized batch path must reproduce the per-doc reference
    implementation bit-for-bit on randomized docs (boundary grams, ties,
    empty docs, sub-n docs)."""
    import random

    from pii_detector_ray.stages.repetition import (
        _batch_repetition,
        _doc_repetition,
    )
    rng = random.Random(1234)
    vocab = ['a', 'bb', 'ccc', 'dddd', 'word', 'x1', 'yy2', 'zzz3']
    docs = ['', '   ', 'solo', 'left right ' * 6]
    for _ in range(300):
        m = rng.choice([0, 1, 2, 3, 4, 5, 9, 10, 11, 30, 120])
        words = [rng.choice(vocab) for _ in range(m)]
        if rng.random() < 0.3 and m >= 10:
            words = words[:5] * (m // 5)
        docs.append(' '.join(words))
    old = np.array([_doc_repetition(t) for t in docs])
    new = _batch_repetition(docs)
    assert np.array_equal(old, new)
