"""F1 and identical-fraction scoring on hand-built outputs."""

import pytest

from perfbench import oracles


def row(url, keep=True, text='hello', spans=(), ts=1):
    return {'url': url, 'warc_ts': ts, 'extracted_text': text, 'keep': keep,
            'drop_reason': None if keep else 'too_short', 'scrubbed_text': text,
            'spans': [list(s) for s in spans], 'lang_pred': 'en', 'is_phi': False,
            'n_pii': len(spans)}


EMAIL = ('EMAIL_ADDRESS', 0, 5, 'h1', 'a****')
PHONE = ('PHONE_NUMBER', 8, 20, 'h2', '***')


def test_identical_outputs_score_one():
    rows = [row('a', spans=[EMAIL]), row('b', keep=False), row('c', spans=[EMAIL, PHONE])]
    assert oracles.compare_rows(rows, [dict(r) for r in rows]) == {
        'keepdrop_f1': 1.0, 'span_f1': 1.0, 'text_identical_frac': 1.0,
        'oracle_match_frac': 1.0}


def test_hand_built_pair():
    expected = [row('a', spans=[EMAIL]), row('b', keep=False), row('c', spans=[EMAIL, PHONE]),
                row('d')]
    got = [
        row('a', spans=[EMAIL]),                   # identical
        row('b', keep=True),                       # keep flipped: one false positive
        row('c', spans=[EMAIL], text='changed'),   # one span missed, text differs
        row('e'),                                  # extra kept row; 'd' is missing
    ]
    q = oracles.compare_rows(expected, got)
    # keep: tp = a, c; fp = b, e; fn = d
    assert q['keepdrop_f1'] == pytest.approx(2 * 2 / (2 * 2 + 2 + 1))
    # spans: tp = a/EMAIL, c/EMAIL; fn = c/PHONE
    assert q['span_f1'] == pytest.approx(2 * 2 / (2 * 2 + 0 + 1))
    # text equal for a and b of four rows on each side
    assert q['text_identical_frac'] == pytest.approx(2 / 4)
    assert q['oracle_match_frac'] == pytest.approx(1 / 4)
    assert not oracles.passes(q)


def test_rows_are_keyed_by_url_and_capture_time():
    expected = [row('a', ts=1), row('a', ts=2, keep=False)]
    got = [row('a', ts=2, keep=False), row('a', ts=1)]
    assert oracles.compare_rows(expected, got)['oracle_match_frac'] == 1.0
    assert oracles.compare_rows(expected, got[:1])['text_identical_frac'] == 0.5


def test_empty_sides():
    assert oracles.f1(0, 0, 0) == 1.0
    assert oracles.identical_frac({}, {}) == 1.0
    assert oracles.identical_frac({'a': 1}, {}) == 0.0
    assert oracles.keepdrop_f1({'a': True}, {}) == 0.0


def test_quality_floor():
    assert oracles.passes({'keepdrop_f1': 1.0, 'span_f1': 0.995})
    assert not oracles.passes({'keepdrop_f1': 1.0, 'span_f1': 0.98})
