"""Text-stats + multimodal plumbing tests."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from pii_detector_ray.stages.multimodal import (
    FEATURE_DIM,
    FrameSampleStage,
    MediaDecodeStage,
    synth_media_table,
)
from pii_detector_ray.stages.textstats import (
    bpe_ish_token_count,
    quality_score_batch,
    token_stats_batch,
    winnow_fingerprint,
)


def test_bpe_ish_token_count():
    assert bpe_ish_token_count('hello world') == 2
    assert bpe_ish_token_count("don't stop") == 4          # don ' t stop
    assert bpe_ish_token_count('internationalization') == 4  # 20 chars / 6 -> 4 pieces
    assert bpe_ish_token_count('a1b') == 3
    assert bpe_ish_token_count('') == 0


def test_token_stats_batch():
    df = token_stats_batch(pd.DataFrame({'text': ['two words', '', None]}))
    assert df['n_tokens_ws'].tolist() == [2, 0, 0]
    assert df['n_tokens_bpe'].tolist() == [2, 0, 0]


def test_winnow_fingerprint_robust_to_small_edits():
    a = 'the quick brown fox jumps over the lazy dog again and again today'
    b = a.replace('today', 'tonite')
    fa, fb = set(winnow_fingerprint(a)), set(winnow_fingerprint(b))
    overlap = len(fa & fb) / max(1, len(fa | fb))
    assert overlap > 0.5                      # small edit, mostly shared
    c = set(winnow_fingerprint('completely unrelated content here entirely'))
    assert len(fa & c) / max(1, len(fa | c)) < 0.1
    assert winnow_fingerprint('') == []
    # deterministic
    assert winnow_fingerprint(a) == winnow_fingerprint(a)


def _features(texts):
    from pii_detector_ray.stages.heuristics import heuristics_arrays
    return heuristics_arrays(pa.array(texts, pa.string()), texts)


def test_quality_score_ordering():
    score = quality_score_batch(_features([
        'The children walk to the market and the weather is pleasant this '
        'morning. ' * 10,
        '### ## # ### ## zz',
    ]))
    assert score[0] > 0.8 > score[1]


def test_media_decode_stage_plumbing():
    ds = ray.data.from_arrow(synth_media_table(50))
    out = ds.map_batches(MediaDecodeStage, batch_format='pyarrow', batch_size=16,
                         concurrency=2, num_cpus=1).to_pandas()
    assert len(out) == 50
    assert 'payload' not in out.columns           # heavy bytes dropped
    feats = np.stack(out['features'].to_numpy())
    assert feats.shape == (50, FEATURE_DIM)
    assert np.allclose(feats.sum(axis=1), 1.0)    # L1-normalized histograms
    # deterministic across runs
    out2 = ray.data.from_arrow(synth_media_table(50)).map_batches(
        MediaDecodeStage, batch_format='pyarrow', batch_size=16,
        concurrency=2, num_cpus=1).to_pandas()
    assert np.allclose(np.stack(out2['features'].to_numpy()), feats)


def test_media_decode_codecless_types_raise():
    # PNG/WAV (r2), GIF (r3) and baseline JPEG (r4) are REAL stdlib codecs;
    # formats without a codec keep the NotImplementedError stub contract,
    # and a real codec rejects malformed payloads with a ValueError-family
    # error, not the stub error
    stage = MediaDecodeStage(use_fake_decoder=False)
    with pytest.raises(NotImplementedError):
        stage.decode(b'\x00\x00\x01\xba mpeg', 'video/mp4')
    with pytest.raises(Exception) as ei:
        stage.decode(b'\xff\xd8\xff jpeg', 'image/jpeg')
    assert not isinstance(ei.value, NotImplementedError)


def test_frame_sample_stage():
    out = FrameSampleStage(n_frames=4)(synth_media_table(3))
    offs = out.column('frame_offsets_ms').to_pylist()
    assert len(offs) == 3 and all(len(o) == 4 for o in offs)
    assert offs[0] == [125, 375, 625, 875]        # duration 1000ms midpoints
    with pytest.raises(NotImplementedError):
        FrameSampleStage(use_fake_decoder=False)(synth_media_table(1))


def test_png_roundtrip_all_filters():
    """encode_png/decode_png roundtrip exactly for every scanline filter
    type (0=None 1=Sub 2=Up 3=Average 4=Paeth), gray and RGB and RGBA."""
    import numpy as np

    from pii_detector_ray.stages.multimodal import decode_png, encode_png
    rng = np.random.default_rng(2)
    for ch in (1, 3, 4):
        img = rng.integers(0, 256, size=(11, 7, ch), dtype=np.uint8)
        if ch == 1:
            img = img[:, :, 0]
        for ft in range(5):
            out = decode_png(encode_png(img, filter_type=ft))
            exp = img if img.ndim == 3 else img[:, :, None]
            assert out.shape == exp.shape and (out == exp).all(), (ch, ft)


def test_wav_roundtrip():
    import numpy as np

    from pii_detector_ray.stages.multimodal import decode_wav, encode_wav
    s = (np.sin(np.linspace(0, 20, 800)) * 12000).astype(np.int16)
    out, rate = decode_wav(encode_wav(s, rate=8000))
    assert rate == 8000
    assert (out[:, 0] == s).all()


def test_media_real_decode_and_resize():
    import numpy as np
    import ray.data

    from pii_detector_ray.stages.multimodal import (
        FEATURE_DIM,
        MediaDecodeStage,
        ResizeStage,
        decode_png,
        synth_real_media_table,
    )
    tbl = synth_real_media_table(20)
    ds = ray.data.from_arrow(tbl)
    resized = ds.map_batches(ResizeStage, batch_format='pyarrow', batch_size=8,
                             concurrency=2, num_cpus=1).to_pandas() \
        .sort_values('media_id').reset_index(drop=True)
    assert resized.loc[0, 'resized'] and not resized.loc[1, 'resized']
    thumb = decode_png(resized.loc[0, 'payload'])
    assert thumb.shape == (8, 8, 3)
    out = ray.data.from_arrow(tbl).map_batches(
        MediaDecodeStage, batch_format='pyarrow', batch_size=8,
        concurrency=2, num_cpus=1,
        fn_constructor_kwargs={'use_fake_decoder': False}).to_pandas() \
        .sort_values('media_id').reset_index(drop=True)
    feats = np.stack(out['features'].to_numpy())
    assert feats.shape == (20, FEATURE_DIM)
    assert (feats[::2] <= 1.0).all() and feats[1::2].max() > 0.1  # wav RMS energy
    # deterministic: same table decodes identically
    again = ray.data.from_arrow(synth_real_media_table(20)).map_batches(
        MediaDecodeStage, batch_format='pyarrow', batch_size=8,
        concurrency=2, num_cpus=1,
        fn_constructor_kwargs={'use_fake_decoder': False}).to_pandas() \
        .sort_values('media_id').reset_index(drop=True)
    assert np.allclose(np.stack(again['features'].to_numpy()), feats)


def test_token_stats_ascii_pinned_nbsp():
    """r3 review: the DuckDB oracles run RE2, whose \\s is ASCII-only — the
    (?a)-pinned Python side must agree on NBSP-bearing text (both treat NBSP
    as NON-space: one token)."""
    import duckdb
    txt = 'a' + chr(0xa0) + 'b'
    df = token_stats_batch(pd.DataFrame({'text': [txt]}))
    (oracle,) = duckdb.sql(
        r"select len(regexp_extract_all('a' || chr(160) || 'b', '\S+'))"
    ).fetchone()
    assert df['n_tokens_ws'].iloc[0] == oracle == 1


def test_alpha_word_frac_unicode_letters():
    """r3 regression: the ASCII (?a) pin must not leak into the LETTER class
    — a Cyrillic/CJK/Greek page is all alpha words, not alpha_word_frac=0
    (which dropped every non-Latin doc as 'alpha_ratio')."""
    feat = _features([
        'Дети идут на рынок и погода приятная',
        '世界 真的 很大',
        'Το γρήγορο καφέ πόδι',
        'plain ascii words here',
        '123 456 ___',                      # digits/underscores: no letters
    ])
    assert feat['alpha_word_frac'].tolist()[:4] == [1.0, 1.0, 1.0, 1.0]
    assert feat['alpha_word_frac'][4] == 0.0


def test_quality_scores_sql_parity_multilingual():
    """The DuckDB RE2 [\\pL\\p{Nl}\\p{No}] letter class must agree with
    Python's Unicode [^\\W\\d_] on real multilingual text."""
    import duckdb
    from pii_detector_ray.queries import _QUALITY_SCORES_SQL
    texts = [
        'Дети идут на рынок и погода сегодня приятная и тёплая. ' * 4,
        'The children walk to the market today. ' * 5,
        '### ## # zz …',
        '世界 很大 真的 很大 谢谢 你 好 吗 ' * 3,
        'naïve café résumé ünïcødé ★ mixed ascii',
        '',
    ]
    py = quality_score_batch(_features(texts))
    con = duckdb.connect()
    con.register('documents', pd.DataFrame(
        {'doc_id': range(len(texts)), 'text': texts}))
    sql = con.execute(_QUALITY_SCORES_SQL).df().sort_values('doc_id')
    assert np.allclose(py, sql['quality_score'].to_numpy())


def test_alpha_letter_class_python_vs_re2_bmp_sweep():
    """Codepoint-level contract: Python [^\\W\\d_] == RE2 [\\pL\\p{Nl}\\p{No}]
    across the BMP (sampled stride + full coverage of L/N boundaries)."""
    import duckdb
    import re
    pat = re.compile(r'[^\W\d_]')
    cps = [c for c in list(range(0x20, 0x2000))
           + list(range(0x2000, 0x10000, 7))
           if not 0xD800 <= c <= 0xDFFF]     # lone surrogates aren't UTF-8
    chars = [chr(c) for c in cps]
    con = duckdb.connect()
    con.register('sweep', pd.DataFrame({'ch': chars}))
    got = con.execute(
        "SELECT regexp_matches(ch, '[\\pL\\p{Nl}\\p{No}]') FROM sweep").df()
    sql_match = got.iloc[:, 0].tolist()
    py_match = [bool(pat.match(c)) for c in chars]
    assert sql_match == py_match


def test_vertical_tab_and_nbsp_parity_with_re2():
    """r3 review: RE2's \\s is [\\t\\n\\f\\r ] — NO \\x0b — and NBSP is a
    word char in both engines.  Word counts, BPE pieces, quality scores and
    repetition features must agree with DuckDB on both characters."""
    import duckdb
    from pii_detector_ray.queries import (
        _QUALITY_SCORES_SQL,
        _REPETITION_STATS_SQL,
        _TOKEN_STATS_SQL,
    )
    from pii_detector_ray.stages.repetition import FEATURE_COLUMNS, repetition_arrays
    texts = [
        'a\x0bb c',                       # \x0b: ONE word 'a\x0bb' under RE2
        'x\xa0y z w',                     # NBSP binds into one word
        'dup line\n\xa0\ndup line\nother line here',   # NBSP-only line
        'v\x0bv v\x0bv v\x0bv plain',     # \x0b inside repeated words
        'normal words repeated normal words repeated. ok.',
    ]
    df = pd.DataFrame({'doc_id': range(len(texts)), 'text': texts})
    con = duckdb.connect()
    con.register('documents', df)

    py_tok = pd.DataFrame({'doc_id': df.doc_id, 'text': texts})
    from pii_detector_ray.stages.textstats import token_stats_batch
    py_tok = token_stats_batch(py_tok)
    sql_tok = con.execute(_TOKEN_STATS_SQL).df().sort_values('doc_id')
    assert py_tok['n_tokens_ws'].tolist() == sql_tok['n_tokens_ws'].tolist()
    assert py_tok['n_tokens_bpe'].tolist() == sql_tok['n_tokens_bpe'].tolist()

    py_q = quality_score_batch(_features(texts))
    sql_q = con.execute(_QUALITY_SCORES_SQL).df().sort_values('doc_id')
    assert np.allclose(py_q, sql_q['quality_score'].to_numpy())

    py_rep = repetition_arrays(texts)
    sql_rep = con.execute(_REPETITION_STATS_SQL).df().sort_values('doc_id')
    for c in FEATURE_COLUMNS:
        assert np.allclose(py_rep[c], sql_rep[c].to_numpy()), c
