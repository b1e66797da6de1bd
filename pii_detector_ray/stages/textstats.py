"""Text-analysis operators: token counting, quality scoring, fingerprinting.

Language-ID lives in ``stages/scorers.py``; token counting has a SQL-checked
query (``queries.q_token_counts``).  Here:

- ``bpe_ish_token_count``: a BPE-ish token estimate (whitespace words split
  further at letter/digit/punct transitions, long words charged extra) —
  the standard cheap proxy for tokenizer cost in data pipelines.
- ``quality_score``: a [0,1] composite of the Gopher/C4 heuristic features.
- ``winnow_fingerprint``: winnowing document fingerprint (Schleimer et al.):
  min rolling-hash per sliding window, deduped — robust to small edits, used
  for copy detection.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa

from pii_detector_ray.functions.re2compat import RE2_SPACE_CHARS, RE2_WORD

# whitespace class spelled out as RE2's \s (functions/re2compat.py): the
# _TOKEN_STATS_SQL oracle runs this same alternation under RE2, where \s
# excludes \x0b and Python's Unicode \s would also swallow NBSP
_BPE_PIECE = re.compile(
    "[A-Za-zÀ-ÿ]+|[0-9]+|[^" + RE2_SPACE_CHARS + "A-Za-zÀ-ÿ0-9]")


def bpe_ish_token_count(text: str, max_piece_chars: int = 6) -> int:
    """Pieces at letter/digit/punct boundaries; pieces longer than
    ``max_piece_chars`` count ceil(len/max) (a long word costs several
    subword tokens)."""
    n = 0
    for m in _BPE_PIECE.finditer(text):
        n += -(-len(m.group()) // max_piece_chars)
    return n


def token_stats_batch(df: pd.DataFrame, text_col: str = 'text') -> pd.DataFrame:
    s = df[text_col].astype('string').fillna('')
    # RE2-exact \S+ (re2compat.py): (?a)\S would also treat \x0b as space
    df['n_tokens_ws'] = s.str.count(RE2_WORD).astype('int64')
    df['n_tokens_bpe'] = np.fromiter((bpe_ish_token_count(t) for t in s),
                                     dtype=np.int64, count=len(s))
    return df


def quality_score_batch(feat: dict[str, np.ndarray]) -> np.ndarray:
    """Composite quality in [0,1] from the heuristic feature vectors of
    ``stages/heuristics.heuristics_arrays``.  1 = clean prose; each violated
    dimension multiplies the score down."""
    score = np.ones(len(feat['n_chars']))
    score *= np.clip(feat['n_chars'] / 200.0, 0, 1)           # length
    score *= np.clip(1.0 - feat['symbol_word_ratio'] * 5, 0, 1)
    score *= np.clip(1.0 - feat['dup_line_frac'], 0, 1)
    score *= np.clip(feat['alpha_word_frac'], 0, 1)
    mwl = feat['mean_word_len']
    score *= np.where((mwl >= 2.0) & (mwl <= 12.0), 1.0, 0.2)
    # sql_round (half away from zero) so the DuckDB oracle's round() agrees
    # on .xxxx5 ties (numpy rounds half-even)
    from pii_detector_ray.functions.rounding import sql_round_np
    return sql_round_np(score, 4)


def winnow_fingerprint(text: str, k: int = 5, window: int = 8) -> list[int]:
    """Winnowing: min k-gram rolling hash per sliding window, deduplicated,
    order-preserved.  Empty/short text -> []."""
    from pii_detector_ray.stages.dedup import _shingle_hashes
    h = _shingle_hashes(text, k)
    if h.size == 0 or not text:
        return []
    if h.size <= window:
        # mask must be np.uint64: uint64 & python-int raises under NumPy 2
        # (no safe common type) — latent until sub-13-char docs appeared
        return [int(h.min() & np.uint64(0x7FFFFFFFFFFFFFFF))]
    view = np.lib.stride_tricks.sliding_window_view(h, window)
    mins = view.min(axis=1)
    out: list[int] = []
    prev = None
    for v in mins:
        iv = int(v & np.uint64(0x7FFFFFFFFFFFFFFF))
        if iv != prev:
            out.append(iv)
            prev = iv
    return out


def fingerprint_batch(batch: pa.Table, text_col: str = 'text',
                      id_col: str = 'doc_id') -> pa.Table:
    texts = batch.column(text_col).to_pylist()
    fps = [winnow_fingerprint(t or '') for t in texts]
    return pa.table({
        id_col: batch.column(id_col),
        'fingerprint': pa.array(fps, pa.list_(pa.int64())),
        'n_fingerprints': pa.array([len(f) for f in fps], pa.int32()),
    })
