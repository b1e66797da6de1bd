"""Gopher/C4-style heuristic quality features — vectorized per batch.

The reference has no quality rules (it is a pure PII scanner); these implement
the quality-filter half of the north star (BASELINE.json): document length,
mean word length, symbol-to-word ratio, bullet/ellipsis line fractions,
duplicate-line fraction, alphabetic-word fraction.  Rule thresholds live in
``PipelineConfig.thresholds``; the keep/drop decision is made separately
(``stages/keepdrop.py``), so features stay inspectable columns.

Vectorization: counting features run as pyarrow RE2 kernels over the Arrow
text array (C-level per-string scans); only the duplicate-line fraction walks
per-document line lists (a cheap set-insert per line, dominated by the regex
scans around it).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# Word SPLITTING is pinned to RE2's exact \s class BY CONTRACT (the DuckDB
# oracles mirror these with RE2; see functions/re2compat.py — Python's
# (?a)\s additionally matches \x0b, Unicode \S diverges on NBSP tokens).
# The LETTER class stays Unicode: a Cyrillic/CJK page must not score
# alpha_word_frac=0 (that would drop every non-Latin document as
# 'alpha_ratio' before language rules run).  Python's Unicode [^\W\d_] is
# exactly categories L* ∪ Nl ∪ No, which the SQL mirrors as RE2
# [\pL\p{Nl}\p{No}] — verified codepoint-identical across the BMP (above it
# the two engines' Unicode table versions skew on a few plane-1 scripts;
# see tests/test_textstats_multimodal.py).
from pii_detector_ray.functions.re2compat import (
    RE2_NONSPACE,
    RE2_SPACE,
    RE2_WORD,
)

_WORD = RE2_WORD
_NONSPACE = RE2_NONSPACE
# word containing >=1 letter, in two equivalent spellings: the Python-re
# lookbehind form (kept as documentation of the semantics) and the RE2 form
# actually executed by the pyarrow kernel — each \S+ run is entered once via
# its leading separator (or ^) and consumed whole by the trailing \S*, so
# non-overlapping scan counts exactly the letter-containing words.  The
# letter class is RE2's [\pL\p{Nl}\p{No}], the SAME class the DuckDB oracle
# uses (_QUALITY_SCORES_SQL) — codepoint-identical with Python's [^\W\d_]
# across the BMP (see tests/test_textstats_multimodal.py).
_ALPHA_WORD = (rf'(?<!{RE2_NONSPACE}){RE2_NONSPACE}*'
               rf'[^\W\d_]{RE2_NONSPACE}*')  # Python-re spelling (docs only)
_ALPHA_WORD_RE2 = (rf'(?:^|{RE2_SPACE}){RE2_NONSPACE}*'
                   rf'[\pL\p{{Nl}}\p{{No}}]{RE2_NONSPACE}*')
_BULLET_LINE = r'(?m)^[ \t]*[-*•]'       # Python-re spelling (docs only)
# pyarrow's iterated count re-anchors ^ at every scan-resume position
# (probed: count('(?m)^[-*•]') on '--' returns 2), so the executed form
# counts \n-prefixed bullet lines (the \n is consumed per match, no anchor)
# and adds the first line via a single anchored match_substring_regex
_BULLET_NL_RE2 = r'\n[ \t]*[-*•]'
_BULLET_FIRST_RE2 = r'^[ \t]*[-*•]'
_ELLIPSIS_LINE = r'(?m)(?:\.\.\.|…)[ \t]*$'
_SYMBOL = r'#|…|\.\.\.'


def _space_word_counts(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """Per-doc (space-char count, \\S+-run count) computed with numpy over
    the raw UTF-8 buffer — RE2's space class is pure ASCII, so space bytes
    == space codepoints and a \\S+ run boundary is a byte property; ~10x
    faster than the RE2 scans it replaces (measured).  ``arr`` must be a
    null-free StringArray (upstream fillna)."""
    n = len(arr)
    off = np.frombuffer(arr.buffers()[1], dtype=np.int32)[
        arr.offset:arr.offset + n + 1].astype(np.int64)
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)[:off[-1]]
    if len(data) == 0:
        return np.zeros(n, np.int64), np.zeros(n, np.int64)
    is_space = ((data == 32) | (data == 9) | (data == 10)
                | (data == 13) | (data == 12))
    # cumsum-diff instead of add.reduceat: reduceat mishandles empty docs
    cs = np.concatenate(([0], np.cumsum(is_space, dtype=np.int64)))
    n_spaces = cs[off[1:]] - cs[off[:-1]]
    nonspace = ~is_space
    starts = nonspace & np.concatenate(([True], is_space[:-1]))
    # doc boundaries: the first byte of each doc starts a run iff nonspace,
    # independent of the previous doc's trailing byte
    heads = off[:-1][off[:-1] < len(data)]
    starts[heads] = nonspace[heads]
    cs2 = np.concatenate(([0], np.cumsum(starts, dtype=np.int64)))
    return n_spaces, cs2[off[1:]] - cs2[off[:-1]]


def heuristics_arrays(arr: pa.Array, texts: list[str]) -> dict[str, np.ndarray]:
    """Array-level core: feature vectors from a NULL-FREE Arrow string array.

    ``texts`` is the same array as Python strings (computed once by the
    caller and shared with the scorer/keepdrop kernels that genuinely need
    Python strings).  All counting features run as pyarrow RE2 kernels
    (vectorized C++, no per-row Python) — measured 5x faster than the pandas
    ``.str.count`` object-array fallback on the bench corpus; the RE2 class
    semantics are exactly what the DuckDB oracles mirror (re2compat.py)."""

    def rcount(pattern: str) -> np.ndarray:
        return pc.count_substring_regex(arr, pattern) \
            .to_numpy(zero_copy_only=False).astype(np.int64)

    n_chars = pc.utf8_length(arr).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    n_spaces, n_words = _space_word_counts(arr)
    n_words_safe = np.maximum(n_words, 1)
    # \S-char count == len - \s-char count (every char is one or the other)
    nonspace = n_chars - n_spaces

    n_lines = pc.count_substring(arr, '\n') \
        .to_numpy(zero_copy_only=False).astype(np.int64) + 1
    bullet = rcount(_BULLET_NL_RE2) + pc.match_substring_regex(
        arr, _BULLET_FIRST_RE2).to_numpy(zero_copy_only=False).astype(np.int64)
    return {
        'n_chars': n_chars,
        'n_words': n_words,
        'mean_word_len': nonspace / n_words_safe,
        'symbol_word_ratio': rcount(_SYMBOL).astype(np.float64) / n_words_safe,
        'bullet_line_frac': bullet.astype(np.float64) / n_lines,
        'ellipsis_line_frac': rcount(_ELLIPSIS_LINE).astype(np.float64) / n_lines,
        'alpha_word_frac': rcount(_ALPHA_WORD_RE2).astype(np.float64) / n_words_safe,
        'dup_line_frac': np.fromiter(
            (_dup_line_frac(t) for t in texts), dtype=np.float64,
            count=len(texts)),
    }


# blank = only these chars; pinned to _QUALITY_SCORES_SQL's explicit trim
# set (space, \t, \r, \f, \v — \n can't occur inside a line).  Python's
# bare strip() would also strip NBSP etc. and diverge (r3 review finding).
_LINE_BLANK_CHARS = ' \t\r\f\v'


def _dup_line_frac(text: str) -> float:
    lines = [ln for ln in text.split('\n') if ln.strip(_LINE_BLANK_CHARS)]
    if len(lines) < 2:
        return 0.0
    return 1.0 - len(set(lines)) / len(lines)
