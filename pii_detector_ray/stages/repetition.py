"""Gopher-style repetition features: top-n-gram and duplicate-n-gram
character fractions (Rae et al. 2021, "Scaling Language Models: ... Gopher",
table A1 — the repetition rules the north-star names alongside doc length and
symbol ratio; the reference has no equivalent, these are training-pipeline
additions).

Exact semantics (documented because published reproductions differ in
details; the DuckDB oracle ``_REPETITION_STATS_SQL`` in ``queries.py``
mirrors these precisely):

- *words* are maximal ASCII-nonspace runs (same ``(?a)\\S+`` split as
  ``stages/heuristics.py``), case-sensitive (no lowercasing — Python and
  DuckDB Unicode-lowercase tables differ on edge codepoints, and Gopher
  does not specify case folding).
- *word_chars* = sum of word lengths (whitespace excluded).
- ``top_{n}gram_char_frac`` (n = 2, 3, 4): occurrences × character length of
  the most frequent overlapping word n-gram, divided by *word_chars*, capped
  at 1.0.  Ties on count break by larger char length (any remaining tie has
  the same value).  Documents with fewer than n words score 0.
- ``dup_{n}gram_char_frac`` (n = 5, 10): Σ over n-grams occurring ≥ 2 times
  of occurrences × char length, divided by *word_chars*, capped at 1.0.
  (A coverage-style variant that marks each character position once would
  need per-position bookkeeping; this Σ-form is monotone in duplication,
  cheap, and exactly SQL-expressible.)
- All five fractions round half-away-from-zero to 4 decimals
  (``functions/rounding.sql_round_np``) so DuckDB ``round()`` agrees on ties.

Vectorization: per document, words map to int ids (``np.unique``), n-grams
become rows of a ``sliding_window_view`` over the id sequence, and
``np.unique(axis=0)`` yields counts; char lengths come from a cumulative sum
over word lengths.  No Python loops over grams.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd

from pii_detector_ray.functions.rounding import sql_round_np

from pii_detector_ray.functions.re2compat import RE2_WORD

_WORD_RE = re.compile(RE2_WORD)

TOP_NS = (2, 3, 4)
DUP_NS = (5, 10)

FEATURE_COLUMNS = tuple(
    [f'top_{n}gram_char_frac' for n in TOP_NS]
    + [f'dup_{n}gram_char_frac' for n in DUP_NS])


def _doc_repetition(text: str) -> list[float]:
    words = _WORD_RE.findall(text)
    m = len(words)
    out = [0.0] * (len(TOP_NS) + len(DUP_NS))
    if m == 0:
        return out
    lens = np.fromiter((len(w) for w in words), dtype=np.int64, count=m)
    word_chars = int(lens.sum())
    if word_chars == 0:
        return out
    _, ids = np.unique(np.asarray(words, dtype=object), return_inverse=True)
    # gram char length via prefix sums: chars(i..i+n) = cum[i+n] - cum[i]
    cum = np.concatenate(([0], np.cumsum(lens)))

    for slot, (n, dup) in enumerate(
            [(n, False) for n in TOP_NS] + [(n, True) for n in DUP_NS]):
        if m < n:
            continue
        grams = np.lib.stride_tricks.sliding_window_view(ids, n)
        glens = cum[n:] - cum[:-n]          # char length of each gram window
        uniq, inv, counts = np.unique(grams, axis=0, return_inverse=True,
                                      return_counts=True)
        # char length per unique gram = glen at its first occurrence
        first = np.full(len(uniq), -1, dtype=np.int64)
        # reversed so earlier windows overwrite later ones
        first[inv[::-1]] = np.arange(len(glens) - 1, -1, -1)
        ulens = glens[first]
        if dup:
            mask = counts >= 2
            total = int((counts[mask] * ulens[mask]).sum())
        else:
            top = int(counts.max())
            best_len = int(ulens[counts == top].max())   # tie-break: longer
            total = top * best_len
        out[slot] = min(1.0, total / word_chars)
    return out


def _batch_repetition(texts: list[str]) -> np.ndarray:
    """Batch-vectorized equivalent of ``_doc_repetition`` over all docs at
    once (identical outputs; property-tested against the per-doc path).

    One flat word array carries every document; words become DOC-SCOPED int
    ids via one hash-based ``pd.factorize`` (no per-doc sorts), and n-gram
    identity for n = 2..10 grows INCREMENTALLY — each step packs the
    previous gram id with the next word id into one int64 and re-factorizes,
    so no 2-D ``np.unique(axis=0)`` (the prior per-doc hot spot: ~0.9 ms per
    doc, 63% of the flagship UDF) ever runs.  Gram windows that straddle a
    document boundary keep well-defined (never-colliding) keys but are
    masked out of every count.  Per-doc reductions are bincount / lexsort
    passes over the unique-gram table."""
    ndocs = len(texts)
    out = np.zeros((ndocs, len(TOP_NS) + len(DUP_NS)), dtype=np.float64)
    if ndocs == 0:
        return out
    word_lists = [_WORD_RE.findall(t) for t in texts]
    m_per_doc = np.fromiter((len(w) for w in word_lists), np.int64,
                            count=ndocs)
    total = int(m_per_doc.sum())
    if total == 0:
        return out
    flat = np.empty(total, dtype=object)
    pos = 0
    for wl in word_lists:
        flat[pos:pos + len(wl)] = wl
        pos += len(wl)
    doc_idx = np.repeat(np.arange(ndocs, dtype=np.int64), m_per_doc)
    lens = np.fromiter(map(len, flat), np.int64, count=total)
    word_chars = np.bincount(doc_idx, weights=lens,
                             minlength=ndocs).astype(np.int64)
    cum = np.concatenate(([0], np.cumsum(lens)))

    wid, _ = pd.factorize(flat)
    wid = wid.astype(np.int64)
    # doc-scoped base gram: (doc, word) pairs -> small dense ids
    g, _ = pd.factorize(doc_idx * (int(wid.max()) + 1) + wid)
    g = g.astype(np.int64)
    want = {n: slot for slot, n in enumerate(list(TOP_NS) + list(DUP_NS))}
    max_n = max(want)

    slot_of_dup = {n: True for n in DUP_NS}
    for n in range(2, max_n + 1):
        if total < n:
            break
        # gram id at start i for length n = (gram id for n-1 at i, word id
        # at i+n-1); packing stays exact (both factors are dense ids < 2^32)
        raw = g[:total - n + 1] * (int(wid.max()) + 1) + wid[n - 1:]
        g, _ = pd.factorize(raw)
        g = g.astype(np.int64)
        if n not in want:
            continue
        slot = want[n]
        valid = doc_idx[:total - n + 1] == doc_idx[n - 1:]
        vpos = np.flatnonzero(valid)
        if len(vpos) == 0:
            continue
        codes = g[vpos]
        nuniq = int(codes.max()) + 1
        cnt = np.bincount(codes, minlength=nuniq)
        # first VALID occurrence of each gram (same-id grams share word
        # lengths, so any occurrence works; first matches the per-doc path)
        first = np.full(nuniq, -1, dtype=np.int64)
        first[codes[::-1]] = np.arange(len(codes) - 1, -1, -1)
        present = cnt > 0
        fpos = vpos[first[present]]
        ucnt = cnt[present]
        ulen = cum[fpos + n] - cum[fpos]
        gdoc = doc_idx[fpos]
        if slot_of_dup.get(n, False):
            dmask = ucnt >= 2
            if dmask.any():
                sums = np.bincount(gdoc[dmask],
                                   weights=(ucnt[dmask] * ulen[dmask])
                                   .astype(np.float64), minlength=ndocs)
                nz = word_chars > 0
                out[nz, slot] = np.minimum(1.0, sums[nz] / word_chars[nz])
        else:
            # per-doc argmax by (count, then char length) — lexsort and take
            # the last row per doc (exactly the per-doc tie rule)
            order = np.lexsort((ulen, ucnt, gdoc))
            ds = gdoc[order]
            last = np.flatnonzero(
                np.concatenate((ds[1:] != ds[:-1], [True])))
            bi = order[last]
            vals = (ucnt[bi] * ulen[bi]).astype(np.float64)
            docs_hit = gdoc[bi]
            out[docs_hit, slot] = np.minimum(
                1.0, vals / word_chars[docs_hit])
    return out


def repetition_arrays(texts: list[str]) -> dict[str, np.ndarray]:
    """Array-level core: the five repetition feature vectors for a batch of
    (null-filled) Python strings."""
    if not texts:
        return {col: np.empty(0, dtype=np.float64) for col in FEATURE_COLUMNS}
    vals = _batch_repetition(texts)
    return {col: sql_round_np(vals[:, j], 4)
            for j, col in enumerate(FEATURE_COLUMNS)}

