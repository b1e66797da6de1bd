"""Core PII scanning: find spans, mask them, produce scrubbed text.

Detection semantics anchor: the reference's ``ReService.extract_entity``
(``app/services/re_service.py:26-28``) — for each recognizer, stdlib
``re.finditer(pattern, text)``, collect ``match.group()`` per hit; a
recognizer whose pattern stdlib ``re`` cannot compile yields nothing
(:30-31).  Any other error propagates.  All engine families are fused into
one pass (the reference cascade ``_analyze``, data_analysis_service.py:50-66,
concatenates engines without cross-pattern dedup).  Credential-family
matches that look like code are suppressed (hyperscan_service.py:57-60).

Two scan paths, same results (asserted by tests):

- :func:`scan_text`  — plain per-row loop.  This is the serial-oracle path.
- :func:`scan_texts` — the batched path.  Vectorized RE2 passes pick each
  detector's candidate rows, each pass running only on the Arrow sub-array
  its gate left (see :func:`scan_texts`); stdlib ``re`` then decides every
  span on the surviving rows only.  Non-anchored registry patterns run ONE
  C-level ``finditer`` over a ``\\x00``-joined megastring of their rows,
  results mapped back to rows by binary search over the row offsets.
  Anchored patterns (``$``/``^`` — the credential family) run per row,
  because joining changes anchor semantics.  ``\\x00`` is safe as a
  separator for REGISTRY patterns: no registry pattern contains a character
  class that admits NUL without also being row-local (verified by
  ``tests/test_scan.py::test_megastring_equals_per_row``).  User-supplied
  ``custom`` patterns carry no such proof (``.`` / ``\\S`` / negated
  classes match NUL and would leak the neighboring document into a span),
  so they always run per row over every row (``Detector.megastring_safe``).

Span scrubbing: spans are applied right-to-left (start descending) so earlier
splices don't invalidate later offsets (SURVEY.md §7.3); overlapping spans
from different patterns are all applied, mirroring the reference's
no-cross-pattern-dedup behavior.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from pii_detector_ray.detectors import (
    SECRET_EXCLUDE,
    Detector,
    compiled,
    system_entities,
)
from pii_detector_ray.functions.masking import get_region, hash_data, mask_data
from pii_detector_ray.ner import PERSON_ENTITY, PERSON_PATTERN, trim_candidate

_SECRET_EXCLUDE_RE = re.compile(SECRET_EXCLUDE, re.IGNORECASE)
_SYSTEM_ENTITIES = frozenset(system_entities())

# ---------------------------------------------------------------------------
# RE2 superset prefilter: per detector, transform the Python-re pattern into
# an RE2 pattern whose match LANGUAGE PROVABLY CONTAINS the original's, run
# it as a vectorized pyarrow kernel to select candidate rows, and Python-scan
# only those.  False positives only cost time; false negatives are impossible
# by construction:
#   - ``\b``/``\B`` are DROPPED (removing an assertion enlarges the language);
#   - Python's Unicode ``\d``/``\w``/``\s`` are WIDENED to RE2 supersets
#     (``\p{Nd}``; non-RE2-space — no whitespace char is a Python word char;
#     the explicit Unicode-space union);
#   - ``\D``/``\W``/``\S`` and class elements inside NEGATED classes stay
#     as-is: RE2's ASCII base sets are subsets of Python's, so their
#     complements are supersets;
#   - ``$`` becomes ``\n?$`` (Python's default ``$`` also matches before a
#     trailing newline); ``^`` means start-of-text in both engines;
#   - under a leading ``(?i)`` Python folds İ (U+0130) and ı (U+0131) onto
#     ``i`` but RE2's simple case folding does not (a full-BMP sweep shows
#     that orbit is the only divergence for ASCII patterns), so a literal
#     ``i``/``I`` becomes ``[iİı]`` and a positive class that matches ``i``
#     also admits İ/ı; such patterns must be ASCII without ``\x``-style
#     escapes;
#   - lookarounds, backrefs, ``\A``/``\Z``, scoped or non-leading flags and
#     Python-only flags return None → no prefilter.
# Exactness is asserted by tests/test_scan.py (megastring == per-row, the
# unicode adversaria and the İ/ı rows).  This mirrors the reference's
# hyperscan-prefilter architecture (hyperscan as the fast first pass, exact
# engine confirms; app/services/hyperscan_service.py) in Arrow/RE2 terms.
# ---------------------------------------------------------------------------

_PY_SPACE_RE2_ELEMS = r'\t-\r \x1c-\x1f\x85\xa0\p{Z}'


def _re2_superset(pattern: str) -> str | None:
    if re.search(r'\(\?[aLuxm]', pattern):       # Python-only / ^$-shifting
        return None
    lead = re.match(r'\(\?[a-zA-Z]+\)', pattern)
    out: list[str] = []
    if lead:
        out.append(lead.group())
        pattern = pattern[lead.end():]
    if re.search(r'\(\?[a-zA-Z-]+[:)]', pattern):   # scoped / non-leading flags
        return None
    fold_i = lead is not None and 'i' in lead.group()
    if fold_i and not pattern.isascii():
        return None
    i, n = 0, len(pattern)
    in_class = False
    _class_negated = False
    class_src = class_out = 0
    while i < n:
        c = pattern[i]
        if c == '\\' and i + 1 < n:
            nxt = pattern[i + 1]
            if not in_class:
                if nxt in 'bB':
                    i += 2
                    continue
                if nxt == 'd':
                    out.append(r'[\p{Nd}]')
                    i += 2
                    continue
                if nxt == 'w':
                    out.append(r'[^\t\n\f\r ]')
                    i += 2
                    continue
                if nxt == 's':
                    out.append('[' + _PY_SPACE_RE2_ELEMS + ']')
                    i += 2
                    continue
                if nxt in 'AZz' or nxt.isdigit():   # anchors / backrefs
                    return None
                if fold_i and nxt in 'xuUN':        # may spell an 'i'
                    return None
            else:
                # inside a class: widen only in POSITIVE classes (widening
                # inside [^...] would SHRINK the language)
                if _class_negated and nxt in 'DWS':
                    # [^...\W...]: double negation — RE2's \W ⊃ Python's \W
                    # (RE2 \w ⊂ Python \w), so the negated class would be a
                    # SUBSET of Python's (e.g. [^\W\d_] is Unicode-letters in
                    # Python, ASCII-letters in RE2).  No safe widening exists
                    # element-wise; disable the prefilter for this pattern.
                    return None
                if not _class_negated:
                    if nxt == 'd':
                        out.append(r'\p{Nd}')
                        i += 2
                        continue
                    if nxt == 's':
                        out.append(_PY_SPACE_RE2_ELEMS)
                        i += 2
                        continue
                    if nxt == 'w':
                        # superset: every Python word char is non-space
                        out.append(r'\S')
                        i += 2
                        continue
            out.append(c)
            out.append(nxt)
            i += 2
            continue
        if not in_class:
            if c == '[':
                in_class = True
                _class_negated = pattern[i + 1:i + 2] == '^'
                class_src, class_out = i, len(out)
                out.append(c)
                i += 1
                if _class_negated:
                    out.append('^')
                    i += 1
                if pattern[i:i + 1] == ']':     # literal ] as first element
                    return None
                continue
            if c == '$':
                # Python's default $ also matches before a TRAILING \n;
                # RE2's is end-of-text only — consume the optional \n
                out.append(r'\n?$')
                i += 1
                continue
            # '^' keeps RE2 semantics (start-of-text, same as Python default)
            if pattern[i:i + 3] in ('(?=', '(?!'):
                return None
            if pattern[i:i + 4] in ('(?<=', '(?<!'):
                return None
            if fold_i and c in 'iI':
                out.append('[iİı]')
                i += 1
                continue
        elif c == ']':
            in_class = False
            out.append(c)
            i += 1
            if fold_i and not _class_negated and \
                    re.fullmatch('(?i)' + pattern[class_src:i], 'i'):
                out[class_out:] = ['(?:' + ''.join(out[class_out:]) + '|[İı])']
            continue
        out.append(c)
        i += 1
    return ''.join(out)


@lru_cache(maxsize=None)
def re2_prefilter(pattern: str) -> str | None:
    """Cached :func:`_re2_superset`, validated against RE2 once (a pattern
    RE2 cannot compile yields None → the scan runs unfiltered)."""
    pf = _re2_superset(pattern)
    if pf is not None:
        try:
            pc.match_substring_regex(pa.array([''], pa.string()), pf)
        except pa.ArrowInvalid:
            return None
    return pf


@dataclass(frozen=True)
class Span:
    """One PII finding (reference ``FileData``, app/schemas/file_data.py:96-122,
    re-expressed with offsets for span-level F1)."""

    type: str
    start: int
    end: int
    value: str
    score: float

    def sort_key(self) -> tuple[int, int, str]:
        return (self.start, self.end, self.type)


def _emit(det: Detector, start: int, end: int, value: str, out: list[Span]) -> None:
    if not value:
        return
    if det.suppress_codelike and _SECRET_EXCLUDE_RE.search(value):
        return
    out.append(Span(type=det.name, start=start, end=end, value=value, score=det.score))


def _person_scan(text: str, out: list[Span]) -> None:
    """PERSON NER pass (pii_detector_ray/ner.py; reference keep rule
    mitie_service.py:22): capitalized-run candidates, trimmed to the first
    gazetteer anchor; anchorless runs score 0.6 and fail the keep rule."""
    for m in compiled(PERSON_PATTERN).finditer(text):
        hit = trim_candidate(m.group())
        if hit is not None:
            off, value, score = hit
            out.append(Span(type=PERSON_ENTITY, start=m.start() + off,
                            end=m.end(), value=value, score=score))


def _scan_overlapping(det: Detector, text: str, out: list[Span]) -> None:
    """Hyperscan-style all-starts scan (opt-in D3 semantics): hyperscan
    reports a match from EVERY start position, and the reference collapses
    them per ``(id, start)`` keeping the longest (hyperscan_service.py:62).
    Emulated with a capturing lookahead — ``(?=(pattern))`` yields one
    (greedy ≈ longest) match per start position, including starts inside
    other matches, which plain ``finditer`` skips past."""
    # hoist leading global flags — '(?i)' inside a group is illegal on 3.11
    pat = det.pattern
    flags = ''
    fm = re.match(r'^\(\?([aiLmsux]+)\)', pat)
    if fm:
        flags, pat = fm.group(0), pat[fm.end():]
    wrapped = compiled(flags + '(?=(' + pat + '))')
    for m in wrapped.finditer(text):
        val = m.group(1)
        if val:
            _emit(det, m.start(1), m.end(1), val, out)


def _recognizer(pattern: str) -> re.Pattern | None:
    """``compiled(pattern)``, or None when stdlib ``re`` rejects it: a
    recognizer that cannot compile yields no spans and the others go on, as
    in the reference (re_service.py:30-31).  ``US_PASSPORT``'s mid-pattern
    ``(?i)`` is such a pattern on Python >= 3.11."""
    try:
        return compiled(pattern)
    except re.error:
        return None


def scan_text(text: str, detectors: list[Detector], *, ner: bool = False,
              credential_keep_longest: bool = False) -> list[Span]:
    """Per-row scan — the oracle path (re_service.py:26-28 semantics)."""
    spans: list[Span] = []
    for det in detectors:
        pat = _recognizer(det.pattern)
        if pat is None:
            continue
        if credential_keep_longest and det.suppress_codelike:
            _scan_overlapping(det, text, spans)
        else:
            for m in pat.finditer(text):
                _emit(det, m.start(), m.end(), m.group(), spans)
    if ner:
        _person_scan(text, spans)
    spans.sort(key=Span.sort_key)
    return spans


def text_array(texts: list[str] | pa.Array | pa.ChunkedArray) -> pa.Array:
    """``texts`` as one Arrow string array, NULL read as ''."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    elif not isinstance(texts, pa.Array):
        texts = pa.array(texts, pa.string())
    if pa.types.is_null(texts.type):        # an all-NULL column of no type
        texts = texts.cast(pa.string())
    return texts.fill_null('') if texts.null_count else texts


def _fold_literal(key: str) -> str:
    """RE2 form of a lowercase gate literal, to run under ``(?i)``: it
    matches every spelling Python's ``re.IGNORECASE`` matches (RE2 folds
    ſ→s and K→k itself; only the İ/ı orbit of ``i`` needs widening)."""
    return ''.join('[iİı]' if ch == 'i' else re.escape(ch) for ch in key)


def _hits(arr: pa.Array, pattern: str) -> np.ndarray:
    """Positions of the rows of ``arr`` that contain an RE2 match of ``pattern``."""
    return np.flatnonzero(
        pc.match_substring_regex(arr, pattern).to_numpy(zero_copy_only=False))


class _Rows:
    """A subset of a batch's rows: their batch indices and their texts as an
    Arrow sub-array, so a pass over the subset never reads the other rows."""

    __slots__ = ('idx', 'arr')

    def __init__(self, idx: np.ndarray, arr: pa.Array):
        self.idx = idx
        self.arr = arr

    def __len__(self) -> int:
        return len(self.idx)

    def take(self, pos: np.ndarray) -> _Rows:
        """The rows at the (sorted, unique) positions ``pos`` of this subset."""
        if len(pos) == len(self.idx):
            return self
        return _Rows(self.idx[pos], self.arr.take(pos))

    def where(self, pattern: str | None) -> _Rows:
        """The rows whose text contains an RE2 match of ``pattern`` (all of
        them when there is no pattern)."""
        if pattern is None or not len(self.idx):
            return self
        return self.take(_hits(self.arr, pattern))

    def items(self) -> Iterator[tuple[int, str]]:
        """(batch row index, text) pairs."""
        return zip(self.idx.tolist(), self.arr.to_pylist())


class _SubCorpus:
    """\\x00-joined megastring over a row subset, with position→row mapping."""

    def __init__(self, rows: _Rows):
        self.idx = rows.idx.tolist()
        whole = pa.ListArray.from_arrays(pa.array([0, len(rows)], pa.int32()), rows.arr)
        self.big = pc.binary_join(whole, '\x00')[0].as_py()
        # offsets in code points, as Python str positions count them
        lens = pc.utf8_length(rows.arr).to_numpy(zero_copy_only=False).astype(np.int64)
        self.offsets = np.concatenate(([0], np.cumsum(lens[:-1] + 1))).tolist()

    def finditer(self, pat: re.Pattern) -> Iterator[tuple[int, int, re.Match]]:
        """``(batch row index, row base offset, match)`` per match."""
        for m in pat.finditer(self.big):
            local = bisect_right(self.offsets, m.start()) - 1
            yield self.idx[local], self.offsets[local], m


def scan_texts(texts: list[str] | pa.Array | pa.ChunkedArray, detectors: list[Detector], *,
               ner: bool = False, credential_keep_longest: bool = False) -> list[list[Span]]:
    """Batched scan, identical results to mapping :func:`scan_text` over rows
    (asserted by tests).  ``texts`` may be an Arrow array (NULL reads as
    '') so a caller that holds one never converts the batch to Python.

    Each RE2 pass reads only the Arrow sub-array its gate left
    (``detectors.GATES``), and Python sees only the rows that survive:

    - three passes read the whole batch: ``[0-9]`` (digit / digit-less
      rows), the ``[0-9:]`` IP gate and ONE case-folded alternation of the
      literals of the ``'lit'`` gates (never of the prefilters: RE2 leaves
      its DFA on such a union);
    - each literal then runs over that union's rows only, and each
      detector's RE2 superset prefilter (:func:`re2_prefilter`) over its
      gate's rows only (the ``'split'`` gate's reduced pattern over the
      digit-less rows);
    - stdlib ``re`` decides every span on the prefiltered rows: one
      ``finditer`` over a megastring of them, or per row for anchored
      patterns, which joining would change;
    - ``custom`` detectors have no gate and no prefilter (their patterns
      carry no RE2 proof) and run per row over every row.
    """
    arr = text_array(texts)
    per_row: list[list[Span]] = [[] for _ in range(len(arr))]
    if not len(arr):
        return per_row
    batch = _Rows(np.arange(len(arr)), arr)
    lit_keys = sorted({k for det in detectors if isinstance(det.gate, tuple)
                       and det.gate[0] == 'lit' for k in det.gate[1:]})
    gated: dict[object, _Rows] = {}
    key_pos: dict[str, np.ndarray] = {}

    def gate_rows(g) -> _Rows:
        """The candidate rows of gate ``g``, each gate evaluated once."""
        if g in gated:
            return gated[g]
        if g in ('digit', 'nondigit'):
            digit = pc.match_substring_regex(arr, '[0-9]').to_numpy(zero_copy_only=False)
            gated['digit'] = batch.take(np.flatnonzero(digit))
            gated['nondigit'] = batch.take(np.flatnonzero(~digit))
        elif g[0] == 're':
            gated[g] = batch.where(g[1])
        else:                        # ('lit', key, ...): rows with one of its keys
            if 'literals' not in gated:     # rows with a literal of any 'lit' gate
                gated['literals'] = batch.where(
                    '(?i)(?:' + '|'.join(_fold_literal(k) for k in lit_keys) + ')')
            cand = gated['literals']
            if len(cand):
                for k in g[1:]:
                    if k not in key_pos:
                        key_pos[k] = _hits(cand.arr, '(?i)' + _fold_literal(k))
                cand = cand.take(np.unique(np.concatenate([key_pos[k] for k in g[1:]])))
            gated[g] = cand
        return gated[g]

    def scan(det: Detector, pat: re.Pattern, rows: _Rows) -> None:
        if not len(rows):
            return
        if credential_keep_longest and det.suppress_codelike:
            for row, text in rows.items():
                _scan_overlapping(det, text, per_row[row])
        elif det.anchored or not det.megastring_safe:
            for row, text in rows.items():
                for m in pat.finditer(text):
                    _emit(det, m.start(), m.end(), m.group(), per_row[row])
        else:
            for row, base, m in _SubCorpus(rows).finditer(pat):
                _emit(det, m.start() - base, m.end() - base, m.group(), per_row[row])

    for det in detectors:
        pat = _recognizer(det.pattern)
        if pat is None:
            continue
        g = det.gate
        if g is None:
            scan(det, pat, batch)
        elif isinstance(g, tuple) and g[0] == 'split':
            # digit rows: full pattern; digit-less rows: reduced equivalent
            scan(det, pat, gate_rows('digit').where(re2_prefilter(det.pattern)))
            scan(det, compiled(g[1]), gate_rows('nondigit').where(re2_prefilter(g[1])))
        else:
            scan(det, pat, gate_rows(g).where(re2_prefilter(det.pattern)))

    if ner:
        # PERSON pattern is letters+spaces only — megastring-safe (ner.py)
        for row, base, m in _SubCorpus(batch).finditer(compiled(PERSON_PATTERN)):
            hit = trim_candidate(m.group())
            if hit is not None:
                off, value, score = hit
                per_row[row].append(Span(type=PERSON_ENTITY,
                                         start=m.start() + off - base,
                                         end=m.end() - base, value=value,
                                         score=score))

    for spans in per_row:
        spans.sort(key=Span.sort_key)
    return per_row


def scrub_text(text: str, spans: list[Span]) -> str:
    """Replace each span with its masked value, right-to-left by start."""
    for sp in sorted(spans, key=Span.sort_key, reverse=True):
        text = text[:sp.start] + mask_data(sp.type, sp.value) + text[sp.end:]
    return text


def span_record(sp: Span) -> dict:
    """Arrow-friendly struct for the ``pii_spans`` list<struct> column.

    Finding fields follow the reference's finding dict
    (data_analysis_service.py:208-217) minus uuid/wall-clock — findings are
    content-keyed ``(url, start, end, type)`` for idempotent, resumable output
    (SURVEY.md §4 'Idempotence').
    """
    return {
        'type': sp.type,
        'start': sp.start,
        'end': sp.end,
        'hash': hash_data(sp.value),
        'masked': mask_data(sp.type, sp.value),
        'region': get_region(sp.type),
        'score': sp.score,
        # PERSON is deliberately custom=True: the reference's system_entities
        # omits it (regex_patterns.py:214-217 'todo add ... person')
        'is_custom_regex': sp.type not in _SYSTEM_ENTITIES,
    }
