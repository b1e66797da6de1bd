"""Per-finding scalar transforms (reference semantics, replicated exactly).

These functions are the byte-level contract for masked PII values and are used
by BOTH the Ray scrub stage and the serial conformance oracle — one
implementation, two call sites, so the pipeline can never drift from the
oracle.

Semantics sources (cited per function):

- ``mask_data``  — reference ``app/services/data_analysis_service.py:115-153``
- ``hash_data``  — reference ``app/services/data_analysis_service.py:102-113``
  (SHA-384 hex despite the docstring there saying md5)
- ``get_region`` — reference ``app/services/data_analysis_service.py:68-84``
- ``is_phi``     — reference ``app/services/data_analysis_service.py:38-41,86-100``
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_ALNUM = re.compile('[A-Za-z0-9]')

# PHI keyword pattern, verbatim from data_analysis_service.py:38-41.
PHI_PATTERN = (
    r'(\b|_)(health)(\b|_)|medical|immun|pharmacy|disease|patient|insura|(\b|_)(Rh)(\b|_)|'
    r'MRN|(\b|_)(phi)(\b|_)'
)
_PHI_RE = re.compile(PHI_PATTERN, re.IGNORECASE)


def mask_data(entity: str, data: str) -> str:
    """Structure-preserving mask of a PII value.

    Branch-for-branch replication of data_analysis_service.py:115-153:

    - empty -> ``''``
    - ``EMAIL``-containing entity with ``@``: ``EMAIL_ADDRESS`` keeps first
      char + TLD; other email entities keep first 2 chars + full domain;
      only ``[A-Za-z0-9]`` between become ``*`` (punctuation stays visible).
    - ``US_SSN`` / ``PERSON``: keep 1 head char (len<=4), 2 head chars
      (4<len<=6), or 2 head + 2 tail chars (len>6).
    - everything else: full ``[A-Za-z0-9] -> *``.

    The reference swallows exceptions mid-mask and returns the data as
    processed so far (e.g. ``a@b@c.com`` raises in ``split('@')`` before any
    mutation and comes back unmasked, :151-152).  We replicate the swallow,
    not a "fixed" version — FIXTURES.md §4.
    """
    try:
        if not data:
            return ''
        if 'EMAIL' in entity and '@' in data:
            username, domain = data.split('@')
            if entity == 'EMAIL_ADDRESS':
                domain = domain.split('.')[-1]
                data = data[:1] + _ALNUM.sub('*', data[1:(len(data) - len(domain))]) + domain
            else:
                data = data[:2] + _ALNUM.sub('*', data[2:(len(data) - len(domain))]) + domain
        elif entity in ('US_SSN', 'PERSON'):
            if len(data) <= 4:
                data = data[:1] + _ALNUM.sub('*', data[1:])
            elif 4 < len(data) <= 6:
                data = data[:2] + _ALNUM.sub('*', data[2:])
            else:
                data = data[:2] + _ALNUM.sub('*', data[2:-2]) + data[-2:]
        else:
            data = _ALNUM.sub('*', data)
    except Exception:
        pass
    return data


def hash_data(data: str) -> str:
    """SHA-384 hexdigest of the raw matched value (data_analysis_service.py:102-113)."""
    return hashlib.sha384(data.encode('utf-8')).hexdigest()


def get_region(entity_type: str) -> str:
    """Entity-name prefix -> region (data_analysis_service.py:68-84)."""
    if entity_type[:2] == 'US':
        return "USA"
    elif entity_type[:2] == 'IN':
        return "India"
    else:
        return "All"


def is_phi(name: str, data: str) -> bool:
    """True when the object name OR payload matches the PHI keyword pattern
    (data_analysis_service.py:86-100)."""
    return bool(_PHI_RE.search(name) or _PHI_RE.search(data))


# RE2 gate: every _PHI_RE match CONTAINS one of its keywords (health,
# medical, immun, pharmacy, disease, patient, insura, rh, mrn, phi)
# case-insensitively, and ``health``/``rh``/``phi`` only where the chars
# either side are not letters or digits.  It is a provable superset of
# _PHI_RE:
# - RE2's (?i) uses Unicode SIMPLE folding, which deliberately excludes the
#   dotted/dotless-I orbit that Python's re folds (İ U+0130 and ı U+0131
#   both match ``i`` under re.IGNORECASE) — a full-BMP sweep shows that is
#   the ONLY per-letter divergence for this alphabet — so ``i`` is widened
#   to the explicit orbit class;
# - _PHI_RE's ``(\b|_)`` before a keyword admits start-of-text, a non-word
#   char or ``_``; RE2's ``(?i)[^a-z0-9]`` rejects only a-z, A-Z, 0-9,
#   ſ (U+017F) and K (U+212A), all Python word chars, so it admits every
#   one of those (and likewise after the keyword).
# The boundary keeps common words like "rhythm", "graphic" or "healthy"
# from sending a row to the exact (slow, unanchored) regex.  The full-BMP
# boundary sweep is in tests/test_masking.py.
_PHI_GATE_RE2 = ('(?i)(?:med[iİı]cal|[iİı]mmun|pharmacy|d[iİı]sease|pat[iİı]ent|[iİı]nsura|mrn'
                 '|(?:^|[^a-z0-9])(?:health|rh|ph[iİı])(?:$|[^a-z0-9]))')


def is_phi_batch(names: list[str] | pa.Array, texts: list[str] | pa.Array) -> list[bool]:
    """Vectorized :func:`is_phi`: ONE RE2 gate pass over the texts and the
    names together, exact per-row regex only on the gated values.  Equals
    ``[is_phi(n, t) ...]`` (asserted in tests)."""
    names, texts = (v if isinstance(v, pa.Array) else pa.array(v, pa.string())
                    for v in (names, texts))
    n = len(texts)
    out = [False] * n
    if n:
        both = pa.concat_arrays([texts, names.cast(texts.type)])
        rows = np.flatnonzero(pc.match_substring_regex(both, _PHI_GATE_RE2)
                              .to_numpy(zero_copy_only=False))
        for i, value in zip(rows.tolist(), both.take(rows).to_pylist()):
            if _PHI_RE.search(value):
                out[i % n] = True
    return out
