"""Deterministic PERSON NER for the D4 engine slot.

The reference routes a MITIE ``named_entity_extractor`` model through its
cascade and keeps only PERSON entities whose score rounds to >= 0.8
(``app/services/mitie_service.py:15-34``).  The MITIE model file is not
distributable here, so this slot hosts a deterministic re-expression with the
same *contract*:

- candidate spans are runs of 2+ capitalized words (``[A-Z][a-z]+``, single
  spaces) — the shape MITIE's PERSON entities take in the reference corpora;
- each candidate gets a score: 0.9 when the first token is in the first-name
  gazetteer, 0.6 otherwise;
- the keep rule is the reference's: ``round(score, 1) >= 0.8``
  (mitie_service.py:22), so only gazetteer-confirmed candidates survive;
- findings carry ``is_custom_regex=True`` downstream because ``PERSON`` is
  not in the reference's ``system_entities`` (regex_patterns.py:214-217 has
  a literal ``todo add customers_email & person``) — a reference quirk we
  replicate.

The candidate pattern contains only letter classes and literal spaces, so it
can never match the ``\\x00`` batch-join byte: the scanner runs it on the
megastring fast path (``scan.py``).
"""

from __future__ import annotations

PERSON_ENTITY = 'PERSON'
# RE2-compatible core (used verbatim in the DuckDB oracle — RE2's \b is
# ASCII-only) ...
PERSON_PATTERN_SQL = r'\b[A-Z][a-z]+(?: [A-Z][a-z]+)+\b'
# ... and the Python pattern pins (?a) so stdlib re's Unicode \b agrees with
# RE2 on non-ASCII-adjacent runs ('caféJohn': Unicode \b sees no boundary
# before J, ASCII \b does — both sides must see the same candidates)
PERSON_PATTERN = '(?a)' + PERSON_PATTERN_SQL
SCORE_GAZETTEER = 0.9     # first token is a known first name

# Common English-language first names (public knowledge; ~190 entries).  The
# set is deliberately first-name-only: the candidate regex supplies the
# multi-token shape, the gazetteer anchors the leading token.
FIRST_NAMES = frozenset((
    'Aaron Adam Alan Albert Alex Alexander Alice Amanda Amber Amy Andrea '
    'Andrew Angela Ann Anna Anthony Arthur Ashley Austin Barbara Benjamin '
    'Betty Beverly Billy Bobby Bradley Brandon Brenda Brian Brittany Bruce '
    'Bryan Carl Carol Carolyn Catherine Charles Charlotte Cheryl Chris '
    'Christian Christina Christine Christopher Cynthia Daniel Danielle '
    'David Deborah Debra Denise Dennis Diana Diane Donald Donna Doris '
    'Dorothy Douglas Dylan Edward Elijah Elizabeth Emily Emma Eric Ethan '
    'Eugene Evelyn Frances Frank Gabriel Gary George Gerald Gloria Grace '
    'Gregory Hannah Harold Heather Helen Henry Jack Jacob Jacqueline James '
    'Janet Janice Jason Jean Jeffrey Jennifer Jeremy Jerry Jesse Jessica '
    'Joan Joe John Johnny Jonathan Jordan Jose Joseph Joshua Joyce Juan '
    'Judith Judy Julia Julie Justin Karen Katherine Kathleen Kathryn Keith '
    'Kelly Kenneth Kevin Kimberly Kyle Larry Laura Lauren Lawrence Linda '
    'Lisa Logan Lori Louis Madison Margaret Maria Marie Marilyn Mark '
    'Martha Mary Mason Matthew Megan Melissa Michael Michelle Mildred '
    'Nancy Natalie Nathan Nicholas Nicole Noah Olivia Pamela Patricia '
    'Patrick Paul Peter Philip Rachel Ralph Randy Raymond Rebecca Richard '
    'Robert Roger Ronald Rose Roy Russell Ruth Ryan Samantha Samuel Sandra '
    'Sara Sarah Scott Sean Sharon Shirley Sophia Stephanie Stephen Steven '
    'Susan Teresa Terry Theresa Thomas Timothy Tyler Victoria Vincent '
    'Virginia Walter Wayne William Willie Zachary'
).split())


def trim_candidate(value: str) -> tuple[int, str, float] | None:
    """Capitalized-run candidate → surviving PERSON span, or None.

    Sentence-style capitals drag lead-in words into the run ('Ask John
    Smith'), so the span is trimmed to start at the FIRST gazetteer name
    that still has a following token (the surname).  Returns (byte offset
    of the trimmed span within ``value``, trimmed text, score); None when
    no such anchor exists — the shape-only score 0.6 fails the
    ``round(score,1) >= 0.8`` keep rule.

    SQL-oracle equivalence: a candidate survives iff any non-final token is
    in the gazetteer — expressible as
    ``list_intersect(tokens[1:-1 inclusive], gazetteer)`` in DuckDB.
    """
    tokens = value.split(' ')
    for i in range(len(tokens) - 1):
        if tokens[i] in FIRST_NAMES:
            offset = sum(len(t) + 1 for t in tokens[:i])
            return offset, ' '.join(tokens[i:]), SCORE_GAZETTEER
    return None
