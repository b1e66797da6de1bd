"""Golden tests for mask/hash/region/PHI semantics (FIXTURES.md §4;
reference data_analysis_service.py:68-153)."""

import hashlib

from pii_detector_ray.functions.masking import get_region, hash_data, is_phi, mask_data


def test_mask_email_address_keeps_first_char_and_tld():
    assert mask_data('EMAIL_ADDRESS', 'jwhite@domain.com') == 'j*****@******.com'


def test_mask_org_email_keeps_two_chars_and_domain():
    # non-EMAIL_ADDRESS email entity: first 2 chars + full domain kept
    assert mask_data('ORG_EMAIL', 'jwhite@domain.com') == 'jw****@domain.com'


def test_mask_email_multi_at_swallows_exception():
    # reference raises in split('@') and returns the un-mutated value (:151-152)
    assert mask_data('EMAIL_ADDRESS', 'a@b@c.com') == 'a@b@c.com'


def test_mask_ssn_len_gt_6():
    assert mask_data('US_SSN', '172-32-1176') == '17*-**-**76'


def test_mask_person_short():
    assert mask_data('PERSON', 'Bob') == 'B**'
    assert mask_data('PERSON', 'Alice') == 'Al***'
    assert mask_data('PERSON', 'Bobby') == 'Bo***'


def test_mask_default_full():
    assert mask_data('CREDIT_CARD', '5270-4267-6450-5516') == '****-****-****-****'


def test_mask_empty():
    assert mask_data('US_SSN', '') == ''


def test_hash_is_sha384():
    assert hash_data('x') == hashlib.sha384(b'x').hexdigest()


def test_region_prefix_map():
    assert get_region('US_SSN') == 'USA'
    assert get_region('IN_PAN') == 'India'
    assert get_region('EMAIL_ADDRESS') == 'All'


def test_phi_flag():
    assert is_phi('patient_records.csv', '')
    assert is_phi('', 'the MRN is 12345')
    assert is_phi('', 'routine pharmacy visit')
    assert not is_phi('notes.txt', 'a walk in the park')


def test_phi_batch_equals_scalar():
    from pii_detector_ray.functions.masking import is_phi_batch
    names = ['patient_records.csv', 'notes.txt', '', 'x', 'phi_dump']
    texts = ['', 'a walk in the park', 'the MRN is 12345', 'health_check ok', '']
    assert is_phi_batch(names, texts) == [is_phi(n, t) for n, t in zip(names, texts)]


def test_phi_batch_unicode_ifold_orbit():
    # Python re.IGNORECASE folds İ (U+0130) and ı (U+0131) to `i`; RE2's
    # simple folding does not, so the vectorized gate widens `i` to the
    # orbit class.  These rows would be silently mis-flagged otherwise.
    from pii_detector_ray.functions.masking import is_phi_batch
    texts = ['phİ', 'patİent zero', 'medıcal file', 'phı', 'walk ın park']
    names = [''] * len(texts)
    assert is_phi_batch(names, texts) == [is_phi(n, t) for n, t in zip(names, texts)]
    assert is_phi_batch(names, texts)[:4] == [True, True, True, True]


def test_phi_batch_name_fold_orbit():
    # the NAME gate lowercases in Python, which leaves ı/ſ in place and
    # turns İ into 'i'+U+0307 — all three fold to i/s under re.IGNORECASE,
    # so the gate normalizes those orbits before the substring test
    from pii_detector_ray.functions.masking import is_phi_batch
    names = ['İMMUN.csv', 'ıMMUN.txt', 'DIſEASE.log', 'PHı_dump',
             'patİent.db', 'clean.txt']
    texts = [''] * len(names)
    got = is_phi_batch(names, texts)
    assert got == [is_phi(n, t) for n, t in zip(names, texts)]
    assert got == [True, True, True, True, True, False]


def _phi_sweep_misses(gate: str) -> list[str]:
    """Texts ``c+k`` / ``k+c`` (c: every BMP code point, k: a boundary
    keyword spelling) that _PHI_RE matches but the RE2 ``gate`` rejects."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from pii_detector_ray.functions.masking import _PHI_RE

    chars = [chr(c) for c in range(0x10000) if not 0xD800 <= c < 0xE000]
    spellings = ['health', 'HEALTH', 'Health', 'rh', 'RH', 'Rh', 'phi', 'PHI',
                 'Phi', 'phİ', 'PHİ', 'phı', 'PHı']
    misses = []
    for k in spellings:
        texts = [c + k for c in chars] + [k + c for c in chars]
        gated = pc.match_substring_regex(pa.array(texts), gate).to_pylist()
        misses += [t for t, g in zip(texts, gated) if not g and _PHI_RE.search(t)]
    return misses


def test_phi_gate_boundary_superset_sweep():
    """The boundary-aware RE2 gate admits every char next to health/rh/phi
    that _PHI_RE's ``(\\b|_)`` admits; a boundary class that also excludes
    ``_`` is caught by the same sweep."""
    from pii_detector_ray.functions.masking import _PHI_GATE_RE2

    assert _phi_sweep_misses(_PHI_GATE_RE2) == []
    narrowed = _PHI_GATE_RE2.replace('[^a-z0-9]', '[^a-z0-9_]')
    assert narrowed != _PHI_GATE_RE2
    assert '_health' in _phi_sweep_misses(narrowed)


def test_phi_batch_equals_scalar_on_webtext_corpora(webtext_pages):
    from pii_detector_ray.functions.masking import is_phi_batch
    for seed in (1, 2, 3):
        pages = webtext_pages(seed)
        names = pages.column('url').to_pylist()
        texts = [t or '' for t in pages.column('text').to_pylist()]
        assert is_phi_batch(names, texts) == [is_phi(n, t) for n, t in zip(names, texts)]
