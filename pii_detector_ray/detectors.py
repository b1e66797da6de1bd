"""Detector registry: the pattern library the scrub stage runs.

The *pattern strings* are semantic constants taken from the reference
implementation (``/root/reference/app/core/regex_patterns.py:4-219``) — they
must match character-for-character so that our match sets equal the
reference's (F1 >= 0.99 contract, BASELINE.md).  Everything *around* them is
new: the reference routes each pattern to one of four engines
(MITIE/hyperscan/re2/re — ``app/schemas/data_classifiers.py:91-95``); this
engine runs one fused, vectorized stdlib-``re`` pass per batch (the
reference's own ``ReService`` D1 path, ``app/services/re_service.py:26-28``,
is the semantics anchor; see SURVEY.md §2.4).

Families:

- ``pii``        — the reference's ``default_patterns``   (regex_patterns.py:196-212)
- ``credential`` — the reference's ``credentials_patterns`` (regex_patterns.py:175-193)
- ``extension``  — patterns this engine adds (PHONE — the reference has phone
  values only in its sample CSVs, no named pattern; FIXTURES.md §3).

Credential-family matches are suppressed when they look like code, mirroring
the reference's hyperscan callback (``hyperscan_service.py:57-60`` with
``SECRET_EXCLUDE`` from ``regex_patterns.py:127``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache

# --------------------------------------------------------------------------
# PII patterns (reference default_patterns, regex_patterns.py:4-52,196-212).
# --------------------------------------------------------------------------
PII_PATTERNS: dict[str, str] = {
    'IN_PAN': r'(?i)[A-Z]{3}[ABCFGHLJPTF]{1}[A-Z]{1}[0-9]{4}[A-Z]{1}',
    'IN_AADHAR': r'[0-9]{4}[ -]?[0-9]{4}[ -]?[0-9]{4}',
    'CREDIT_CARD': (
        r'\b((4\d{3})|(5[0-5]\d{2})|(6\d{3})|(1\d{3})|(3\d{3}))[- ]?'
        r'(\d{3,4})[- ]?(\d{3,4})[- ]?(\d{3,5})\b'
    ),
    'EMAIL_ADDRESS': (
        r"(?i)\b((([!#$%&*+\-/=?^_`{|}~\w][!#$%&'*+\-/=?^_`{|}~\.\w]{0,}[!#$%&'*+\-/=?^_`"
        r"{|}~\w]))[@]\w+([-.]\w+)*\.\w+([-.]\w+)*)\b"
    ),
    'IBAN_CODE': r"(?i)\b([A-Z]{2}[ \-]?[0-9]{2})((?:[ \-]?[A-Z0-9]{3,5}){2,6})([ \-]?[A-Z0-9]{1,3})?\b",
    'CRYPTO': r"(?i)\b[13][a-km-zA-HJ-NP-Z1-9]{26,33}\b",
    'US_SSN': r"\b([0-9]{3})[-.]?([0-9]{2})[-.]?([0-9]{4})\b",
    'UK_NHS': r'\b([0-9]{3})[- ]?([0-9]{3})[- ]?([0-9]{4})\b',
    'US_ITIN': r'\b9\d{2}[- ]?(5\d|6[0-5]|7\d|8[0-8]|9([0-2]|[4-9]))[- ]?\d{4}\b',
    'US_PASSPORT': r"(\b[0-9]{9}\b) | (?i)(\b[A-Z][0-9]{8}\b)",
    'US_DRIVER_LICENSE': (
        r'(\b([A-Z][A-Z0-9*]{11})\b)|'
        r'(\b([A-Z][0-9]{3,6}|[A-Z][0-9]{5,9}|[A-Z][0-9]{6,8}|[A-Z][0-9]{4,8}|[A-Z][0-9]{9,11}|[A-Z]{1,2}[0-9]{5,6}|'
        r'H[0-9]{8}|V[0-9]{6}|X[0-9]{8}|A-Z]{2}[0-9]{2,5}|[A-Z]{2}[0-9]{3,7}|[0-9]{2}[A-Z]{3}[0-9]{5,6}|[A-Z][0-9]'
        r'{13,14}|[A-Z][0-9]{18}|[A-Z][0-9]{6}R|[A-Z][0-9]{9}|[A-Z][0-9]{1,12}|[0-9]{9}[A-Z]|[A-Z]{2}[0-9]{6}[A-Z]|'
        r'[0-9]{8}[A-Z]{2}|[0-9]{3}[A-Z]{2}[0-9]{4}|[A-Z][0-9][A-Z][0-9][A-Z]|[0-9]{7,8}[A-Z])\b)|'
        r'(\b([0-9]{6,14}|[0-9]{16})\b)'
    ),
    'MEDICAL_LICENSE': (
        r"(?i)[abcdefghjklmprstuxABCDEFGHJKLMPRSTUX]{1}[a-zA-Z]{1}\d{7}|"
        r"[abcdefghjklmprstuxABCDEFGHJKLMPRSTUX]{1}9\d{7}"
    ),
    'US_BANK_NUMBER': r'\b[0-9]{8,17}\b',
}

# --------------------------------------------------------------------------
# Credential/secret patterns (reference credentials_patterns,
# regex_patterns.py:54-136,175-193).  IP_ADDRESSES and INSURANCE_INFORMATION
# live in this family in the reference registry.
# --------------------------------------------------------------------------
CREDENTIAL_PATTERNS: dict[str, str] = {
    'AWS_CREDENTIALS': (
        r'(?i)((\s*(aws|aws(_?)secret(_?)access(_?)key(?:(_?)id)?|sha)\s*=\s*)([0-9a-zA-Z/+]{40})(\s*|$))|'
        r'((\s*(aws|aws(_?)access(?:(_?)key|(_?)key(_?)id))\s*=\s*)(AKIA[0-9A-Z]{16})(\s*|$))|'
        r'(\s*(aws(_?)security(_?)token|aws(_?)session(_?)token)\s*=\s*)([A-Za-z0-9+/]{342}\.[A-Za-z0-9+/]{4}\.)'
        r'([A-Za-z0-9+/]{30})(\s*|$)'
    ),
    'AZURE_CREDENTIALS': (
        r'(?i)((\s*(azure(_?)storage(_?)account(_?)key)\s*=\s*)([A-Za-z0-9+/]{86}==|[A-Za-z0-9+/]{87}=|'
        r'[A-Za-z0-9+/]{88})(\s*|$))|'
        r'((\s*(azure(_?)ad(_?)client(_?)secret)\s*=\s*)([a-zA-Z0-9~!@#$%^&*()-=_+{}\[\];:'
        r'\'",.<>?]{32,})(\s*|$))|'
        r'((\s*(azure(_?)client(_?)id)\s*=\s*)([0-9a-f]{8}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{12})(\s*|$))|'
        r'((\s*(azure(_?)secret(?:(_?)key)?)\s*=\s*)([a-zA-Z0-9~!@#$%^&*()-=_+{}\[\];:\'",.<>?]{32,35})(\s*|$))|'
        r'((\s*(azure(_?)access(?:(_?)key)?)\s*=\s*)\S{3,})|'
        r'((\s*(azure(_?)ad(_?)client(_?)secret)\s*=\s*)([a-zA-Z0-9~!@#$%^&*()-=_+{}\[\];:\'",.<>?]{32,})(\s*|$))'
    ),
    'STRIPE_CREDENTIALS': (
        r'(?i)((\s*stripe(_?)secret\s*=\s*)([a-zA-Z0-9]{24}\.[a-zA-Z0-9]{32})(\s*|$))|'
        r'((\s*stripe(_?)public(_?)key\s*=\s*)(pk_test_[a-zA-Z0-9]{24})(\s*|$))'
    ),
    'SSH_KEYS': (
        r'(?i)(\s*(ssh(-?)rsa|ssh(-?)dsa|ssh(-?)ecdsa|ssh(-?)ed25519|ecdsa(-?)sha2(-?)nistp[0-9]{3})\s*=?\s*)'
        r'((?:AAAA[0-9A-Za-z+/]+[=]{0,3})(?: [^@\s]+@[^@\s]+)?)(\s*|$)'
    ),
    'TWILIO_CREDENTIALS': r'(?i)\s*(twilio_?account_?sid|twilio_?auth_?token)\s*=\s*([a-zA-Z0-9]{32})\s*',
    'CELERY_CREDENTIALS': (
        r'(?i)(\s*(celery(_?)broker(_?)url)\s*=\s*)(amqp[s]?://[a-zA-Z0-9_]+:[a-zA-Z0-9_]+@[a-zA-Z0-9_.]+:'
        r'[0-9]+/[a-zA-Z0-9_]+)(\s*|$)'
    ),
    'SENDGRID_CREDENTIALS': (
        r'(?i)(\s*(send(_?)grid(_?)key|send(_?)grid(_?)pass(?:word))\s*=\s*)'
        r'(SG\.[a-zA-Z0-9_]{22}\.[a-zA-Z0-9_]{43})(\s*|$)'
    ),
    'GCP_CREDENTIALS': (
        r'(?i)(\s*((google|gcp).{0,20}?)\s*=\s*)(AIza[a-zA-Z0-9]{35})(\s*|$)|'
        r'(\s*((google|gcp).{3}?(oauth|auth).{3}?(token|password))\s*=\s*)([a-zA-Z0-9-_.]{40,255})(\s*|$)|'
        r'(\s*((google|gcp).{0,20}?)\s*=\s*)\S{3,}(\s*|$)'
    ),
    'AUTH0_CREDENTIALS': (
        r'(?i)(\s*(auth0.{0,20}?)\s*=\s*)([0-9a-f]{8}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{12})(\s*|$)'
    ),
    'SNOWFLAKE_CREDENTIALS': r'(?i)(\s*(snowflake.{0,20}?)\s*=\s*)\S{3,}(\s*|$)',
    'PRIVATE_CREDENTIALS': (
        r'(?i)(\s*(cognitive.{0,20}?)\s*=\s*)([a-zA-Z0-9]{32})(\s*|$)|'
        r'(\s*(service_?bus_?sas_?key)\s*=\s*)([a-zA-Z0-9~!@#$%^&*()-=_+{}\[\];:'
        r'\'",.<>?]{32,})(\s*|$)|'
        r'(\s*(project.{0,8}id)\s*=\s*)([a-z][-a-z0-9]{0,28}[a-z0-9])(\s*|$)|'
        r'(\s*(private.{0,20}?)\s*=\s*)([a-zA-Z0-9_-]+)(\s*|$)|'
        r'(\s*((client|user|account|login).{0,20}?)\s*=\s*)([a-zA-Z0-9._%+-]+@[a-zA-Z0-9.-]+\.[a-zA-Z]{2,})(\s*|$)|'
        r'(\s*((client|user|account|login).{0,20}?)\s*=\s*)(4[0-9]{20})(\s*|$)|'
        r'(\s*(sha.{0,20}?)\s*=\s*)([0-9a-zA-Z/+]{0,})(\s*|$)|'
        r'(\s*(auth.{0,20}?)\s*=\s*)(https://accounts.google.com/o/oauth2/auth.*)(\s*|$)|'
        r'(\s*(token.{0,20}?)\s*=\s*)(https://oauth2.googleapis.com/token.*)(\s*|$)|'
        r'(\s*(client_?x509_?cert_?url|auth_?provider_?x509_?cert_?url)\s*=\s*)(https://www\.googleapis\.com/.+)(\s*|$)|'
        r'(\s*(tenant.{0,20}?)\s*=\s*)([a-zA-Z0-9]{3,})(\s*|$)|'
        r'(\s*(service_?bus_?sas_?key)\s*=\s*)([a-zA-Z0-9~!@#$%^&*()-=_+{}\[\];:\'"\.<>?]{44})(\s*|$)|'
        r'(\s+(secret_?token|api_?id|api_?key|secret(?:_key)?|auth_?token|pwd|'
        r'username|secretkey|token|database_?pass(?:word)?|db_?pass(?:word).{0,20}?)\s*=\s*)\S{3,}(\s*|$)'
    ),
    'OPENAI_KEY': r'(?i)(\s*(open_ai|open_?ai_?key|open_?ai_?api_?key)\s*=?\s*)([a-zA-Z0-9]{32})(\s*|$)',
    'GITHUB_CREDENTIALS': (
        r'(?i)(\s*(github(_?)token|github(_?)access(_?)token|github(_?)token|'
        r'github(_?)personal(_?)access(_?)token|github(_?)sha)\s*=\s*)([0-9a-zA-Z/+]{40})(\s*|$)'
    ),
    'IP_ADDRESSES': (
        r"(\b(?:25[0-5]|2[0-4][0-9]|[01]?[0-9][0-9]?)\.(?:25[0-5]|2[0-4][0-9]|[01]?[0-9][0-9]?)\.(?:25[0-5]|2[0-4][0-9]"
        r"|[01]?[0-9][0-9]?)\.(?:25[0-5]|2[0-4][0-9]|[01]?[0-9][0-9]?)\b)|"
        r"(\b(([0-9a-fA-F]{1,4}:){7,7}[0-9a-fA-F]{1,4}|([0-9a-fA-F]{1,4}:){1,7}:|([0-9a-fA-F]{1,4}:){1,6}:"
        r"[0-9a-fA-F]{1,4}|([0-9a-fA-F]{1,4}:){1,5}(:[0-9a-fA-F]{1,4}){1,2}|([0-9a-fA-F]{1,4}:){1,4}"
        r"(:[0-9a-fA-F]{1,4}){1,3}|([0-9a-fA-F]{1,4}:){1,3}(:[0-9a-fA-F]{1,4}){1,4}|([0-9a-fA-F]{1,4}:){1,2}"
        r"(:[0-9a-fA-F]{1,4}){1,5}|[0-9a-fA-F]{1,4}:((:[0-9a-fA-F]{1,4}){1,6})|:((:[0-9a-fA-F]{1,4}){1,7}|:)|fe80:"
        r"(:[0-9a-fA-F]{0,4}){0,4}%[0-9a-zA-Z]{1,}|::(ffff(:0{1,4}){0,1}:){0,1}((25[0-5]|(2[0-4]|1{0,1}[0-9]){0,1}[0-9]"
        r")\.){3,3}(25[0-5]|(2[0-4]|1{0,1}[0-9]){0,1}[0-9])|([0-9a-fA-F]{1,4}:){1,4}:((25[0-5]|(2[0-4]|1{0,1}[0-9])"
        r"{0,1}[0-9])\.){3,3}(25[0-5]|(2[0-4]|1{0,1}[0-9]){0,1}[0-9]))\b)"
    ),
    'INSURANCE_INFORMATION': (
        r'(?i)(\s*(blue(?:_?shield)?(?:_?member)?(?:_?id)?|member_?id)\s*=?\s*)'
        r'(([A-Z]{3}(\d|[A-Z]){8,12})'
        r'|(R(\d|[A-Z]){8,12}))(\s*|$)|'
        r'(\s*)RxBIN\s*=?\s*\d{6}(\s*|$)|'
        r'(\s*)RxPCN\s*=?\s*\[A-Za-z0-9]{1,10}(\s*|$)|'
        r'(\s*)Rx(Grp|\sGroup)\s*=?\s*[A-Za-z0-9\-]{1,15}(\s*|$)'
    ),
}

# Engine extensions (not in the reference registry): a North-American phone
# pattern matching the shapes in the reference's own sample corpora
# (`408 496-7223`, `785-939-6046` — tests/test_data/pii_file_samples/*.csv).
EXTENSION_PATTERNS: dict[str, str] = {
    'PHONE': r'\b\(?\d{3}\)?[-. ]\d{3}[-. ]\d{4}\b',
}

# Code-shaped credential suppression (reference SECRET_EXCLUDE,
# regex_patterns.py:127, applied at hyperscan_service.py:57-60).
SECRET_EXCLUDE = r'(?i)(\(.*\))|(=\s*get)'

# Patterns using `$`/`^` anchors cannot be scanned over a \x00-joined batch
# megastring (anchor semantics change); the scanner routes them per-row.
def _has_anchor(pattern: str) -> bool:
    """True if `$` or `^` appears as an anchor (outside char classes, not escaped)."""
    in_class = False
    i = 0
    while i < len(pattern):
        c = pattern[i]
        if c == '\\':
            i += 2
            continue
        if in_class:
            if c == ']':
                in_class = False
        elif c == '[':
            in_class = True
        elif c in '$^':
            return True
        i += 1
    return False


# Match-prefilter gates: a detector's pattern provably cannot match a row
# unless the gate holds, so ``scan.scan_texts`` runs the detector's RE2
# prefilter and its exact scan only on the gate's rows (a pure optimization
# — tests assert gated scanning equals ungated scan_text).  Every registry
# detector has an entry; ``custom`` detectors never get one.
#   'digit'      -> row contains an ASCII digit (pattern requires [0-9])
#   ('re', p)    -> row contains an RE2 match of ``p``
#   ('lit', ...) -> row contains one of the lowercase literals under
#                   re.IGNORECASE folding; every alternative of the
#                   (case-insensitive) pattern spells one of them.  All
#                   literal gates share ONE case-folded alternation pass;
#                   each literal then runs only on that pass's rows
#   ('split', p) -> digit rows run the pattern, digit-less rows run ``p``
GATES: dict[str, object] = {
    'IN_PAN': 'digit', 'IN_AADHAR': 'digit', 'CREDIT_CARD': 'digit',
    'IBAN_CODE': 'digit', 'CRYPTO': 'digit', 'US_SSN': 'digit',
    'UK_NHS': 'digit', 'US_ITIN': 'digit', 'US_PASSPORT': 'digit',
    'MEDICAL_LICENSE': 'digit', 'US_BANK_NUMBER': 'digit', 'PHONE': 'digit',
    # IPv6 can be all hex letters (abcd::beef) — a bare digit gate would miss
    # it; every IPv4/IPv6 match contains a digit or a colon
    'IP_ADDRESSES': ('re', r'[0-9:]'),
    'EMAIL_ADDRESS': ('lit', '@'),
    # US_DRIVER_LICENSE: alternatives 2 and 3 all require a digit; on
    # digit-less rows the full pattern is equivalent to alternative 1 alone,
    # so those rows are scanned with the (much cheaper) reduced pattern.
    'US_DRIVER_LICENSE': ('split', r'(\b([A-Z][A-Z0-9*]{11})\b)'),
    'AWS_CREDENTIALS': ('lit', 'aws', 'sha'),
    'AZURE_CREDENTIALS': ('lit', 'azure'),
    'STRIPE_CREDENTIALS': ('lit', 'stripe'),
    'SSH_KEYS': ('lit', 'ssh', 'ecdsa'),
    'TWILIO_CREDENTIALS': ('lit', 'twilio'),
    'CELERY_CREDENTIALS': ('lit', 'celery'),
    'SENDGRID_CREDENTIALS': ('lit', 'send'),
    'GCP_CREDENTIALS': ('lit', 'google', 'gcp'),
    'AUTH0_CREDENTIALS': ('lit', 'auth0'),
    'SNOWFLAKE_CREDENTIALS': ('lit', 'snowflake'),
    'PRIVATE_CREDENTIALS': ('lit', '='),
    'OPENAI_KEY': ('lit', 'open'),
    'GITHUB_CREDENTIALS': ('lit', 'github'),
    'INSURANCE_INFORMATION': ('lit', 'blue', 'member', 'rx'),
}


@dataclass(frozen=True)
class Detector:
    """One regex classifier (reference ``PatternRecognizer``, app/schemas/analyzer.py:7-14)."""

    id: int
    name: str
    pattern: str
    family: str            # 'pii' | 'credential' | 'extension'
    score: float = 0.8     # regex hits get score 0.8 (data_analysis_service.py:206)

    @property
    def anchored(self) -> bool:
        return _has_anchor(self.pattern)

    @property
    def gate(self) -> object | None:
        """This detector's ``GATES`` entry; None for ``custom`` detectors,
        whose pattern need not match what a registry name's gate assumes."""
        return None if self.family == 'custom' else GATES.get(self.name)

    @property
    def suppress_codelike(self) -> bool:
        """Credential matches that look like code are dropped (hyperscan_service.py:57-60)."""
        return self.family == 'credential'

    @property
    def megastring_safe(self) -> bool:
        """True when the pattern provably cannot match across a ``\\x00`` join
        boundary, so the batched megastring scan is byte-equivalent to per-row
        scanning.  The registry families are audited (no char class admits NUL
        without being row-local — tests/test_scan.py); arbitrary user-supplied
        ``custom`` patterns are NOT (``.``, ``\\S``, negated classes all match
        NUL and would leak the neighboring document into the span), so they
        always take the per-row path."""
        return self.family != 'custom'


def build_registry(
    include_pii: bool = True,
    include_credentials: bool = True,
    include_extensions: bool = True,
    extra: dict[str, str] | None = None,
    only: list[str] | None = None,
) -> list[Detector]:
    """Build the detector list.

    ``extra`` is the user-extension surface (reference ``DataClassifiers``
    dynamic registry, SURVEY.md §2.11): custom name→pattern entries are
    appended with family ``'custom'`` and are flagged ``is_custom_regex``
    downstream because they are not in :func:`system_entities`.

    ``only`` restricts to a subset by name (the reference's rescan-by-
    classifier path re-scans with a delta pattern set, redis_tasks.py:174-260).
    """
    out: list[Detector] = []
    i = 0
    groups: list[tuple[dict[str, str], str]] = []
    if include_pii:
        groups.append((PII_PATTERNS, 'pii'))
    if include_credentials:
        groups.append((CREDENTIAL_PATTERNS, 'credential'))
    if include_extensions:
        groups.append((EXTENSION_PATTERNS, 'extension'))
    if extra:
        groups.append((extra, 'custom'))
    for patterns, family in groups:
        for name, pattern in patterns.items():
            if only is None or name in only:
                out.append(Detector(id=i, name=name, pattern=pattern, family=family))
            i += 1
    return out


def system_entities() -> list[str]:
    """Builtin entity names (reference regex_patterns.py:214-217); anything
    else is marked ``is_custom_regex`` (data_analysis_service.py:214)."""
    return list(PII_PATTERNS) + list(CREDENTIAL_PATTERNS)


@lru_cache(maxsize=None)
def compiled(pattern: str) -> re.Pattern:
    """Per-process compiled-pattern cache (compile once per worker, never per batch)."""
    return re.compile(pattern)


DEFAULT_SCRUB_ENTITIES = ['EMAIL_ADDRESS', 'PHONE', 'US_SSN', 'CREDIT_CARD', 'IP_ADDRESSES']
"""The north-star scrub set: email, phone, ssn, credit-card, ip (BASELINE.json)."""
