"""Pipeline configuration: detector sets, quality thresholds, execution sizing.

This is the engine's user-extension surface (reference ``DataClassifiers``
dynamic registry + sensitivity config, SURVEY.md §2.11): everything a user of
the reference could tune — pattern sets, include/exclude filename filters,
rescan subsets — is a field here, loadable from JSON.

Quality thresholds implement Gopher/C4-style heuristic rules (north_star in
BASELINE.json); defaults are documented per rule in
``pii_detector_ray/stages/heuristics.py``.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field


@dataclass
class QualityThresholds:
    """Keep/drop rule thresholds. Rules evaluate in the declared order; the
    first failing rule becomes ``drop_reason``."""

    min_chars: int = 200            # Gopher: drop very short docs
    max_chars: int = 1_000_000      # drop pathological giants
    min_mean_word_len: float = 2.0  # Gopher: mean word length in [min,max]
    max_mean_word_len: float = 12.0
    max_symbol_word_ratio: float = 0.1   # Gopher: '#'/'…' per word
    max_bullet_line_frac: float = 0.9    # Gopher: lines starting with bullets
    max_ellipsis_line_frac: float = 0.3  # Gopher: lines ending with ellipsis
    max_dup_line_frac: float = 0.3       # C4/Gopher: duplicate-line fraction
    # Gopher n-gram repetition rules (table A1; stages/repetition.py).
    # None = rule off AND features not computed (they cost a per-doc
    # np.unique pass); Gopher's published thresholds are .20/.18/.16/.15/.10.
    max_top_2gram_char_frac: float | None = None
    max_top_3gram_char_frac: float | None = None
    max_top_4gram_char_frac: float | None = None
    max_dup_5gram_char_frac: float | None = None
    max_dup_10gram_char_frac: float | None = None
    min_alpha_word_frac: float = 0.7     # Gopher: words containing >=1 alpha char
    min_stopword_hits: int = 2           # Gopher: >=2 distinct stopwords (lang-aware)
    max_perplexity: float = 25_000.0     # CCNet-style LM filter on char-trigram ppl
    max_toxicity: float = 0.5            # toxicity classifier score
    min_lang_confidence: float = 0.5     # langid softmax prob; below -> 'lang_confidence'
    allowed_langs: list[str] | None = None  # None = keep all languages


@dataclass
class PipelineConfig:
    # detector selection (maps to reference engine routing, SURVEY.md §2.4/2.11)
    include_pii: bool = True
    include_credentials: bool = True
    include_extensions: bool = True
    custom_patterns: dict[str, str] = field(default_factory=dict)
    scrub_entities: list[str] | None = None  # None = all registered detectors
    rescan_only: list[str] | None = None     # delta pattern set (rescan path, §3.2)
    # D4 NER slot: deterministic PERSON detector (ner.py; reference MITIE
    # cascade keeps PERSON with round(score,1)>=0.8, mitie_service.py:15-34)
    include_ner: bool = True
    # opt-in hyperscan (type,start)-keep-longest credential dedup
    # (hyperscan_service.py:62); default False = the D1 re-engine semantics
    credential_keep_longest: bool = False

    # object-selection filters (reference F1-F4, F8; SURVEY.md §2.2)
    url_extension_blocklist: tuple[str, ...] = (
        # the reference's UNSUPPORTED_EXTENSIONS, verbatim (app/core/config.py:98-110)
        '.png', '.jpg', '.jpeg', '.gif', '.bmp', '.svg', '.tif', '.tiff',
        '.ico', '.mbox', '.webm',
    )
    url_log_filter: bool = True              # drop urls containing 'log' path parts (F2)
    url_include_regex: str | None = None     # filename include classifier (F3)
    url_exclude_regex: str | None = None     # filename exclude classifier (F3)
    url_include_set: list[str] | None = None  # classification include-set (F4)
    # normalize urls (case/port/fragment/param-order) before the url-keyed
    # dedup so spelling variants of one page collapse (stages/urlnorm.py);
    # off by default to preserve the reference's raw-url key contract
    canonicalize_urls: bool = False
    max_doc_bytes: int | None = 16_000_000   # F8 row-size guard on the html payload

    thresholds: QualityThresholds = field(default_factory=QualityThresholds)

    # rows per scrub batch of the rescan and traindata pipelines; the
    # flagship's stages take whole blocks (pipelines/quality_filter.py)
    scrub_batch_size: int = 1024

    # checkpoint/resume layout
    num_output_partitions: int = 8

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), default=str, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> 'PipelineConfig':
        raw = json.loads(text)
        thr = raw.pop('thresholds', None)
        cfg = cls(**{k: v for k, v in raw.items() if k in {f.name for f in dataclasses.fields(cls)}})
        if thr:
            cfg.thresholds = QualityThresholds(**thr)
        if isinstance(cfg.url_extension_blocklist, list):
            cfg.url_extension_blocklist = tuple(cfg.url_extension_blocklist)
        return cfg

    def config_hash(self) -> str:
        """Stable fingerprint recorded in partition manifests for lineage."""
        import hashlib
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]
