"""pii_detector_ray — a Ray-Data-native web-scale quality-filter + PII-scrub engine.

A brand-new engine (not a port) with the query/data-processing capabilities of
the reference `Yurasblv/pii-detector` (see SURVEY.md), re-expressed as
``ray.data.Dataset`` pipelines: ``map_batches`` over zero-copy Arrow batches,
one fused Arrow quality stage whose scorer models (language-ID, perplexity,
toxicity) are cached per worker process, explicit hash partitioning for the
wide steps, and per-partition manifests for resumable execution.

Public entry points:

- :mod:`pii_detector_ray.detectors`       — the pattern registry (semantics of
  reference ``app/core/regex_patterns.py``).
- :mod:`pii_detector_ray.functions.masking` — mask/hash/region/PHI scalar
  functions (semantics of reference ``app/services/data_analysis_service.py``).
- :mod:`pii_detector_ray.stages`          — composable ``map_batches`` stages.
- :mod:`pii_detector_ray.pipelines.quality_filter` — the flagship pipeline.
- :mod:`pii_detector_ray.oracle`          — the serial single-process oracle
  used by the conformance tests.
"""

__version__ = "0.1.0"
