"""Scorer models: language-ID + perplexity + toxicity, cached per process.

This is the engine's equivalent of the reference's stateful MITIE NER slot —
the reference loads its model once per process at module import
(``app/services/mitie_service.py:12-13,37``); here the models are built once
per **worker process** (:meth:`QualityScorers.process_cached`) and applied to
whole batches by :meth:`QualityScorers.score_arrays` (SURVEY.md §2.7).  The
three scorers share one trigram pass and run inside the fused quality stage
(``stages/keepdrop.make_quality_stage``), so each batch crosses the object
store once (§7.1 step 6).
"""

from __future__ import annotations

from pii_detector_ray.models.textmodel import LangIdModel, PerplexityModel, ToxicityModel


class QualityScorers:
    def __init__(self) -> None:
        self.langid = LangIdModel()
        self.ppl = PerplexityModel()
        self.tox = ToxicityModel()

    @classmethod
    def process_cached(cls) -> 'QualityScorers':
        """Per-worker-process singleton: Ray reuses worker processes across
        tasks, so the models build once per process — the same amortization
        as an actor, while the quality stage stays an elastic task pool (no
        actor-pool ramp-up).  Memory is one model set per worker process."""
        global _PROCESS_SCORERS
        if _PROCESS_SCORERS is None:
            _PROCESS_SCORERS = cls()
        return _PROCESS_SCORERS

    def score_arrays(self, texts: list[str], n_words=None) -> dict:
        """Array-level core: ``{'lang_pred': list[str], 'lang_conf': f64,
        'perplexity': f64, 'toxicity': f64}`` for a batch of (null-filled)
        Python strings."""
        import numpy as np

        from pii_detector_ray.models.textmodel import _batch_trigrams, cap_texts
        n = len(texts)
        if not n:
            z = np.empty(0, dtype=np.float64)
            return {'lang_pred': [], 'lang_conf': z, 'perplexity': z,
                    'toxicity': z}
        tri = _batch_trigrams(cap_texts(texts))   # computed once, shared
        langs, conf = self.langid.predict_from_trigrams(n, *tri)
        return {
            'lang_pred': langs,
            'lang_conf': conf,
            'perplexity': self.ppl.ppl_from_trigrams(n, *tri, langs=langs),
            'toxicity': self.tox.score_batch(texts, n_words=n_words),
        }


_PROCESS_SCORERS: QualityScorers | None = None
