"""Rule-based pregnancy episode inference over normalized clinical-event tables.

Public names are imported from their modules on first use, so `infer`,
`timeline` and `stats` never load the generator or the evaluation code.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "concept_registry": "AccuracyLevel Domain classify_accuracy load_dod_concepts load_ga_concepts "
    "load_vocabulary phenotype_search",
    "dod_engine": "DeliveryRecord infer_delivery_dates",
    "episode_builder": "PregnancyEpisode apply_cohort_filters gestational_week_of match_episodes trimester_of",
    "evaluation": "ConfusionMatrix Weighting cohen_kappa round_trip_score",
    "ga_engine": "GestationStart ga_days infer_gestation_starts",
    "ingestion": "ClinicalEvent Person load_events load_persons",
    "synthgen": "SynthConfig generate_cohort",
}
# Public name -> the module that defines it.
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
