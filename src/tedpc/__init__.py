"""Rule-based pregnancy episode inference over normalized clinical-event tables."""

from .concept_registry import (
    AccuracyLevel,
    Domain,
    classify_accuracy,
    load_dod_concepts,
    load_ga_concepts,
    load_vocabulary,
    phenotype_search,
)
from .dod_engine import DeliveryRecord, infer_delivery_dates
from .episode_builder import (
    PregnancyEpisode,
    apply_cohort_filters,
    gestational_week_of,
    match_episodes,
    trimester_of,
)
from .evaluation import ConfusionMatrix, Weighting, cohen_kappa, round_trip_score
from .ga_engine import GestationStart, ga_days, infer_gestation_starts
from .ingestion import ClinicalEvent, Person, load_events, load_persons
from .synthgen import SynthConfig, generate_cohort

__version__ = "0.1.0"
