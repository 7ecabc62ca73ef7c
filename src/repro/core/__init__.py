"""dbDedup core: the four-step dedup workflow and its control machinery.

:class:`~repro.core.engine.DedupEngine` implements §3.1's workflow —
feature extraction, index lookup, source selection, delta compression —
plus the §3.2 encoding plans and the :mod:`~repro.core.admission`
subsystem (the §3.4.1 governor survives as its ``"governor"`` mode). The
engine is storage-
agnostic: it talks to the database through the small
:class:`~repro.core.engine.RecordProvider` protocol, which is how it plugs
into both the primary node and unit tests.
"""

from repro.core.admission import (
    ADMISSION_MODES,
    DECISION_BYPASS,
    DECISION_DEFER,
    DECISION_INLINE,
    AdmissionController,
)
from repro.core.config import DedupConfig
from repro.core.engine import DedupEngine, EncodeResult, RecordProvider
from repro.core.reencoder import SecondaryReencoder
from repro.core.selector import SourceSelector
from repro.core.size_filter import AdaptiveSizeFilter
from repro.core.stats import DedupStats

__all__ = [
    "ADMISSION_MODES",
    "AdmissionController",
    "DECISION_BYPASS",
    "DECISION_DEFER",
    "DECISION_INLINE",
    "DedupConfig",
    "DedupEngine",
    "EncodeResult",
    "RecordProvider",
    "SecondaryReencoder",
    "SourceSelector",
    "AdaptiveSizeFilter",
    "DedupStats",
]
