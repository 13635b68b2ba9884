"""Pose-landmark motion signals, peak/cadence analysis, and feature extraction."""

__version__ = "0.1.0"

from .core import Channel, LandmarkSequence, SignalSeries, UpdrsItem
from .features import FeatureSpec, FeatureVector, default_specs, extract
from .ingest import FileFormat, GapFill, IngestConfig, parse_frames, resample
from .kinematics import Plane
from .peaks import CadenceStats, PeakConfig, cadence_stats, detect_peaks
from .signals import TremorConfig, build_all
from .synth import MotionScenario, generate

__all__ = [
    "__version__",
    "LandmarkSequence",
    "UpdrsItem",
    "Channel",
    "SignalSeries",
    "FileFormat",
    "GapFill",
    "IngestConfig",
    "parse_frames",
    "resample",
    "Plane",
    "TremorConfig",
    "build_all",
    "PeakConfig",
    "CadenceStats",
    "detect_peaks",
    "cadence_stats",
    "FeatureSpec",
    "FeatureVector",
    "default_specs",
    "extract",
    "MotionScenario",
    "generate",
]
