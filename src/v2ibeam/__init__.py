"""EKF vehicle tracking and road-aware beamforming for mmWave V2I links."""

from .array_channel import (
    ArrayConfig,
    RicianConfig,
    RoadGeometry,
    array_response,
    average_snr,
    channel_vector,
    draw_fading,
    spatial_frequency,
)
from .codebook import Codebook, build_codebook, load_codebook, save_codebook
from .ekf import StateBelief, Tracker, init_belief, predict, update
from .harness import (
    Scenario,
    bundled_scenario,
    load_scenario,
    run_experiment,
    run_trial,
)
from .motion import MotionModel, StateVector
from .selector import ideal_bp, select

__version__ = "0.1.0"

__all__ = [
    "ArrayConfig",
    "Codebook",
    "MotionModel",
    "RicianConfig",
    "RoadGeometry",
    "Scenario",
    "StateBelief",
    "StateVector",
    "Tracker",
    "array_response",
    "average_snr",
    "build_codebook",
    "bundled_scenario",
    "channel_vector",
    "draw_fading",
    "ideal_bp",
    "init_belief",
    "load_codebook",
    "load_scenario",
    "predict",
    "run_experiment",
    "run_trial",
    "save_codebook",
    "select",
    "spatial_frequency",
    "update",
]
