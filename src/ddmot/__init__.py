"""Tracking-by-detection with a decoupled-diffusion motion predictor.

The library is organized around the tracking pipeline: geometric types
(`core`), a small autodiff engine (`autodiff`), the condition-encoding
network (`hminet`), the decoupled diffusion process and trainer
(`diffusion`), motion predictors (`predictors`), the two-stage matching
cascade (`association`), file formats and synthetic data (`data_io`),
evaluation (`metrics`), and a CLI (`cli`).
"""

from .core import BoundingBox, Detection, MotRecord, MotTable
from .hminet import HMINet, ModelConfig
from .diffusion import TrainConfig, TrainingSet, sample_k_steps, sample_one_step, train
from .predictors import (
    ConstantVelocityPredictor,
    D2MPPredictor,
    KalmanPredictor,
    PredictorConfig,
    make_predictor,
)
from .association import Tracker, TrackerConfig, run_sequence
from .data_io import SequenceMeta, SyntheticSpec, build_training_set, load_model, save_model, synth_sequence
from .metrics import idf1, mota, predictor_iou_diagnostic

__version__ = "0.1.0"

__all__ = [
    "BoundingBox",
    "Detection",
    "MotRecord",
    "MotTable",
    "HMINet",
    "ModelConfig",
    "TrainConfig",
    "TrainingSet",
    "sample_k_steps",
    "sample_one_step",
    "train",
    "ConstantVelocityPredictor",
    "D2MPPredictor",
    "KalmanPredictor",
    "PredictorConfig",
    "make_predictor",
    "Tracker",
    "TrackerConfig",
    "run_sequence",
    "SequenceMeta",
    "SyntheticSpec",
    "build_training_set",
    "load_model",
    "save_model",
    "synth_sequence",
    "idf1",
    "mota",
    "predictor_iou_diagnostic",
    "__version__",
]
