"""Reflective step-wise reasoning lab.

One executor that verifies and retries or backtracks over reasoning steps
(`run_rtbs`; `mode_config` sets it up for mode none, rmtp or rtbs), the
closed-form accuracy theory of the synthetic rate model, Monte-Carlo
validation, two rule-checkable tasks (long multiplication and Sudoku),
corpus generation, and group-relative advantage utilities.
"""

from . import sim as _sim  # noqa: F401  (registers the synthetic task)
from . import tasks as _tasks  # noqa: F401  (registers mult and sudoku)
from .engines import MODES, ReflectConfig, mode_config, run_rtbs
from .mtp import (
    DifficultyTier,
    Disposition,
    EpisodeRecord,
    Event,
    Outcome,
    Query,
    SelfVerifying,
    Step,
    TaskName,
    Verification,
    VerifiedStep,
)
from .theory import SimplifiedParams

__version__ = "0.1.0"

__all__ = [
    "DifficultyTier",
    "Disposition",
    "EpisodeRecord",
    "Event",
    "MODES",
    "Outcome",
    "Query",
    "ReflectConfig",
    "SelfVerifying",
    "SimplifiedParams",
    "Step",
    "TaskName",
    "Verification",
    "VerifiedStep",
    "mode_config",
    "run_rtbs",
    "__version__",
]
