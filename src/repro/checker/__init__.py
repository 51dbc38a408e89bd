"""The Quickstrom checker: test loop, results, shrinking."""

from .compiled import CompiledProperty
from .config import RunnerConfig
from .result import TestResult, Counterexample, CampaignResult
from .runner import Runner, check_spec
from .shrink import shrink_counterexample

__all__ = [
    "CompiledProperty",
    "RunnerConfig",
    "TestResult",
    "Counterexample",
    "CampaignResult",
    "Runner",
    "check_spec",
    "shrink_counterexample",
]
