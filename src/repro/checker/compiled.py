"""The compiled form of a :class:`~repro.specstrom.module.CheckSpec`.

``CompiledProperty`` is the per-property evaluation bundle the compiled
pipeline hangs its shared state off: one
:class:`~repro.quickltl.ProgressionCaches` bundle, shared by every
:class:`~repro.quickltl.FormulaChecker` the property's campaign
creates -- simplify/step/valuation are pure over hash-consed nodes, so
the second test of a campaign replays the first test's progression
work as dict hits.  The bundle is plain per-process state: the pooled
schedulers compile *before* the worker pool forks, so every forked
worker inherits a warm copy-on-write instance (fork-safe by
construction; the thread fallback shares one, which is safe because
entries are deterministic functions of their keys).

:class:`~repro.checker.runner.Runner` memoizes one per runner, and the
ahead-of-time pipeline (:mod:`repro.artifact`) persists one per check
with its caches pre-seeded.  The whole-module bundle that an artifact
stores is :class:`repro.artifact.build.CompiledSpec`.
"""

from __future__ import annotations

from typing import Optional

from ..quickltl import FormulaChecker, ProgressionCaches
from ..specstrom.module import CheckSpec

__all__ = ["CompiledProperty"]


class CompiledProperty:
    """Shared evaluation state for one checked property (see module docs)."""

    __slots__ = ("spec", "caches")

    def __init__(
        self, spec: CheckSpec, caches: Optional[ProgressionCaches] = None
    ) -> None:
        self.spec = spec
        # Campaigns take the default unbounded-ish bundle; long-lived
        # callers (the online monitor) pass one with ``max_entries`` set.
        self.caches = caches if caches is not None else ProgressionCaches()

    def __setstate__(self, state) -> None:
        # Artifacts pickle the slots by name.  Older builds also stored
        # the selectors the spec's actions read in a third slot; taking
        # only the current slots keeps those artifacts loading.
        _, slots = state
        self.spec = slots["spec"]
        self.caches = slots["caches"]

    def checker(self) -> FormulaChecker:
        """A fresh progression checker sharing this spec's caches."""
        return FormulaChecker(self.spec.formula, caches=self.caches)
