"""The fuzz corpus: divergences and counterexamples, replayable forever.

Every interesting find is persisted as one JSON object per line
(JSON Lines), self-contained: the machine, the injected fault, the
*generated specification source text* and the campaign configuration are
stored verbatim, so an entry replays bit-for-bit on a checkout that no
longer has the generator that produced it.

Two entry kinds:

* ``divergence`` -- a differential-oracle failure (path disagreement,
  trace-oracle mismatch, or the model spec failing its correct twin).
  Replaying re-runs the shrunk campaign and reports whether the
  divergence still reproduces.
* ``counterexample`` -- a minimized failing action sequence found on a
  known-fault twin.  Replaying feeds the actions through
  :meth:`repro.checker.runner.Runner.replay` and asserts the recorded
  verdict reproduces.

A line that is not a well-formed entry -- not JSON, a missing or
mistyped field, an unknown ``config`` key -- raises :class:`CorpusError`
naming its 1-based line, and so does an entry whose stored spec source
no longer elaborates.  On malformed content, :func:`read_corpus`,
:meth:`CorpusEntry.from_dict` and :meth:`CorpusEntry.runner` raise
nothing else.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from ..checker.config import RunnerConfig
from ..checker.runner import Runner
from ..executors.domexec import DomExecutor
from ..specstrom.actions import ResolvedAction
from ..specstrom.errors import SpecError
from ..specstrom.module import CheckSpec, load_module
from .machine import MachineFault, MachineSpec, machine_app

__all__ = [
    "CorpusEntry",
    "CorpusError",
    "append_entry",
    "read_corpus",
    "replay_entry",
]

_KINDS = ("divergence", "counterexample")


class CorpusError(ValueError):
    """A corpus record that cannot be read or replayed.

    ``line`` is the record's 1-based line in its JSONL file, or ``None``
    for a record that did not come from one.
    """

    def __init__(self, message: str, line: Optional[int] = None) -> None:
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def _typed(value, kinds, name: str):
    if not isinstance(value, kinds):
        raise TypeError(f"field {name!r} has type {type(value).__name__}")
    return value


@dataclass
class CorpusEntry:
    """One replayable corpus record."""

    kind: str  # "divergence" | "counterexample"
    detail: str
    machine: MachineSpec
    fault: Optional[MachineFault]
    spec_source: str
    spec_kind: str  # "model" | "random"
    config: dict  # RunnerConfig fields relevant to replay
    default_subscript: int
    actions: Optional[List[tuple]] = None  # counterexample entries
    verdict: Optional[str] = None
    campaign_seed: Optional[int] = None
    extra: dict = field(default_factory=dict)
    #: 1-based line the entry was read from (not serialised).
    line: Optional[int] = field(default=None, compare=False, repr=False)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "detail": self.detail,
            "machine": self.machine.to_dict(),
            "fault": None if self.fault is None else self.fault.to_dict(),
            "spec_source": self.spec_source,
            "spec_kind": self.spec_kind,
            "config": self.config,
            "default_subscript": self.default_subscript,
            "actions": (
                None
                if self.actions is None
                else [
                    {
                        "name": name,
                        "kind": resolved.kind,
                        "selector": resolved.selector,
                        "index": resolved.index,
                        "args": list(resolved.args),
                    }
                    for name, resolved in self.actions
                ]
            ),
            "verdict": self.verdict,
            "campaign_seed": self.campaign_seed,
            "extra": self.extra,
        }

    @classmethod
    def from_dict(cls, data: dict, line: Optional[int] = None) -> "CorpusEntry":
        """Rebuild an entry from its JSON object; a malformed one raises
        :class:`CorpusError` (carrying ``line`` when given)."""
        try:
            return cls._from_dict(data, line)
        except KeyError as error:
            raise CorpusError(f"missing field {error}", line) from None
        except (TypeError, ValueError, AttributeError, OverflowError) as error:
            raise CorpusError(f"malformed entry: {error}", line) from None

    @classmethod
    def _from_dict(cls, data: dict, line: Optional[int]) -> "CorpusEntry":
        _typed(data, dict, "entry")
        kind = data["kind"]
        if kind not in _KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        detail = _typed(data["detail"], str, "detail")
        config = _typed(data["config"], dict, "config")
        RunnerConfig(**config)  # unknown or ill-typed knobs fail here
        extra = _typed(data.get("extra", {}), dict, "extra")
        # Divergence replay rebuilds the batch from these two fields.
        for twin in _typed(extra.get("twins", []), list, "twins"):
            MachineFault.from_dict(twin)
        int(extra.get("jobs", 0))
        actions = _typed(data.get("actions"), (list, type(None)), "actions")
        if kind == "counterexample" and actions is None:
            raise ValueError("a counterexample entry needs its actions")
        return cls(
            kind=kind,
            detail=detail,
            machine=MachineSpec.from_dict(data["machine"]),
            fault=(
                None
                if data.get("fault") is None
                else MachineFault.from_dict(data["fault"])
            ),
            spec_source=_typed(data["spec_source"], str, "spec_source"),
            spec_kind=data.get("spec_kind", "model"),
            config=config,
            default_subscript=_typed(
                data.get("default_subscript", 10), int, "default_subscript"
            ),
            actions=(
                None
                if actions is None
                else [
                    (
                        a["name"],
                        ResolvedAction(
                            a["kind"],
                            a["selector"],
                            a["index"],
                            tuple(a["args"]),
                        ),
                    )
                    for a in actions
                ]
            ),
            verdict=_typed(data.get("verdict"), (str, type(None)), "verdict"),
            campaign_seed=data.get("campaign_seed"),
            extra=extra,
            line=line,
        )

    # -- replay --------------------------------------------------------

    def check_spec(self) -> CheckSpec:
        """The entry's check, elaborated from the stored source."""
        try:
            module = load_module(
                self.spec_source, default_subscript=self.default_subscript
            )
        except SpecError as error:
            raise CorpusError(f"spec source does not elaborate: {error}",
                              self.line) from None
        if not module.checks:
            raise CorpusError("spec source defines no check", self.line)
        return module.checks[0]

    def runner_config(self) -> RunnerConfig:
        return RunnerConfig(**self.config)

    def runner(self) -> Runner:
        """A runner reconstructed exactly as the finding was made."""
        factory = machine_app(self.machine, self.fault)
        return Runner(
            self.check_spec(),
            lambda: DomExecutor(factory),
            self.runner_config(),
        )


def append_entry(path: str, entry: CorpusEntry) -> None:
    """Append one corpus record (creating the file and parents)."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry.to_dict(), sort_keys=True) + "\n")


def read_corpus(path: str) -> Iterator[CorpusEntry]:
    """Iterate the corpus records of a JSONL file (blank lines are
    skipped; see :class:`CorpusError` for the rest)."""
    with open(path, "rb") as handle:
        for number, raw in enumerate(handle, start=1):
            if not raw.strip():
                continue
            try:
                data = json.loads(raw.decode("utf-8"))
            except (ValueError, RecursionError) as error:
                raise CorpusError(f"not valid JSON: {error}", number) from None
            yield CorpusEntry.from_dict(data, number)


def replay_entry(entry: CorpusEntry) -> Optional[str]:
    """Replay one corpus record.

    Returns ``None`` when the finding reproduces (a counterexample's
    verdict comes back, a divergence still diverges), else a description
    of what changed -- which, for a divergence, means it was *fixed*.
    """
    if entry.kind == "counterexample":
        runner = entry.runner()
        result = runner.replay(list(entry.actions or []))
        if result is None:
            return "the recorded action sequence is no longer replayable"
        if result.verdict.name != entry.verdict:
            return (
                f"recorded verdict {entry.verdict} but replay gives "
                f"{result.verdict.name}"
            )
        return None
    # Divergences re-run the whole (already shrunk) campaign.
    from .campaigns import replay_divergence

    return replay_divergence(entry)
