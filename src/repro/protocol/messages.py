"""The checker/executor protocol messages (paper, Figure 9).

Checker to executor:

* :class:`Start` -- begin a session; carries the dependency set (which
  selectors to instrument -- every state snapshot of the session
  captures exactly these) and the events to watch.
* :class:`Act` -- perform a resolved action.  Carries the checker's view
  of the trace length (``version``); the executor rejects the request if
  its trace has grown past that version (Figure 10's staleness rule).
  May carry a timeout: after acting, the executor should signal a
  ``Timeout`` if no event occurs within it.
* :class:`Wait` -- request a Timeout signal after a delay, with the same
  version rule.
* :class:`Reset` -- begin a *new* session on an already-warm executor:
  return the system under test to its pristine initial state (fresh
  trace, fresh clock) without paying full executor construction.  The
  fields mirror :class:`Start` because the new session may watch a
  different specification's selectors and events.  Backends that cannot
  restore the initial state exactly decline, and the caller falls back
  to stop + a fresh ``Start``.

Executor to checker:

* :class:`Event` -- an asynchronous application event occurred; carries
  the updated state.
* :class:`Acted` -- the requested action was performed; carries the
  updated state.
* :class:`Timeout` -- the requested timeout elapsed without an event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..specstrom.actions import PrimitiveEvent, ResolvedAction
from ..specstrom.state import StateSnapshot

__all__ = [
    "Start", "Act", "Wait", "Reset", "Event", "Acted", "Timeout",
    "ExecutorMessage",
]


@dataclass(frozen=True)
class Start:
    """Request a new session; lists the relevant selectors and events."""

    dependencies: frozenset
    events: Tuple[Tuple[str, PrimitiveEvent], ...] = ()


@dataclass(frozen=True)
class Reset:
    """Request a fresh session on a warm executor (see module docs).

    A reset session must be observationally identical to a freshly
    constructed-and-started one: same initial state, same virtual time
    origin, same trace versioning.  That exactness is what makes
    warm-reuse verdicts bit-for-bit equal to cold-start verdicts.
    """

    dependencies: frozenset
    events: Tuple[Tuple[str, PrimitiveEvent], ...] = ()


@dataclass(frozen=True)
class Act:
    """Request an action; stale versions are ignored by the executor."""

    action: ResolvedAction
    name: str  # the Specstrom-level action name, e.g. "start!"
    version: int
    timeout_ms: Optional[float] = None


@dataclass(frozen=True)
class Wait:
    """Request a Timeout after ``time_ms`` if no event occurs first."""

    time_ms: float
    version: int


@dataclass(frozen=True)
class Event:
    """An application event occurred; ``name`` is the event's Specstrom
    name (e.g. ``tick?`` or the built-in ``loaded?``)."""

    name: str
    state: StateSnapshot


@dataclass(frozen=True)
class Acted:
    """The requested action was performed."""

    name: str
    state: StateSnapshot


@dataclass(frozen=True)
class Timeout:
    """The requested timeout elapsed without an intervening event."""

    state: StateSnapshot


ExecutorMessage = (Event, Acted, Timeout)
