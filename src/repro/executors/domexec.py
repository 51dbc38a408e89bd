"""The simulated-browser executor (the reproduction's "WebDriver executor").

Maps resolved primitive actions to gestures on
:class:`repro.browser.Browser`, takes state snapshots restricted to the
specification's dependency set, watches ``changed?`` selectors for
asynchronous changes, and implements the version/staleness rule.

Snapshot discipline: a state is snapshotted immediately after the
triggering activity (action performed, event batch fired, timeout
elapsed) and is deeply immutable, so later DOM changes cannot leak into
already-reported states.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..browser.webdriver import Browser, NotInteractableError, Page
from ..protocol.messages import Acted, Act, Event, Reset, Start, Timeout
from ..protocol.session import TraceRecorder
from ..specstrom.actions import PrimitiveEvent, ResolvedAction
from ..specstrom.state import ElementSnapshot, StateSnapshot
from .base import ActionFailed, Executor

__all__ = ["DomExecutor", "ActionFailed"]


class DomExecutor(Executor):
    """Executor over the simulated browser.

    ``app_factory`` builds the application under test from a
    :class:`repro.browser.Page` (see :mod:`repro.apps`).
    """

    def __init__(self, app_factory: Callable[[Page], object]) -> None:
        self._app_factory = app_factory
        self.browser: Optional[Browser] = None
        self.recorder = TraceRecorder()
        self._outbox: List[object] = []
        self._dependencies: Tuple[str, ...] = ()
        self._watched: Tuple[Tuple[str, PrimitiveEvent], ...] = ()
        self._last_watch_state: Dict[str, Tuple[ElementSnapshot, ...]] = {}

    # ------------------------------------------------------------------
    # Executor interface
    # ------------------------------------------------------------------

    def start(self, start: Start) -> None:
        self._dependencies = tuple(sorted(start.dependencies))
        self._watched = tuple(start.events)
        self.browser = Browser(self._app_factory)
        self.browser.load()
        self._remember_watches()
        self._report("event", ("loaded?",))

    def reset(self, reset: Reset) -> bool:
        """Warm restart: keep the browser, remount the application.

        The browser object survives (in a real WebDriver backend this is
        the expensive session), but its storage, clock, timers and the
        mounted application are all returned to their pristine state, so
        the new session is observationally identical to a cold
        ``start`` -- same initial snapshot, same versions, same virtual
        time origin.  The new session's dependency set and watched
        events replace the old ones (warm reuse spans properties).
        """
        if self.browser is None:
            return False  # never started; nothing warm to reuse
        self._dependencies = tuple(sorted(reset.dependencies))
        self._watched = tuple(reset.events)
        self.recorder = TraceRecorder()
        self._outbox = []
        self._last_watch_state = {}
        self.browser.reset()
        self._remember_watches()
        self._report("event", ("loaded?",))
        return True

    def drain(self) -> List[object]:
        messages, self._outbox = self._outbox, []
        return messages

    def act(self, act: Act) -> bool:
        if self.recorder.is_stale(act.version):
            self.recorder.note_stale_rejection()
            return False
        self._perform(act.action)
        happened: Tuple[str, ...] = (act.name,)
        if act.action.kind == "reload":
            happened = (act.name, "loaded?")
            self._remember_watches()
        self._report("acted", happened)
        return True

    def pass_time(self, delta_ms: float) -> None:
        self._advance_with_watching(self._clock_now() + delta_ms)

    def await_events(self, timeout_ms: float) -> None:
        deadline = self._clock_now() + timeout_ms
        fired = self._advance_with_watching(deadline, stop_on_event=True)
        if not fired:
            self._report("timeout", ())

    @property
    def version(self) -> int:
        return self.recorder.length

    @property
    def now_ms(self) -> float:
        return self._clock_now()

    # ------------------------------------------------------------------
    # Gestures
    # ------------------------------------------------------------------

    def _perform(self, action: ResolvedAction) -> None:
        browser = self._require_browser()
        kind = action.kind
        if kind == "noop":
            return
        if kind == "reload":
            browser.reload()
            return
        target = self._resolve_target(action)
        try:
            if kind == "click":
                browser.click(target)
            elif kind == "dblclick":
                browser.dblclick(target)
            elif kind == "hover":
                browser.hover(target)
            elif kind == "focus":
                browser.focus(target)
            elif kind == "clear":
                browser.clear(target)
            elif kind == "input":
                browser.clear(target)
                browser.type_text(str(action.args[0]), element=target)
            elif kind == "pressKey":
                browser.focus(target)
                browser.press_key(str(action.args[0]))
            else:
                raise ActionFailed(f"unknown primitive action {kind!r}")
        except NotInteractableError as err:
            raise ActionFailed(str(err)) from err

    def _resolve_target(self, action: ResolvedAction):
        browser = self._require_browser()
        if action.selector is None:
            raise ActionFailed(f"{action.kind} needs a selector")
        matches = [
            el
            for el in browser.document.query_all(action.selector)
            if el.visible
        ]
        index = action.index or 0
        if index >= len(matches):
            raise ActionFailed(
                f"{action.describe()} has no target "
                f"({len(matches)} visible matches)"
            )
        return matches[index]

    # ------------------------------------------------------------------
    # Snapshots and event watching
    # ------------------------------------------------------------------

    def _snapshot(self, happened: Tuple[str, ...]) -> StateSnapshot:
        browser = self._require_browser()
        document = browser.document
        queries = {}
        for selector in self._dependencies:
            queries[selector] = tuple(
                ElementSnapshot.of_element(el, document)
                for el in document.query_all(selector)
            )
        return StateSnapshot(
            queries=queries,
            happened=happened,
            version=self.recorder.length + 1,
            timestamp_ms=self._clock_now(),
        )

    def _report(self, kind: str, happened: Tuple[str, ...]) -> None:
        state = self._snapshot(happened)
        self.recorder.append(kind, happened, state)
        if kind == "acted":
            self._outbox.append(Acted(happened[0], state))
        elif kind == "timeout":
            self._outbox.append(Timeout(state))
        else:
            self._outbox.append(Event(happened[0] if happened else "event?", state))
        self._remember_watches()

    def _watch_snapshot(self, css: str) -> Tuple[ElementSnapshot, ...]:
        browser = self._require_browser()
        document = browser.document
        return tuple(
            ElementSnapshot.of_element(el, document) for el in document.query_all(css)
        )

    def _remember_watches(self) -> None:
        self._last_watch_state = {
            event.selector: self._watch_snapshot(event.selector)
            for _, event in self._watched
            if event.selector is not None
        }

    def _changed_watches(self) -> Tuple[str, ...]:
        """Names of watched events whose selector state changed."""
        changed: List[str] = []
        for name, event in self._watched:
            if event.selector is None:
                continue
            current = self._watch_snapshot(event.selector)
            if current != self._last_watch_state.get(event.selector):
                changed.append(name)
        return tuple(changed)

    def _advance_with_watching(self, target_ms: float, stop_on_event: bool = False) -> bool:
        """Advance time deadline-by-deadline, reporting watched changes.

        Returns True if any event was reported.  With ``stop_on_event``
        the advance stops at the first event batch (used by timeouts:
        'after the given time if no event occurs first', Figure 9).
        """
        browser = self._require_browser()
        scheduler = browser.scheduler
        any_event = False
        while True:
            deadline = scheduler.next_deadline
            if deadline is None or deadline > target_ms:
                break
            scheduler.run_until(deadline)
            changed = self._changed_watches()
            if changed:
                any_event = True
                self._report("event", changed)
                if stop_on_event:
                    return True
        if target_ms > self._clock_now():
            scheduler.run_until(target_ms)
            changed = self._changed_watches()
            if changed:
                any_event = True
                self._report("event", changed)
        return any_event

    # ------------------------------------------------------------------

    def _require_browser(self) -> Browser:
        if self.browser is None:
            raise RuntimeError("executor not started")
        return self.browser

    def _clock_now(self) -> float:
        return self.browser.clock.now if self.browser is not None else 0.0
