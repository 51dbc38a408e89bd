"""The spec object codec: pickle with custom reducers for the hard parts.

A compiled spec is an object graph of four kinds of things:

* **structural formulas** -- hash-consed QuickLTL nodes.  Their own
  ``__reduce__`` already rebuilds through the interning constructors,
  so the stream is a children-first (topological) encoding that
  *re-interns on load*: decoding a formula in a process that already
  holds an equal one returns the existing node.
* **deferred formulas** -- :class:`~repro.quickltl.Defer` closures.
  Closures never pickle; instead we ship the
  :class:`~repro.specstrom.eval.DeferProvenance` the evaluator attached
  (AST body + captured environment + subscript) and rebuild the
  closures on load via :func:`~repro.specstrom.eval.rebuild_defer`.
  The defer node is memoized *before* its provenance is written (a
  reduce ``state_setter``), which is what lets the cycle
  ``defer -> environment -> binding -> defer`` serialize.
* **environments** -- plain dataclass chains, except the builtins root,
  which is process-specific (it binds the ``happened`` identity
  sentinel and ~50 builtin closures).  The root is replaced by a
  marker and re-created from :func:`global_environment` on load; the
  few builtin values that can leak into module bindings
  (:class:`BuiltinFunction`, ``HAPPENED``) rebuild by name.
* **everything else** -- AST nodes, snapshots, caches, verdicts: plain
  picklable data.

Artifacts are a local build product (like ``.pyc`` files), not a
network-facing interchange format; the payload is standard pickle and
should only be loaded from trusted paths.
"""

from __future__ import annotations

import io
import pickle

from ..quickltl.syntax import Defer
from ..specstrom.builtins import global_environment
from ..specstrom.eval import DeferProvenance, HAPPENED, rebuild_defer
from ..specstrom.values import BuiltinFunction, Environment
from .errors import ArtifactCorruptError, ArtifactEncodeError

__all__ = ["encode", "decode"]

#: Protocol 4 (3.4+) is the newest protocol every supported interpreter
#: (3.9-3.12) reads and writes identically.
_PROTOCOL = 4


class _UnrestoredBuild:
    """Placeholder ``build`` closure for a defer mid-decode.

    A fresh instance per shell keeps the intern key unique (defers
    intern by closure identity), and calling one means the payload was
    truncated or hand-edited -- a corruption, not a bug.
    """

    def __call__(self, state):
        raise ArtifactCorruptError(
            "deferred formula forced before its provenance was restored"
        )


def _defer_shell(name: str) -> Defer:
    return Defer(name, _UnrestoredBuild())


def _restore_defer(node: Defer, provenance: DeferProvenance) -> None:
    rebuilt = rebuild_defer(provenance)
    object.__setattr__(node, "build", rebuilt.build)
    object.__setattr__(node, "provenance", rebuilt.provenance)


_SHARED_BUILTINS: list = []


def _builtins_env() -> Environment:
    """One builtins root per process, shared by every decoded artifact
    (it is only ever read through)."""
    if not _SHARED_BUILTINS:
        _SHARED_BUILTINS.append(global_environment())
    return _SHARED_BUILTINS[0]


def _builtin_by_name(name: str) -> BuiltinFunction:
    try:
        value = _builtins_env().lookup(name)
    except Exception:
        raise ArtifactCorruptError(
            f"artifact references unknown builtin {name!r}"
        ) from None
    if not isinstance(value, BuiltinFunction):
        raise ArtifactCorruptError(f"builtin {name!r} is no longer a function")
    return value


def _happened() -> object:
    return HAPPENED


def _is_builtins_root(env: Environment) -> bool:
    return env.parent is None and env.bindings.get("happened") is HAPPENED


class _SpecPickler(pickle.Pickler):
    def reducer_override(self, obj):
        if type(obj) is Defer:
            provenance = obj.provenance
            if provenance is None:
                raise ArtifactEncodeError(
                    f"deferred formula {obj.name!r} has no provenance; only "
                    "evaluator-built defers are serializable"
                )
            return (_defer_shell, (obj.name,), provenance, None, None, _restore_defer)
        if type(obj) is Environment and _is_builtins_root(obj):
            return (_builtins_env, ())
        if type(obj) is BuiltinFunction:
            return (_builtin_by_name, (obj.name,))
        if obj is HAPPENED:
            return (_happened, ())
        return NotImplemented


def encode(obj: object) -> bytes:
    """Serialize a compiled-spec object graph to payload bytes."""
    buffer = io.BytesIO()
    try:
        _SpecPickler(buffer, protocol=_PROTOCOL).dump(obj)
    except ArtifactEncodeError:
        raise
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise ArtifactEncodeError(f"spec payload is not serializable: {exc}") from exc
    return buffer.getvalue()


def decode(data: bytes) -> object:
    """Rebuild an object graph from payload bytes (re-interning formulas
    and re-closing deferred bodies as a side effect)."""
    try:
        return pickle.loads(data)
    except ArtifactCorruptError:
        raise
    except Exception as exc:  # noqa: BLE001 - pickle raises a zoo of types
        raise ArtifactCorruptError(f"artifact payload does not decode: {exc}") from exc
