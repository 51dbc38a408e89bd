"""Static dependency analysis (paper, Section 3.3).

Before checking a property, Quickstrom must know which parts of the
browser state are relevant, so the executor can instrument exactly those
selectors and return consistent snapshots.  Because Specstrom guarantees
termination and bans recursion, a simple abstract interpretation
suffices: we walk every expression reachable from the property (through
top-level definitions, block bindings and function calls) and collect all
CSS selector literals that occur, which covers both direct dependencies
(```#toggle`.text``) and indirect ones (a selector inspected
only inside an ``if`` condition).

This over-approximates the real tool's analysis (it does not prune dead
branches), which is sound: instrumenting extra selectors never changes
verdicts, it only widens the observed state.

The set is computed once per checked property, when the spec is
elaborated, and sent in every session's ``Start`` message; each state
snapshot of the session captures exactly these selectors.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from .ast_nodes import (
    ActionDef,
    Block,
    Expr,
    LetDef,
    Module,
    SelectorLit,
    Var,
)
from .types import _children  # shared structural walker

__all__ = ["selector_dependencies", "module_definition_table"]


def module_definition_table(module: Module) -> Dict[str, List[Expr]]:
    """Map each top-level name to the expressions it owns."""
    table: Dict[str, List[Expr]] = {}
    for definition in module.definitions:
        if isinstance(definition, LetDef):
            table[definition.name] = [definition.body]
        elif isinstance(definition, ActionDef):
            exprs = [definition.body]
            if definition.guard is not None:
                exprs.append(definition.guard)
            table[definition.name] = exprs
    return table


def selector_dependencies(
    roots: Iterable[Expr], table: Dict[str, List[Expr]]
) -> frozenset:
    """All selector literals reachable from ``roots``.

    ``table`` resolves top-level names to their defining expressions;
    visited names are memoised so shared definitions are walked once.
    """
    selectors: Set[str] = set()
    visited: Set[str] = set()

    def walk(expr: Expr, locals_: frozenset) -> None:
        if isinstance(expr, SelectorLit):
            selectors.add(expr.css)
            return
        if isinstance(expr, Var):
            name = expr.name
            if name in locals_ or name in visited:
                return
            if name in table:
                visited.add(name)
                for owned in table[name]:
                    walk(owned, frozenset())
            return
        if isinstance(expr, Block):
            inner = set(locals_)
            for binding in expr.bindings:
                walk(binding.expr, frozenset(inner))
                inner.add(binding.name)
            walk(expr.result, frozenset(inner))
            return
        for child in _children(expr):
            walk(child, locals_)

    for root in roots:
        walk(root, frozenset())
    return frozenset(selectors)

