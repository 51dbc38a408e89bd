"""A CSS selector engine for the simulated DOM.

Supports the selector subset needed by acceptance-testing specifications
(and a bit more):

* type, universal, ``#id``, ``.class`` simple selectors,
* attribute selectors ``[attr]``, ``[attr=value]``, ``[attr="value"]``,
  ``[attr^=v]``, ``[attr$=v]``, ``[attr*=v]``,
* pseudo-classes ``:checked``, ``:focus``, ``:visible`` (Selenium-style,
  not standard CSS), ``:disabled``, ``:enabled``, ``:empty``,
  ``:first-child``, ``:last-child``, ``:nth-child(k)``, ``:not(...)``,
* combinators: descendant (whitespace), child ``>``, adjacent sibling
  ``+``, general sibling ``~``,
* selector lists separated by commas.

The matcher is right-to-left, like production engines: the rightmost
compound is matched against a candidate element and the remaining
combinators walk outwards.

Queries answer many selectors in one walk.  :func:`parse_selector` is
memoised process-wide, so each distinct selector string is parsed once.
A :class:`SelectorSet` files every complex selector under its rightmost
compound's id, else its first class, else its tag, else in a universal
bucket; :func:`query_many` then walks the tree once, iteratively, and
tests each element only against the selectors filed under its own id,
classes and tag plus the universal ones.  :func:`query_all` is
:func:`query_many` over one selector: there is one matching path.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .node import Element

__all__ = [
    "SelectorError",
    "SelectorSet",
    "parse_selector",
    "matches",
    "query_all",
    "query_many",
    "query_one",
]

#: Parsed selector lists kept by :func:`parse_selector`.  A spec names a
#: few dozen selectors; the bound only stops a stream of distinct ones
#: from growing the table without limit.
PARSED_SELECTORS_MAX = 1024


class SelectorError(ValueError):
    """Raised for selectors outside the supported grammar."""


@dataclass(frozen=True)
class AttributeTest:
    name: str
    operator: Optional[str] = None  # '=', '^=', '$=', '*='
    value: Optional[str] = None


@dataclass(frozen=True)
class PseudoClass:
    name: str
    argument: Optional[object] = None  # int for nth-child, Compound for not


@dataclass(frozen=True)
class Compound:
    """One compound selector: tag/universal plus simple selector tests."""

    tag: Optional[str] = None
    element_id: Optional[str] = None
    classes: Tuple[str, ...] = ()
    attributes: Tuple[AttributeTest, ...] = ()
    pseudos: Tuple[PseudoClass, ...] = ()


@dataclass(frozen=True)
class Selector:
    """A complex selector: compounds joined by combinators.

    ``parts[0]`` is the leftmost compound; ``combinators[i]`` joins
    ``parts[i]`` to ``parts[i+1]`` and is one of ``' '``, ``'>'``,
    ``'+'``, ``'~'``.
    """

    parts: Tuple[Compound, ...]
    combinators: Tuple[str, ...]


@dataclass(frozen=True)
class SelectorList:
    selectors: Tuple[Selector, ...]

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"SelectorList({len(self.selectors)} selectors)"


_IDENT = r"[A-Za-z_][-A-Za-z0-9_]*"
_TOKEN_RE = re.compile(
    rf"""
    (?P<ws>\s+)
  | (?P<comb>[>+~])
  | (?P<comma>,)
  | (?P<hash>\#(?P<hash_name>{_IDENT}))
  | (?P<class>\.(?P<class_name>{_IDENT}))
  | (?P<attr>\[\s*(?P<attr_name>{_IDENT})\s*
      (?:(?P<attr_op>[\^\$\*]?=)\s*
         (?P<attr_value>"[^"]*"|'[^']*'|[^\]\s]+)\s*)?\])
  | (?P<pseudo>:(?P<pseudo_name>[-A-Za-z]+))
  | (?P<star>\*)
  | (?P<tag>{_IDENT})
""",
    re.VERBOSE,
)

_SUPPORTED_PSEUDOS = {
    "checked",
    "focus",
    "visible",
    "hidden",
    "disabled",
    "enabled",
    "empty",
    "first-child",
    "last-child",
    "nth-child",
    "not",
}


@functools.lru_cache(maxsize=PARSED_SELECTORS_MAX)
def parse_selector(source: str) -> SelectorList:
    """Parse a selector list; raises :class:`SelectorError` on bad input.

    Results are shared process-wide (they are frozen); an error is not
    cached and is raised again on every call.
    """
    source = source.strip()
    if not source:
        raise SelectorError("empty selector")
    selectors = []
    for chunk in _split_top_level_commas(source):
        selectors.append(_parse_complex(chunk.strip()))
    return SelectorList(tuple(selectors))


def _split_top_level_commas(source: str) -> List[str]:
    chunks, depth, start = [], 0, 0
    for i, ch in enumerate(source):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "," and depth == 0:
            chunks.append(source[start:i])
            start = i + 1
    chunks.append(source[start:])
    if any(not c.strip() for c in chunks):
        raise SelectorError(f"empty selector in list: {source!r}")
    return chunks


def _parse_complex(source: str) -> Selector:
    parts: List[Compound] = []
    combinators: List[str] = []
    pos = 0
    pending_combinator: Optional[str] = None
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise SelectorError(f"cannot parse selector at {source[pos:]!r}")
        pos = match.end()
        if match.group("ws"):
            continue
        if match.group("comb"):
            if pending_combinator is not None or not parts:
                raise SelectorError(f"misplaced combinator in {source!r}")
            pending_combinator = match.group("comb")
            continue
        if match.group("comma"):
            raise SelectorError("unexpected comma")  # handled by caller
        # Start of a compound selector.
        compound, pos = _parse_compound(source, match, pos)
        if parts:
            combinators.append(pending_combinator or " ")
        elif pending_combinator is not None:
            raise SelectorError(f"selector cannot start with combinator: {source!r}")
        parts.append(compound)
        pending_combinator = None
    if pending_combinator is not None:
        raise SelectorError(f"dangling combinator in {source!r}")
    if not parts:
        raise SelectorError(f"no compound selector in {source!r}")
    return Selector(tuple(parts), tuple(combinators))


def _parse_compound(source: str, first_match, pos: int) -> Tuple[Compound, int]:
    tag = None
    element_id = None
    classes: List[str] = []
    attributes: List[AttributeTest] = []
    pseudos: List[PseudoClass] = []

    def absorb(match, after: int) -> Tuple[bool, int]:
        nonlocal tag, element_id
        if match.group("star"):
            return True, after
        if match.group("tag"):
            tag = match.group("tag").lower()  # noqa: F841 (assigned nonlocal)
            return True, after
        if match.group("hash"):
            element_id = match.group("hash_name")
            return True, after
        if match.group("class"):
            classes.append(match.group("class_name"))
            return True, after
        if match.group("attr"):
            value = match.group("attr_value")
            if value is not None and value[:1] in "\"'":
                value = value[1:-1]
            operator = match.group("attr_op")
            attributes.append(AttributeTest(match.group("attr_name"), operator, value))
            return True, after
        if match.group("pseudo"):
            argument_text, after = _scan_pseudo_argument(source, after)
            pseudos.append(_build_pseudo(match.group("pseudo_name"), argument_text))
            return True, after
        return False, after

    ok, pos = absorb(first_match, pos)
    if not ok:
        raise SelectorError(f"cannot parse compound selector in {source!r}")
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise SelectorError(f"cannot parse selector at {source[pos:]!r}")
        if match.group("ws") or match.group("comb") or match.group("comma"):
            break
        if match.group("tag") or match.group("star"):
            raise SelectorError(f"type selector must come first in {source!r}")
        _, pos = absorb(match, match.end())
    return (
        Compound(tag, element_id, tuple(classes), tuple(attributes), tuple(pseudos)),
        pos,
    )


def _scan_pseudo_argument(source: str, pos: int) -> Tuple[Optional[str], int]:
    """Scan a balanced ``(...)`` argument following a pseudo-class name."""
    if pos >= len(source) or source[pos] != "(":
        return None, pos
    depth = 0
    for i in range(pos, len(source)):
        if source[i] == "(":
            depth += 1
        elif source[i] == ")":
            depth -= 1
            if depth == 0:
                return source[pos + 1 : i], i + 1
    raise SelectorError(f"unbalanced parentheses in {source!r}")


def _build_pseudo(raw_name: str, argument_text: Optional[str]) -> PseudoClass:
    name = raw_name.lower()
    if name not in _SUPPORTED_PSEUDOS:
        raise SelectorError(f"unsupported pseudo-class :{name}")
    if name == "nth-child":
        if argument_text is None or not argument_text.strip().isdigit():
            raise SelectorError(":nth-child requires a positive integer")
        return PseudoClass(name, int(argument_text.strip()))
    if name == "not":
        if argument_text is None or not argument_text.strip():
            raise SelectorError(":not requires an argument")
        inner = _parse_complex(argument_text.strip())
        if len(inner.parts) != 1:
            raise SelectorError(":not argument must be a compound selector")
        return PseudoClass(name, inner.parts[0])
    if argument_text is not None:
        raise SelectorError(f":{name} takes no argument")
    return PseudoClass(name)


# ----------------------------------------------------------------------
# Matching
# ----------------------------------------------------------------------


def _matches_compound(element: Element, compound: Compound, document) -> bool:
    if compound.tag is not None and element.tag != compound.tag:
        return False
    if compound.element_id is not None and element.id != compound.element_id:
        return False
    if compound.classes:
        element_classes = element.classes
        for cls in compound.classes:
            if cls not in element_classes:
                return False
    for test in compound.attributes:
        actual = element.get_attribute(test.name)
        if actual is None:
            return False
        if test.operator == "=" and actual != test.value:
            return False
        if test.operator == "^=" and not actual.startswith(test.value):
            return False
        if test.operator == "$=" and not actual.endswith(test.value):
            return False
        if test.operator == "*=" and test.value not in actual:
            return False
    for pseudo in compound.pseudos:
        if not _matches_pseudo(element, pseudo, document):
            return False
    return True


def _matches_pseudo(element: Element, pseudo: PseudoClass, document) -> bool:
    name = pseudo.name
    if name == "checked":
        return element.checked
    if name == "focus":
        return document is not None and document.active_element is element
    if name == "visible":
        return element.visible
    if name == "hidden":
        return not element.visible
    if name == "disabled":
        return element.disabled
    if name == "enabled":
        return element.enabled
    if name == "empty":
        return not element.children
    if name == "first-child":
        return element.parent is not None and element.index_in_parent == 0
    if name == "last-child":
        if element.parent is None:
            return False
        return element.index_in_parent == len(element.parent.element_children) - 1
    if name == "nth-child":
        return element.parent is not None and element.index_in_parent == pseudo.argument - 1
    if name == "not":
        return not _matches_compound(element, pseudo.argument, document)
    raise SelectorError(f"unsupported pseudo-class :{name}")  # pragma: no cover


def _matches_selector(element: Element, selector: Selector, document) -> bool:
    if not _matches_compound(element, selector.parts[-1], document):
        return False
    return _match_leftwards(element, selector, len(selector.parts) - 1, document)


def _match_leftwards(element: Element, selector: Selector, index: int, document) -> bool:
    if index == 0:
        return True
    combinator = selector.combinators[index - 1]
    target = selector.parts[index - 1]
    if combinator == ">":
        parent = element.parent
        return (
            parent is not None
            and _matches_compound(parent, target, document)
            and _match_leftwards(parent, selector, index - 1, document)
        )
    if combinator == " ":
        ancestor = element.parent
        while ancestor is not None:
            if _matches_compound(ancestor, target, document) and _match_leftwards(
                ancestor, selector, index - 1, document
            ):
                return True
            ancestor = ancestor.parent
        return False
    if combinator == "+":
        sibling = _previous_element_sibling(element)
        return (
            sibling is not None
            and _matches_compound(sibling, target, document)
            and _match_leftwards(sibling, selector, index - 1, document)
        )
    if combinator == "~":
        sibling = _previous_element_sibling(element)
        while sibling is not None:
            if _matches_compound(sibling, target, document) and _match_leftwards(
                sibling, selector, index - 1, document
            ):
                return True
            sibling = _previous_element_sibling(sibling)
        return False
    raise SelectorError(f"unknown combinator {combinator!r}")  # pragma: no cover


def _previous_element_sibling(element: Element) -> Optional[Element]:
    if element.parent is None:
        return None
    siblings = element.parent.element_children
    position = siblings.index(element)
    if position == 0:
        return None
    return siblings[position - 1]


def matches(element: Element, selector, document=None) -> bool:
    """Does ``element`` match the selector (string or parsed)?"""
    if isinstance(selector, str):
        selector = parse_selector(selector)
    return any(_matches_selector(element, s, document) for s in selector.selectors)


class SelectorSet:
    """Selectors filed for matching in one tree walk.

    ``keys`` are the given selectors (strings or parsed lists), without
    duplicates, in their first-seen order.  Each complex selector of
    each key is filed once, under its rightmost compound's id, else its
    first class, else its tag, else in the universal bucket, as a
    ``(slot, selector)`` pair where ``slot`` indexes ``keys``.
    """

    __slots__ = ("keys", "by_id", "by_class", "by_tag", "universal")

    def __init__(self, selectors: Iterable[object]) -> None:
        self.keys = tuple(dict.fromkeys(selectors))
        self.by_id: Dict[str, List[Tuple[int, Selector]]] = {}
        self.by_class: Dict[str, List[Tuple[int, Selector]]] = {}
        self.by_tag: Dict[str, List[Tuple[int, Selector]]] = {}
        self.universal: List[Tuple[int, Selector]] = []
        for slot, key in enumerate(self.keys):
            parsed = parse_selector(key) if isinstance(key, str) else key
            for complex_selector in parsed.selectors:
                right = complex_selector.parts[-1]
                if right.element_id is not None:
                    bucket = self.by_id.setdefault(right.element_id, [])
                elif right.classes:
                    bucket = self.by_class.setdefault(right.classes[0], [])
                elif right.tag is not None:
                    bucket = self.by_tag.setdefault(right.tag, [])
                else:
                    bucket = self.universal
                bucket.append((slot, complex_selector))


def query_many(root: Element, selectors, document=None) -> Dict[object, List[Element]]:
    """Every selector's matching descendants of ``root``, in document
    order, from one walk of the tree.

    ``selectors`` is an iterable of selectors (strings or parsed) or a
    prebuilt :class:`SelectorSet`; the result maps each of its keys to
    its matches.  An element matched by several alternatives of one
    selector list is listed once.
    """
    if not isinstance(selectors, SelectorSet):
        selectors = SelectorSet(selectors)
    found: List[List[Element]] = [[] for _ in selectors.keys]
    if not found:
        return {}
    by_id, by_class, by_tag = selectors.by_id, selectors.by_class, selectors.by_tag
    universal = selectors.universal
    stack = root.children[::-1]
    while stack:
        node = stack.pop()
        if not isinstance(node, Element):
            continue
        if node.children:
            stack.extend(node.children[::-1])
        buckets = [universal] if universal else []
        if by_id:
            bucket = by_id.get(node.id)
            if bucket:
                buckets.append(bucket)
        if by_class:
            for cls in node.classes:
                bucket = by_class.get(cls)
                if bucket:
                    buckets.append(bucket)
        if by_tag:
            bucket = by_tag.get(node.tag)
            if bucket:
                buckets.append(bucket)
        for bucket in buckets:
            for slot, complex_selector in bucket:
                out = found[slot]
                if out and out[-1] is node:
                    continue  # another alternative of this list matched
                if _matches_selector(node, complex_selector, document):
                    out.append(node)
    return dict(zip(selectors.keys, found))


def query_all(root: Element, selector, document=None) -> List[Element]:
    """All descendant elements of ``root`` matching, in document order."""
    return query_many(root, (selector,), document)[selector]


def query_one(root: Element, selector, document=None) -> Optional[Element]:
    """The first matching descendant element, or None."""
    found = query_all(root, selector, document)
    return found[0] if found else None
