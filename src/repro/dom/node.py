"""DOM node tree: elements, text nodes, attributes and inline style.

This is the foundation of the simulated browser that replaces Selenium
WebDriver in this reproduction (see DESIGN.md, substitutions).  It models
exactly the surface Quickstrom observes and drives:

* a mutable element tree with attributes and classes,
* live widget state (``value`` for text inputs, ``checked`` for
  checkboxes) kept separate from attributes, like real DOM properties,
* inline ``style="display: none"`` handling and the derived ``visible``
  property used by state queries and by action enabledness,
* mutation notification hooks, which the executor uses to detect
  asynchronous state changes (the ``changed?`` events of Specstrom).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional

__all__ = ["Node", "Text", "Element"]

_node_ids = itertools.count(1)


class Node:
    """Base class for tree nodes."""

    __slots__ = ("parent", "_document", "node_id")

    def __init__(self) -> None:
        self.parent: Optional["Element"] = None
        self._document = None
        self.node_id = next(_node_ids)

    @property
    def document(self):
        """The owning document, or None while detached."""
        node = self
        while node.parent is not None:
            node = node.parent
        return node._document

    def _notify(self) -> None:
        doc = self.document
        if doc is not None:
            doc.notify_mutation(self)

    def detach(self) -> None:
        """Remove this node from its parent, if any."""
        if self.parent is not None:
            self.parent.remove_child(self)


class Text(Node):
    """A text node."""

    __slots__ = ("_data",)

    def __init__(self, data: str = "") -> None:
        super().__init__()
        self._data = str(data)

    @property
    def data(self) -> str:
        return self._data

    @data.setter
    def data(self, value: str) -> None:
        self._data = str(value)
        self._notify()

    @property
    def text(self) -> str:
        return self._data

    def __repr__(self) -> str:
        return f"Text({self._data!r})"


class Element(Node):
    """A DOM element with attributes, children and live widget state."""

    __slots__ = ("tag", "_attrs", "children", "_value", "_checked")

    def __init__(
        self,
        tag: str,
        attrs: Optional[Dict[str, str]] = None,
        children: Optional[List[Node]] = None,
        text: Optional[str] = None,
    ) -> None:
        super().__init__()
        self.tag = tag.lower()
        self._attrs: Dict[str, str] = dict(attrs or {})
        self.children: List[Node] = []
        self._value: str = ""
        self._checked: bool = False
        if text is not None:
            self.append_child(Text(text))
        for child in children or []:
            self.append_child(child)

    # ------------------------------------------------------------------
    # Attributes and classes
    # ------------------------------------------------------------------

    def get_attribute(self, name: str) -> Optional[str]:
        return self._attrs.get(name)

    def set_attribute(self, name: str, value: str) -> None:
        self._attrs[name] = str(value)
        self._notify()

    def remove_attribute(self, name: str) -> None:
        if name in self._attrs:
            del self._attrs[name]
            self._notify()

    def has_attribute(self, name: str) -> bool:
        return name in self._attrs

    @property
    def attributes(self) -> Dict[str, str]:
        return dict(self._attrs)

    @property
    def id(self) -> Optional[str]:
        return self._attrs.get("id")

    @property
    def classes(self) -> List[str]:
        return self._attrs.get("class", "").split()

    def has_class(self, name: str) -> bool:
        return name in self.classes

    def add_class(self, name: str) -> None:
        classes = self.classes
        if name not in classes:
            classes.append(name)
            self._attrs["class"] = " ".join(classes)
            self._notify()

    def remove_class(self, name: str) -> None:
        classes = self.classes
        if name in classes:
            classes.remove(name)
            self._attrs["class"] = " ".join(classes)
            self._notify()

    def toggle_class(self, name: str, on: Optional[bool] = None) -> None:
        present = self.has_class(name)
        wanted = (not present) if on is None else on
        if wanted and not present:
            self.add_class(name)
        elif not wanted and present:
            self.remove_class(name)

    # ------------------------------------------------------------------
    # Inline style and visibility
    # ------------------------------------------------------------------

    @property
    def style(self) -> Dict[str, str]:
        """The parsed inline ``style`` attribute."""
        parsed: Dict[str, str] = {}
        for declaration in self._attrs.get("style", "").split(";"):
            if ":" in declaration:
                name, _, value = declaration.partition(":")
                parsed[name.strip().lower()] = value.strip()
        return parsed

    def set_style(self, name: str, value: Optional[str]) -> None:
        style = self.style
        if value is None:
            style.pop(name.lower(), None)
        else:
            style[name.lower()] = value
        if style:
            self._attrs["style"] = "; ".join(f"{k}: {v}" for k, v in style.items())
        else:
            self._attrs.pop("style", None)
        self._notify()

    @property
    def displayed(self) -> bool:
        """Is this element itself not hidden (ignoring ancestors)?"""
        if "style" in self._attrs and self.style.get("display") == "none":
            return False
        return "hidden" not in self._attrs

    @property
    def visible(self) -> bool:
        """Is this element and every ancestor displayed?"""
        node: Optional[Element] = self
        while node is not None:
            if not node.displayed:
                return False
            node = node.parent
        return True

    # ------------------------------------------------------------------
    # Widget state
    # ------------------------------------------------------------------

    @property
    def value(self) -> str:
        """Live input value (mirrors the DOM ``value`` property)."""
        return self._value

    @value.setter
    def value(self, new: str) -> None:
        self._value = str(new)
        self._notify()

    @property
    def checked(self) -> bool:
        return self._checked

    @checked.setter
    def checked(self, new: bool) -> None:
        self._checked = bool(new)
        self._notify()

    @property
    def disabled(self) -> bool:
        return self.has_attribute("disabled")

    @property
    def enabled(self) -> bool:
        return not self.disabled

    @property
    def is_checkbox(self) -> bool:
        return self.tag == "input" and self._attrs.get("type") == "checkbox"

    @property
    def is_text_input(self) -> bool:
        if self.tag == "textarea":
            return True
        return self.tag == "input" and self._attrs.get("type", "text") in (
            "text",
            "search",
            "email",
            "password",
        )

    # ------------------------------------------------------------------
    # Tree structure
    # ------------------------------------------------------------------

    def append_child(self, child: Node) -> Node:
        if isinstance(child, str):
            child = Text(child)
        child.detach()
        child.parent = self
        self.children.append(child)
        child._notify()
        return child

    def insert_before(self, child: Node, reference: Optional[Node]) -> Node:
        if reference is None:
            return self.append_child(child)
        child.detach()
        index = self.children.index(reference)
        child.parent = self
        self.children.insert(index, child)
        child._notify()
        return child

    def remove_child(self, child: Node) -> Node:
        self.children.remove(child)
        child.parent = None
        self._notify()
        return child

    def clear_children(self) -> None:
        for child in list(self.children):
            self.remove_child(child)

    @property
    def element_children(self) -> List["Element"]:
        return [c for c in self.children if isinstance(c, Element)]

    def iter_elements(self) -> Iterator["Element"]:
        """All descendant elements in document order (excluding self)."""
        for child in self.children:
            if isinstance(child, Element):
                yield child
                yield from child.iter_elements()

    @property
    def text(self) -> str:
        """Concatenated text content of all descendants."""
        parts: List[str] = []
        for child in self.children:
            parts.append(child.text)
        return "".join(parts)

    @text.setter
    def text(self, value: str) -> None:
        self.clear_children()
        self.append_child(Text(value))

    @property
    def index_in_parent(self) -> int:
        """Position among the parent's *element* children (0-based)."""
        if self.parent is None:
            return 0
        return self.parent.element_children.index(self)

    def __repr__(self) -> str:
        descriptor = self.tag
        if self.id:
            descriptor += f"#{self.id}"
        for cls in self.classes:
            descriptor += f".{cls}"
        return f"<Element {descriptor}>"

    def to_html(self, indent: int = 0) -> str:
        """Serialise the subtree (debugging and golden tests)."""
        pad = "  " * indent
        attrs = "".join(f' {k}="{v}"' for k, v in sorted(self._attrs.items()))
        if not self.children:
            return f"{pad}<{self.tag}{attrs}/>"
        only_text = all(isinstance(c, Text) for c in self.children)
        if only_text:
            return f"{pad}<{self.tag}{attrs}>{self.text}</{self.tag}>"
        inner = "\n".join(
            child.to_html(indent + 1)
            if isinstance(child, Element)
            else "  " * (indent + 1) + child.text
            for child in self.children
        )
        return f"{pad}<{self.tag}{attrs}>\n{inner}\n{pad}</{self.tag}>"
