"""One-walk queries: ``query_many`` against per-selector matching, and
the process-wide selector parse cache."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dom import Document, Element, SelectorError, matches, parse_selector
from repro.dom.selector import SelectorSet, query_all, query_many
from tests.strategies import examples

TAGS = ("div", "span", "li", "input", "ul")
IDS = ("a", "b")
CLASSES = ("x", "y", "z")
ATTR_VALUES = ("v", "ab", "a")


def reference_query_all(root, selector, document):
    """Per-selector query: every descendant, in document order, tested on
    its own (how ``query_all`` answered before the one-walk path)."""
    return [el for el in root.iter_elements() if matches(el, selector, document)]


@st.composite
def elements(draw, depth=3):
    tag = draw(st.sampled_from(TAGS))
    attrs = {}
    element_id = draw(st.sampled_from((None,) + IDS))
    if element_id is not None:
        attrs["id"] = element_id
    classes = draw(st.lists(st.sampled_from(CLASSES), max_size=3))
    if classes:
        attrs["class"] = " ".join(classes)  # repeats allowed, like the DOM
    if draw(st.booleans()):
        attrs["data-k"] = draw(st.sampled_from(ATTR_VALUES))
    if draw(st.integers(0, 5)) == 0:
        attrs["style"] = "display: none"
    if draw(st.integers(0, 7)) == 0:
        attrs["disabled"] = ""
    element = Element(tag, attrs)
    if tag == "input":
        element.checked = draw(st.booleans())
    if depth > 0:
        for _ in range(draw(st.integers(0, 3))):
            if draw(st.integers(0, 4)) == 0:
                element.append_child("text")
            else:
                element.append_child(draw(elements(depth=depth - 1)))
    return element


@st.composite
def documents(draw):
    document = Document()
    for _ in range(draw(st.integers(0, 3))):
        document.root.append_child(draw(elements()))
    everything = list(document.root.iter_elements())
    if everything and draw(st.booleans()):
        document.active_element = draw(st.sampled_from(everything))
    return document


PSEUDOS = (":checked", ":focus", ":visible", ":hidden", ":disabled",
           ":enabled", ":empty", ":first-child", ":last-child",
           ":nth-child(1)", ":nth-child(2)")


@st.composite
def compounds(draw, allow_not=True):
    head = draw(st.sampled_from(("",) + TAGS + ("*",)))
    simple = []
    if draw(st.integers(0, 3)) == 0:
        simple.append("#" + draw(st.sampled_from(IDS)))
    simple += ["." + c for c in draw(st.lists(st.sampled_from(CLASSES), max_size=2))]
    if draw(st.integers(0, 3)) == 0:
        operator = draw(st.sampled_from(("", "=", "^=", "$=", "*=")))
        value = draw(st.sampled_from(ATTR_VALUES)) if operator else ""
        simple.append(f"[data-k{operator}{value}]")
    if draw(st.integers(0, 3)) == 0:
        simple.append(draw(st.sampled_from(PSEUDOS)))
    if allow_not and draw(st.integers(0, 4)) == 0:
        simple.append(f":not({draw(compounds(allow_not=False))})")
    if not head and not simple:
        head = "*"
    return head + "".join(simple)


@st.composite
def complex_selectors(draw):
    parts = [draw(compounds())]
    for _ in range(draw(st.integers(0, 2))):
        parts.append(draw(st.sampled_from((" ", " > ", " + ", " ~ "))))
        parts.append(draw(compounds()))
    return "".join(parts)


def selector_lists():
    return st.lists(complex_selectors(), min_size=1, max_size=3).map(", ".join)


class TestQueryManyAgreesWithPerSelectorQueries:
    @given(document=documents(), selectors=st.lists(selector_lists(), max_size=6))
    @examples(300)
    def test_every_selector_in_order_without_duplicates(self, document, selectors):
        root = document.root
        found = query_many(root, selectors, document)
        assert set(found) == set(selectors)
        for selector in selectors:
            expected = reference_query_all(root, selector, document)
            assert found[selector] == expected
            assert len({id(el) for el in found[selector]}) == len(found[selector])
            assert query_all(root, selector, document) == expected

    @given(document=documents(), selectors=st.lists(selector_lists(), max_size=4))
    @examples(100)
    def test_parsed_keys_and_a_prebuilt_set_give_the_same_answer(
        self, document, selectors
    ):
        by_string = query_many(document.root, selectors, document)
        parsed = [parse_selector(s) for s in selectors]
        by_parsed = query_many(document.root, parsed, document)
        assert [by_parsed[p] for p in parsed] == [by_string[s] for s in selectors]
        prebuilt = SelectorSet(selectors)
        assert query_many(document.root, prebuilt, document) == by_string


class TestQueryMany:
    def test_an_element_matched_by_two_alternatives_is_listed_once(self):
        document = Document()
        li = document.root.append_child(Element("li", {"id": "a", "class": "x"}))
        found = query_many(document.root, ["li, .x, #a", "*"], document)
        assert found["li, .x, #a"] == [li]
        assert found["*"] == [li]

    def test_no_selectors_is_an_empty_answer(self):
        assert query_many(Document().root, [], None) == {}

    def test_duplicate_keys_collapse(self):
        document = Document()
        li = document.root.append_child(Element("li"))
        assert query_many(document.root, ["li", "li"], document) == {"li": [li]}

    def test_filing_by_id_then_class_then_tag(self):
        selectors = SelectorSet(["div#a.x", "div.x.y", "div", "[data-k]", "#a p, q"])
        assert [s for s, _ in selectors.by_id["a"]] == [0]
        assert [s for s, _ in selectors.by_class["x"]] == [1]
        assert [s for s, _ in selectors.by_tag["div"]] == [2]
        assert [s for s, _ in selectors.by_tag["p"]] == [4]
        assert [s for s, _ in selectors.by_tag["q"]] == [4]
        assert [s for s, _ in selectors.universal] == [3]

    def test_deep_trees_do_not_recurse(self):
        document = Document()
        node = document.root
        for _ in range(2000):
            node = node.append_child(Element("div"))
        node.append_child(Element("span", {"class": "leaf"}))
        found = query_many(document.root, [".leaf", "div"], document)
        assert len(found[".leaf"]) == 1
        assert len(found["div"]) == 2000


class TestParseCache:
    def test_each_distinct_string_is_parsed_once(self):
        parse_selector.cache_clear()
        first = parse_selector("ul > li.x")
        assert parse_selector("ul > li.x") is first
        parse_selector("#a")
        info = parse_selector.cache_info()
        assert (info.misses, info.hits) == (2, 1)

    def test_errors_are_not_cached(self):
        parse_selector.cache_clear()
        for _ in range(2):
            with pytest.raises(SelectorError):
                parse_selector("div ! p")
        assert parse_selector.cache_info().currsize == 0

    def test_the_cache_is_bounded(self):
        assert parse_selector.cache_info().maxsize is not None
