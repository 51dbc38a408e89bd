"""The DOM executor: snapshots, dependency restriction, gestures."""

import pytest

from repro.dom import Element
from repro.executors import ActionFailed, DomExecutor
from repro.protocol.messages import Act, Start
from repro.specstrom.actions import ResolvedAction


def form_app(page):
    doc = page.document
    doc.root.append_child(Element("input", {"id": "field", "type": "text"}))
    doc.root.append_child(Element("button", {"id": "go"}, text="go"))
    doc.root.append_child(Element("span", {"id": "secret"}, text="hidden dep"))
    hidden = Element("button", {"id": "ghost"}, text="ghost")
    hidden.set_style("display", "none")
    doc.root.append_child(hidden)
    return {}


@pytest.fixture()
def executor():
    ex = DomExecutor(form_app)
    ex.start(Start(frozenset({"#field", "#go"})))
    ex.drain()
    return ex


def act(kind, selector, *args, index=0, version=1):
    return Act(ResolvedAction(kind, selector, index, tuple(args)), "a!", version)


class TestSnapshots:
    def test_only_dependency_selectors_included(self, executor):
        executor.act(act("click", "#go"))
        (message,) = executor.drain()
        assert set(message.state.queries) == {"#field", "#go"}

    def test_snapshot_records_widget_state(self, executor):
        executor.act(act("input", "#field", "hello"))
        (message,) = executor.drain()
        field = message.state.queries["#field"][0]
        assert field.value == "hello"
        assert field.focused

    def test_versions_are_sequential(self, executor):
        executor.act(act("click", "#go", version=1))
        executor.act(act("click", "#go", version=2))
        messages = executor.drain()
        assert [m.state.version for m in messages] == [2, 3]

    def test_reset_replaces_the_dependency_set(self, executor):
        from repro.protocol.messages import Reset

        assert executor.reset(Reset(frozenset({"#go", "#secret"}))) is True
        (loaded,) = executor.drain()
        assert set(loaded.state.queries) == {"#go", "#secret"}


class TestGestures:
    def test_input_replaces_value(self, executor):
        executor.act(act("input", "#field", "first", version=1))
        executor.act(act("input", "#field", "second", version=2))
        messages = executor.drain()
        assert messages[-1].state.queries["#field"][0].value == "second"

    def test_press_key_focuses_target(self, executor):
        executor.act(act("pressKey", "#field", "Enter"))
        (message,) = executor.drain()
        assert message.state.queries["#field"][0].focused

    def test_clear(self, executor):
        executor.act(act("input", "#field", "text", version=1))
        executor.act(act("clear", "#field", version=2))
        messages = executor.drain()
        assert messages[-1].state.queries["#field"][0].value == ""

    def test_noop_changes_nothing_but_reports(self, executor):
        executor.act(Act(ResolvedAction("noop", None, None, ()), "wait!", 1))
        (message,) = executor.drain()
        assert message.state.happened == ("wait!",)

    def test_reload_reports_loaded_in_happened(self, executor):
        executor.act(Act(ResolvedAction("reload", None, None, ()), "reload!", 1))
        (message,) = executor.drain()
        assert message.state.happened == ("reload!", "loaded?")


class TestFailures:
    def test_unknown_selector_target_fails(self, executor):
        with pytest.raises(ActionFailed):
            executor.act(act("click", "#missing"))

    def test_invisible_target_fails(self, executor):
        with pytest.raises(ActionFailed):
            executor.act(act("click", "#ghost"))

    def test_index_out_of_range_fails(self, executor):
        with pytest.raises(ActionFailed):
            executor.act(act("click", "#go", index=5))

    def test_unknown_primitive_fails(self, executor):
        with pytest.raises(ActionFailed):
            executor.act(act("teleport", "#go"))

    def test_unstarted_executor_rejects_acts(self):
        ex = DomExecutor(form_app)
        with pytest.raises(RuntimeError):
            ex.act(act("click", "#go", version=0))


class TestIndexResolution:
    def test_index_counts_visible_matches_only(self):
        def many_buttons(page):
            doc = page.document
            for i, visible in enumerate([True, False, True]):
                b = Element("button", {"class": "b", "data-n": str(i)})
                if not visible:
                    b.set_style("display", "none")
                doc.root.append_child(b)
            return {}

        ex = DomExecutor(many_buttons)
        ex.start(Start(frozenset({".b"})))
        ex.drain()
        # Index 1 among *visible* matches is the data-n=2 button.
        ex.act(act("click", ".b", index=1))
        (message,) = ex.drain()
        clicked = [
            el for el in message.state.queries[".b"] if el.focused
        ]
        assert clicked and clicked[0].attribute("data-n") == "2"
