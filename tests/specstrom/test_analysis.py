"""Static dependency analysis (paper, Section 3.3)."""

from repro.specstrom import (
    load_module,
    module_definition_table,
    parse_expression,
    parse_module,
    selector_dependencies,
)


def deps_of(source_module, *roots):
    module = parse_module(source_module)
    table = module_definition_table(module)
    exprs = [parse_expression(r) for r in roots]
    return selector_dependencies(exprs, table)


class TestDirectDependencies:
    def test_selector_member(self):
        assert deps_of("", "`#toggle`.text") == {"#toggle"}

    def test_multiple_selectors(self):
        assert deps_of("", "`#a`.text == `#b`.text") == {"#a", "#b"}

    def test_indirect_dependency_in_condition(self):
        """The paper's example: ``if `#toggle`.enabled {0} else {1}``
        depends on #toggle even though no branch queries it."""
        assert deps_of("", "if `#toggle`.enabled { 0 } else { 1 }") == {"#toggle"}

    def test_builtin_call_argument(self):
        assert deps_of("", "count(`.items li`)") == {".items li"}


class TestTransitiveDependencies:
    MODULE = """
    let ~stopped = `#toggle`.text == "start";
    let ~time = parseInt(`#remaining`.text);
    let ~both = stopped && time == 0;
    let helper(x) = x == `#aux`.text;
    """

    def test_through_lazy_lets(self):
        assert deps_of(self.MODULE, "both") == {"#toggle", "#remaining"}

    def test_through_function_bodies(self):
        assert deps_of(self.MODULE, 'helper("x")') == {"#aux"}

    def test_unreferenced_definitions_excluded(self):
        assert deps_of(self.MODULE, "stopped") == {"#toggle"}

    def test_shared_definitions_visited_once(self):
        assert deps_of(self.MODULE, "both && stopped") == {"#toggle", "#remaining"}

    def test_local_shadowing_respected(self):
        module = """
        let ~stopped = `#toggle`.text == "start";
        """
        # Local binding shadows the top-level name; its selector is the
        # one that counts.
        deps = deps_of(module, "{ let stopped = `#other`.text; stopped }")
        assert deps == {"#other"}


class TestCheckSpecDependencies:
    def test_check_gathers_property_and_action_selectors(self):
        module = load_module(
            """
            let ~ok = `#status`.text == "fine";
            action poke! = click!(`#button`) when ok;
            check always{0} ok;
            """
        )
        deps = module.checks[0].dependencies
        assert deps == frozenset({"#status", "#button"})

    def test_with_restricted_actions_narrow_dependencies(self):
        module = load_module(
            """
            let ~ok = `#status`.text == "fine";
            action a! = click!(`#a`);
            action b! = click!(`#b`);
            check always{0} ok with a!;
            """
        )
        deps = module.checks[0].dependencies
        assert "#a" in deps
        assert "#b" not in deps

    def test_guard_selectors_included(self):
        module = load_module(
            """
            let ~guardish = `#gate`.text == "open";
            action go! = click!(`#target`) when guardish;
            check always{0} true with go!;
            """
        )
        assert module.checks[0].dependencies == frozenset({"#gate", "#target"})
