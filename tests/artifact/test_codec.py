"""The artifact codec: encode/decode re-interns into the live tables.

The payload encoding is the hash-consed formula DAG in pickle's
children-first (stable topological) stream; the acceptance property is
not mere equality but *identity* -- a decoded formula must be the very
interned node the encoder saw, because every downstream layer (memoized
progression, cohort batching) keys on object
identity.
"""

import pytest
from hypothesis import given, strategies as st

from repro.artifact import load_artifact_bytes
from repro.artifact.codec import decode, encode
from repro.artifact.errors import ArtifactEncodeError
from repro.artifact import compile_spec, artifact_bytes
from repro.quickltl import (
    Always,
    And,
    Atom,
    BOTTOM,
    Eventually,
    Not,
    NextReq,
    NextStrong,
    NextWeak,
    Or,
    Release,
    TOP,
    Until,
    atom,
)
from repro.specs import spec_path

from tests.strategies import examples


# Module-level predicates pickle by reference; `atom("p")`'s default
# predicate is a local closure and deliberately does not.
def _reads_p(state):
    return bool(state.get("p", False))


def _reads_q(state):
    return bool(state.get("q", False))


_ATOMS = [Atom("p", _reads_p), Atom("q", _reads_q)]


@st.composite
def picklable_formulas(draw, max_depth: int = 4, max_subscript: int = 3):
    """Random structural formulas whose atoms pickle by reference."""
    if max_depth <= 0:
        return draw(st.sampled_from([TOP, BOTTOM] + _ATOMS))
    sub = lambda: picklable_formulas(
        max_depth=max_depth - 1, max_subscript=max_subscript
    )
    n = draw(st.integers(min_value=0, max_value=max_subscript))
    choice = draw(st.integers(min_value=0, max_value=10))
    if choice == 0:
        return draw(st.sampled_from([TOP, BOTTOM] + _ATOMS))
    if choice == 1:
        return Not(draw(sub()))
    if choice == 2:
        return And(draw(sub()), draw(sub()))
    if choice == 3:
        return Or(draw(sub()), draw(sub()))
    if choice == 4:
        return NextReq(draw(sub()))
    if choice == 5:
        return NextWeak(draw(sub()))
    if choice == 6:
        return NextStrong(draw(sub()))
    if choice == 7:
        return Always(n, draw(sub()))
    if choice == 8:
        return Eventually(n, draw(sub()))
    if choice == 9:
        return Until(n, draw(sub()), draw(sub()))
    return Release(n, draw(sub()), draw(sub()))


class TestFormulaRoundTrip:
    @given(formula=picklable_formulas())
    @examples(200)
    def test_decode_is_the_identical_interned_object(self, formula):
        assert decode(encode(formula)) is formula

    def test_shared_subterms_stay_shared(self):
        shared = And(_ATOMS[0], _ATOMS[1])
        formula = Or(Always(2, shared), Eventually(3, shared))
        restored = decode(encode(formula))
        assert restored is formula
        assert restored.left.body is restored.right.body

    def test_local_closure_atom_is_rejected_with_a_typed_error(self):
        with pytest.raises(ArtifactEncodeError):
            encode(atom("p"))  # default predicate is a local closure


class TestSpecModuleRoundTrip:
    def test_eggtimer_module_round_trips_through_the_codec(self):
        bundle = compile_spec(spec_path("eggtimer.strom"))
        restored = decode(encode(bundle.module))
        assert [c.name for c in restored.checks] == [
            c.name for c in bundle.module.checks
        ]
        for original, loaded in zip(bundle.module.checks, restored.checks):
            # Defers intern by closure identity, so the loaded formula
            # is a *new* interned node -- but structurally it must
            # progress identically, which the campaign-identity tests
            # assert end to end.  Here: same spine, same deferred body,
            # same dependency set.
            assert type(loaded.formula) is type(original.formula)
            assert loaded.formula.name == original.formula.name
            assert (loaded.formula.provenance.body
                    == original.formula.provenance.body)
            assert loaded.dependencies == original.dependencies

    def test_rebuilt_defers_carry_fresh_provenance(self):
        bundle = compile_spec(spec_path("eggtimer.strom"))
        loaded = load_artifact_bytes(artifact_bytes(bundle))
        for check in loaded.module.checks:
            assert check.formula.provenance is not None

    def test_structural_formulas_intern_across_the_wire_twice(self):
        formula = Until(2, _ATOMS[0], Not(_ATOMS[1]))
        once = decode(encode(formula))
        twice = decode(encode(once))
        assert once is formula and twice is formula
