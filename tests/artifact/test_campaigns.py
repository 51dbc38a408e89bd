"""Verdict identity across spec-resolution paths.

The artifact pipeline's acceptance bar: a campaign checked from a
loaded artifact -- serially, over a fork/thread pool, or on a remote
worker fed artifact bytes -- produces verdicts, counterexamples and
test counts identical to one compiled from source.
"""

import base64
import copyreg
import io

import pytest

from repro.api import CheckSession, SessionConfig
from repro.apps.eggtimer import egg_timer_app
from repro.artifact import (
    artifact_bytes,
    codec,
    compile_spec,
    load_artifact,
    save_artifact,
)
from repro.artifact.format import pack, read_header
from repro.checker import CompiledProperty, RunnerConfig
from repro.specs import spec_path

QUICK = RunnerConfig(tests=4, scheduled_actions=12, demand_allowance=8,
                     seed="artifact-identity", shrink=False)


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("artifact") / "egg.qsa")
    save_artifact(compile_spec(spec_path("eggtimer.strom")), path)
    return path


def _verdicts(result):
    return [r.verdict for r in result.results]


class TestSourceVsArtifact:
    @pytest.mark.parametrize("prop", ["safety", "liveness", "timeUp"])
    def test_serial_verdicts_identical(self, artifact, prop):
        from_source = CheckSession(egg_timer_app()).check(
            spec_path("eggtimer.strom"), property=prop, config=QUICK
        )
        from_artifact = CheckSession(egg_timer_app()).check(
            artifact, property=prop, config=QUICK
        )
        assert _verdicts(from_artifact) == _verdicts(from_source)
        assert from_artifact.passed == from_source.passed
        if from_source.counterexample is not None:
            assert (from_artifact.counterexample.actions
                    == from_source.counterexample.actions)

    def test_check_all_batch_identical(self, artifact):
        cfg = SessionConfig(jobs=2)
        from_source = CheckSession(egg_timer_app()).check_all(
            spec_path("eggtimer.strom"), config=QUICK, session=cfg
        )
        from_artifact = CheckSession(egg_timer_app()).check_all(
            artifact, config=QUICK, session=cfg
        )
        assert [(r.property_name, _verdicts(r)) for r in from_artifact] == [
            (r.property_name, _verdicts(r)) for r in from_source
        ]


class TestWorkerArtifactPath:
    def test_worker_cache_load_from_bytes_matches_source(self, artifact):
        """The remote path in miniature: a _RunnerCache fed artifact
        bytes runs the same test to the same verdict as a local
        source-compiled runner."""
        import random

        from repro.api.engines import _test_seed
        from repro.api.transport.worker import _RunnerCache

        bundle = compile_spec(spec_path("eggtimer.strom"))
        descriptor = {
            "spec": spec_path("eggtimer.strom"),
            "property": "safety",
            "app": "eggtimer",
            "artifact_b64": base64.b64encode(
                artifact_bytes(bundle)
            ).decode("ascii"),
            "source_hash": bundle.source_hash,
            "config": {"tests": 4, "scheduled_actions": 12,
                       "demand_allowance": 8,
                       "seed": "artifact-identity", "shrink": False},
        }
        cache = _RunnerCache()
        runner = cache.runner_for(descriptor)
        remote = [
            runner.run_single_test(
                random.Random(_test_seed("artifact-identity", index))
            ).verdict
            for index in range(4)
        ]
        local = CheckSession(egg_timer_app()).check(
            spec_path("eggtimer.strom"), property="safety", config=QUICK
        )
        assert remote == _verdicts(local)

    def test_rebuilt_campaign_is_one_front_end_run(self):
        """Satellite regression: rebuilding a campaign for the same
        unchanged spec file must not re-run the front end (it used to
        re-elaborate per campaign rebuild)."""
        from repro.api.transport.worker import _RunnerCache

        base = {
            "spec": spec_path("eggtimer.strom"),
            "property": "safety",
            "app": "eggtimer",
            "config": {"tests": 2, "seed": "a"},
        }
        cache = _RunnerCache()
        first = cache.runner_for(base)
        # A rebuilt campaign: same spec content, different run knobs.
        rebuilt = cache.runner_for({**base, "config": {"tests": 9,
                                                       "seed": "b"}})
        assert rebuilt is not first  # distinct runner per campaign
        hits, misses = cache.resolver_stats()
        assert (hits, misses) == (1, 1)  # but one elaboration total

    def test_artifact_bytes_skip_the_front_end_entirely(self):
        import repro.artifact.resolver as resolver_module
        from repro.api.transport.worker import _RunnerCache

        bundle = compile_spec(spec_path("eggtimer.strom"))
        descriptor = {
            "spec": spec_path("eggtimer.strom"),
            "property": "safety",
            "app": "eggtimer",
            "artifact_b64": base64.b64encode(
                artifact_bytes(bundle)
            ).decode("ascii"),
            "source_hash": bundle.source_hash,
            "config": {"tests": 2, "seed": "a"},
        }
        cache = _RunnerCache()
        calls = []
        original = resolver_module.compile_source
        resolver_module.compile_source = (
            lambda *a, **k: calls.append(1) or original(*a, **k)
        )
        try:
            cache.runner_for(descriptor)
        finally:
            resolver_module.compile_source = original
        assert calls == []  # loaded, never elaborated


class _EarlierBuildPickler(codec._SpecPickler):
    """Writes each property bundle the way earlier builds did: with a
    third slot holding the selectors the spec's actions read (the
    loader ignores it whatever its name)."""

    def reducer_override(self, obj):
        if type(obj) is CompiledProperty:
            slots = {
                "spec": obj.spec,
                "caches": obj.caches,
                "action_selectors": frozenset(obj.spec.dependencies),
            }
            return (copyreg.__newobj__, (CompiledProperty,), (None, slots))
        return super().reducer_override(obj)


class TestArtifactsFromEarlierBuilds:
    def test_earlier_container_loads_and_checks_identically(self, tmp_path):
        bundle = compile_spec(spec_path("eggtimer.strom"))
        fresh = str(tmp_path / "fresh.qsa")
        save_artifact(bundle, fresh)
        _version, header, _offset = read_header(artifact_bytes(bundle))
        header = {k: v for k, v in header.items()
                  if k not in ("payload_sha256", "payload_len")}
        for check in header["checks"]:
            check["action_footprint"] = check["dependencies"]
        buffer = io.BytesIO()
        _EarlierBuildPickler(buffer, protocol=codec._PROTOCOL).dump(bundle)
        earlier = tmp_path / "earlier.qsa"
        earlier.write_bytes(pack(header, buffer.getvalue()))

        loaded = load_artifact(str(earlier))
        assert set(loaded.properties) == set(bundle.properties)
        cfg = SessionConfig(jobs=1)
        from_fresh = CheckSession(egg_timer_app()).check_all(
            fresh, config=QUICK, session=cfg
        )
        from_earlier = CheckSession(egg_timer_app()).check_all(
            str(earlier), config=QUICK, session=cfg
        )
        assert [(r.property_name, _verdicts(r)) for r in from_earlier] == [
            (r.property_name, _verdicts(r)) for r in from_fresh
        ]
