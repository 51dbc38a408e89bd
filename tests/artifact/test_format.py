"""Hostile bytes through the ``.qsa``/``.qsc`` containers.

Whatever the bytes -- arbitrary, a truncated container, a container with
one bit flipped -- reading them either decodes or raises an
:class:`ArtifactError` subclass, never a raw exception, under both the
spec-artifact and the monitor-checkpoint magic.
"""

import functools
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.artifact import (
    ArtifactError,
    ArtifactFormatError,
    artifact_bytes,
    compile_spec,
    load_artifact_bytes,
)
from repro.artifact.codec import decode
from repro.artifact.format import (
    ARTIFACT_VERSION,
    CHECKPOINT_MAGIC,
    MAGIC,
    read_header,
    unpack,
)
from repro.monitor import Monitor
from repro.monitor.checkpoint import checkpoint_bytes
from repro.monitor.synth import synth_lines
from repro.specs import load_eggtimer_spec, spec_path
from tests.strategies import examples


@functools.lru_cache(maxsize=None)
def container(magic: bytes) -> bytes:
    """A real container of each kind: the egg-timer spec artifact, or a
    checkpoint of a monitor that has seen a few sessions."""
    if magic == MAGIC:
        return artifact_bytes(compile_spec(spec_path("eggtimer.strom")))
    monitor = Monitor(load_eggtimer_spec().check_named("safety"))
    for line in synth_lines(sessions=4, seed=3):
        monitor.feed_line(line)
    monitor.flush()
    return checkpoint_bytes(monitor)


def read(data: bytes, magic: bytes) -> object:
    """Every reader of a container: the header alone, then the whole
    thing decoded the way a loader decodes it."""
    read_header(data, magic=magic)
    if magic == MAGIC:
        return load_artifact_bytes(data, check_source=False)
    header, payload = unpack(data, magic=magic)
    return header, decode(payload)


def decodes_or_raises_typed(data: bytes, magic: bytes) -> None:
    try:
        read(data, magic)
    except ArtifactError:
        pass


magics = st.sampled_from([MAGIC, CHECKPOINT_MAGIC])


class TestHostileContainers:
    @given(magic=magics, tail=st.binary(max_size=64),
           header_len=st.integers(0, 2**32 - 1))
    @examples(200)
    def test_arbitrary_bytes(self, magic, tail, header_len):
        decodes_or_raises_typed(tail, magic)
        prefix = struct.pack(">4sII", magic, ARTIFACT_VERSION, header_len)
        decodes_or_raises_typed(prefix + tail, magic)

    @given(magic=magics, data=st.data())
    @examples(150)
    def test_truncated_container(self, magic, data):
        whole = container(magic)
        cut = data.draw(st.integers(0, len(whole) - 1))
        with pytest.raises(ArtifactError):
            read(whole[:cut], magic)

    @given(magic=magics, data=st.data())
    @examples(200)
    def test_bit_flipped_container(self, magic, data):
        whole = bytearray(container(magic))
        bit = data.draw(st.integers(0, len(whole) * 8 - 1))
        whole[bit // 8] ^= 1 << (bit % 8)
        decodes_or_raises_typed(bytes(whole), magic)

    @pytest.mark.parametrize("magic", [MAGIC, CHECKPOINT_MAGIC])
    def test_deeply_nested_header(self, magic):
        nested = b"[" * 100_000
        data = struct.pack(">4sII", magic, ARTIFACT_VERSION, len(nested)) + nested
        with pytest.raises(ArtifactFormatError, match="unreadable"):
            read(data, magic)

    @pytest.mark.parametrize("magic", [MAGIC, CHECKPOINT_MAGIC])
    def test_intact_containers_decode(self, magic):
        assert read(container(magic), magic) is not None
