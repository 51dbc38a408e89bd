"""Ahead-of-time spec compilation: build once, load everywhere.

The Specstrom front end (lexer -> parser -> types -> elaboration ->
interning) is pure, so its output can be a *build product*.  This
package persists a compiled spec as a versioned on-disk artifact --
hash-consed formula DAG in a topological encoding that re-interns on
load, deferred bodies rebuilt from provenance, pre-seeded progression
caches and property metadata -- so cold
processes (CLI runs, forked pools, remote TCP workers) load instead of
re-elaborating.  See :mod:`.format` for the container layout,
:mod:`.codec` for the object encoding, :mod:`.build` for the
compile/save/load pipeline and :mod:`.resolver` for the
:class:`SpecResolver` seam every consumer goes through.

Driven by ``repro compile`` / ``repro inspect`` (see :mod:`repro.cli`).
"""

from .build import (
    ARTIFACT_SUFFIX,
    CompiledSpec,
    artifact_bytes,
    compile_source,
    compile_spec,
    default_artifact_path,
    inspect_artifact,
    load_artifact,
    load_artifact_bytes,
    save_artifact,
)
from .errors import (
    ArtifactCorruptError,
    ArtifactEncodeError,
    ArtifactError,
    ArtifactFormatError,
    ArtifactStaleError,
    ArtifactVersionError,
)
from .format import ARTIFACT_VERSION, MAGIC, content_hash, sniff, write_atomic
from .resolver import SpecResolver

__all__ = [
    "ARTIFACT_SUFFIX",
    "ARTIFACT_VERSION",
    "MAGIC",
    "ArtifactCorruptError",
    "ArtifactEncodeError",
    "ArtifactError",
    "ArtifactFormatError",
    "ArtifactStaleError",
    "ArtifactVersionError",
    "CompiledSpec",
    "SpecResolver",
    "artifact_bytes",
    "compile_source",
    "compile_spec",
    "content_hash",
    "default_artifact_path",
    "inspect_artifact",
    "load_artifact",
    "load_artifact_bytes",
    "save_artifact",
    "sniff",
    "write_atomic",
]
