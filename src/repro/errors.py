"""Exception hierarchy for the concurrent-XML framework.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  Errors carry enough structured
context (offsets, tags, hierarchy names) for tools such as the xTagger
editing layer to present precise diagnostics.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by :mod:`repro`."""


class SpanError(ReproError):
    """An invalid character span (negative, inverted, or out of range)."""


class MarkupConflictError(ReproError):
    """Markup inserted into a hierarchy overlaps existing markup of that
    same hierarchy (within one hierarchy markup must nest)."""

    def __init__(self, message: str, *, hierarchy: str | None = None,
                 tag: str | None = None, start: int | None = None,
                 end: int | None = None) -> None:
        super().__init__(message)
        self.hierarchy = hierarchy
        self.tag = tag
        self.start = start
        self.end = end


class WellFormednessError(ReproError):
    """A single-hierarchy encoding is not well formed (mismatched tags,
    text outside the root, unterminated markup...)."""

    def __init__(self, message: str, *, line: int | None = None,
                 column: int | None = None, offset: int | None = None) -> None:
        super().__init__(message)
        self.line = line
        self.column = column
        self.offset = offset


class TextMismatchError(ReproError):
    """The documents of a distributed document do not share the same text
    content, so they cannot be united into one GODDAG."""

    def __init__(self, message: str, *, offset: int | None = None,
                 expected: str | None = None, found: str | None = None) -> None:
        super().__init__(message)
        self.offset = offset
        self.expected = expected
        self.found = found


class HierarchyError(ReproError):
    """Unknown hierarchy, duplicate hierarchy name, or a tag claimed by
    two hierarchies of the same concurrent schema."""


class DTDSyntaxError(ReproError):
    """The DTD source could not be parsed."""

    def __init__(self, message: str, *, position: int | None = None) -> None:
        super().__init__(message)
        self.position = position


class ValidationError(ReproError):
    """A hierarchy tree violates its DTD."""

    def __init__(self, message: str, *, tag: str | None = None,
                 hierarchy: str | None = None) -> None:
        super().__init__(message)
        self.tag = tag
        self.hierarchy = hierarchy


class PotentialValidityError(ValidationError):
    """An edit would make the document impossible to ever complete into a
    valid one (the prevalidation check of xTagger rejected it)."""


class XPathSyntaxError(ReproError):
    """An Extended XPath expression could not be parsed."""

    def __init__(self, message: str, *, position: int | None = None,
                 expression: str | None = None) -> None:
        super().__init__(message)
        self.position = position
        self.expression = expression


class XPathEvaluationError(ReproError):
    """An Extended XPath expression failed during evaluation (type error,
    unknown function, unknown hierarchy prefix...)."""


class SerializationError(ReproError):
    """A GODDAG could not be exported to the requested representation."""


class StorageError(ReproError):
    """The persistent store is corrupt, missing, or refused an operation."""


class FilterError(ReproError):
    """A filtering/projection request was invalid (unknown hierarchy,
    bad extraction window...)."""


class EditError(ReproError):
    """An editing operation was rejected (bad range, unknown node,
    empty undo stack...)."""


class IndexDeltaError(ReproError):
    """An incremental index update could not be applied (the delta and
    the index state disagree); the consumer falls back to a rebuild."""


class StoreBusyError(StorageError):
    """The database stayed locked past the bounded retry budget (another
    writer held it longer than the backoff schedule tolerates).  The
    failed transaction was rolled back cleanly; retrying the operation
    later is safe."""

    def __init__(self, message: str, *, attempts: int | None = None) -> None:
        super().__init__(message)
        self.attempts = attempts


class PoolExhaustedError(StorageError):
    """Every pooled connection was in use for the whole acquisition
    timeout.  Nothing was read or written; raise the pool size or shed
    load."""


class ServiceError(ReproError):
    """Base class of the concurrent document-service errors."""


class SnapshotSupersededError(ServiceError):
    """A writer published a newer version of the document after this
    read session opened.  The session's snapshot is still fully
    queryable — snapshots are immutable — but it no longer reflects the
    stored document; open a new read session to see the new version."""

    def __init__(self, message: str, *, name: str | None = None,
                 snapshot: str | None = None,
                 current: str | None = None) -> None:
        super().__init__(message)
        self.name = name
        self.snapshot = snapshot
        self.current = current


class ReadOnlySnapshotError(ServiceError):
    """A mutation was attempted on a frozen document — the shared
    snapshot a read session serves.  Nothing was changed; edit through a
    write session, which materializes a private, mutable copy."""


class WriteConflictError(ServiceError):
    """A second writer published the document between this write
    session's open and its publish (they raced through different
    service instances or processes — within one service the
    per-document write lock serializes writers).  Nothing was written;
    re-open a write session on the new version and re-apply the edits."""

    def __init__(self, message: str, *, name: str | None = None,
                 expected: str | None = None,
                 found: str | None = None) -> None:
        super().__init__(message)
        self.name = name
        self.expected = expected
        self.found = found


class WriteLockTimeoutError(ServiceError):
    """The per-document write lock stayed held past the acquisition
    timeout (a long-lived write session on the same document).  No
    session was opened."""
