"""repro — a framework for processing complex document-centric XML with
overlapping structures.

A faithful, from-scratch Python reproduction of the system demonstrated
by Iacob & Dekhtyar at SIGMOD 2005: the GODDAG data model for concurrent
markup hierarchies, the SACX concurrent parser and its representation
drivers, the Extended XPath query language with the ``overlapping`` axis,
the xTagger editing engine with potential-validity checking, hierarchy
filtering, exporters for every supported representation, and a
persistent storage layer.

Quickstart::

    from repro import GoddagBuilder, ExtendedXPath

    builder = GoddagBuilder("sing a song of sixpence")
    builder.add_hierarchy("physical")
    builder.add_hierarchy("linguistic")
    builder.add_annotation("physical", "line", 0, 11)
    builder.add_annotation("physical", "line", 12, 23)
    builder.add_annotation("linguistic", "phrase", 5, 23)
    doc = builder.build()

    query = ExtendedXPath("//phrase/overlapping::line")
    for element in query.evaluate(doc):
        print(element.tag, element.text)
"""

from .collection import CollectionPlan, CollectionResult, Corpus
from .compare import canonical_form, describe_difference, documents_isomorphic
from .core import (
    ConcurrentSchema,
    Element,
    GoddagBuilder,
    GoddagDocument,
    Hierarchy,
    Leaf,
    Node,
    Root,
    Span,
    SpanTable,
)
from .dtd import DTD, PotentialValidity, parse_dtd, validate_document
from .editing import Editor
from .filters import extract_range, filter_tags, project
from .index import IndexManager
from .sacx import (
    SACXParser,
    parse_concurrent,
    parse_distributed,
    parse_flat_standoff,
    parse_fragmentation,
    parse_milestones,
    parse_standoff,
)
from .serialize import (
    export_distributed,
    export_fragmentation,
    export_milestones,
    export_standoff,
)
from .service import DocumentService, ReadSession, WriteSession
from .storage import GoddagStore
from .xpath import ExtendedXPath, xpath
from .xquery import XQuery, xquery
from .errors import (
    DTDSyntaxError,
    EditError,
    HierarchyError,
    MarkupConflictError,
    PoolExhaustedError,
    PotentialValidityError,
    ReadOnlySnapshotError,
    ReproError,
    SerializationError,
    ServiceError,
    SnapshotSupersededError,
    SpanError,
    StorageError,
    StoreBusyError,
    TextMismatchError,
    ValidationError,
    WellFormednessError,
    WriteConflictError,
    WriteLockTimeoutError,
    XPathEvaluationError,
    XPathSyntaxError,
)

__version__ = "1.0.0"

__all__ = [
    "CollectionPlan",
    "CollectionResult",
    "ConcurrentSchema",
    "Corpus",
    "DTD",
    "DTDSyntaxError",
    "DocumentService",
    "EditError",
    "Editor",
    "Element",
    "ExtendedXPath",
    "GoddagBuilder",
    "GoddagDocument",
    "GoddagStore",
    "Hierarchy",
    "HierarchyError",
    "IndexManager",
    "Leaf",
    "MarkupConflictError",
    "Node",
    "PoolExhaustedError",
    "PotentialValidity",
    "PotentialValidityError",
    "ReadOnlySnapshotError",
    "ReadSession",
    "ReproError",
    "Root",
    "SACXParser",
    "SerializationError",
    "ServiceError",
    "SnapshotSupersededError",
    "Span",
    "SpanError",
    "SpanTable",
    "StorageError",
    "StoreBusyError",
    "TextMismatchError",
    "ValidationError",
    "WellFormednessError",
    "WriteConflictError",
    "WriteLockTimeoutError",
    "WriteSession",
    "XPathEvaluationError",
    "XPathSyntaxError",
    "__version__",
    "canonical_form",
    "describe_difference",
    "documents_isomorphic",
    "export_distributed",
    "export_fragmentation",
    "export_milestones",
    "export_standoff",
    "extract_range",
    "filter_tags",
    "parse_concurrent",
    "parse_distributed",
    "parse_dtd",
    "parse_flat_standoff",
    "parse_fragmentation",
    "parse_milestones",
    "parse_standoff",
    "project",
    "validate_document",
    "xpath",
    "XQuery",
    "xquery",
]
