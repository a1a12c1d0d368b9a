"""Persistent storage for GODDAG documents (the paper's "underway" part).

* :class:`GoddagStore` over SQLite — many named documents per database,
  row-level saves, persisted indexes and SQL-side span/overlap queries;
  every layer above (service, corpus, streaming ingest, lazy loading)
  builds on it;
* GDAG1 binary files — the one-document archive and export format, with
  a fixed-width element table scannable without loading the document
  (:func:`save_file`, :func:`load_file`, :func:`scan_spans`,
  :func:`file_stats`).
"""

from .binary_backend import file_stats, load_file, save_file, scan_spans
from .schema import (
    DocumentRow,
    ElementRow,
    HierarchyRow,
    ROOT_ID,
    decode_document,
    encode_document,
)
from .sqlite_backend import SqliteConnectionPool, SqliteStore, StoredElement
from .store import GoddagStore

__all__ = [
    "DocumentRow",
    "ElementRow",
    "GoddagStore",
    "HierarchyRow",
    "ROOT_ID",
    "SqliteConnectionPool",
    "SqliteStore",
    "StoredElement",
    "decode_document",
    "encode_document",
    "file_stats",
    "load_file",
    "save_file",
    "scan_spans",
]
