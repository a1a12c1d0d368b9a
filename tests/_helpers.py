"""Shared helpers for the test suite (not a conftest: the name would
collide with benchmarks/conftest.py in mixed pytest runs)."""

from __future__ import annotations

from repro.storage import load_file, save_file


def location(tmp_path):
    """A sqlite database file under ``tmp_path``."""
    return tmp_path / "store.sqlite"


#: The two forms a stored-document test saves: the document as built
#: (``"sqlite"``) and the document imported from its GDAG1 archive
#: (``"binary"``, see :func:`stored_form`).
SOURCES = ("sqlite", "binary")


def stored_form(source, document, tmp_path):
    """The document a test stores: ``document`` itself for
    ``"sqlite"``, or for ``"binary"`` the document read back from its
    GDAG1 archive (``save_file`` → ``load_file``, the export/import
    path), so a store behaviour is also checked on archive imports."""
    if source == "sqlite":
        return document
    path = tmp_path / "archive.gdag"
    save_file(document, path, "archive")
    return load_file(path)
