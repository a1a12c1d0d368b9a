"""GDAG1: the struct-packed single-file archive of one GODDAG document.

Format (versioned magic, little-endian):

.. code-block:: text

    GDAG1\\n
    u32 header_length     | JSON header: name, root_tag, root_attributes,
                          |   hierarchies [{name, dtd_source}], tag pool,
                          |   element_count, text_bytes, attrs_bytes
    text (UTF-8)
    element records       | element_count × '<IHHIIII' :
                          |   elem_id, hierarchy_idx, tag_idx, start, end,
                          |   parent_id, attrs_offset (into the JSON-lines
                          |   attribute blob; 0xFFFFFFFF = no attributes)
    attribute blob        | newline-separated JSON objects

``elem_id`` is the element's *persistent identity* — its birth ordinal
in the GODDAG core — and ``parent_id`` the parent's (0 = shared root),
so binary round-trips preserve identity exactly like the sqlite rows
do.  Records are written in per-hierarchy preorder and sibling rank is
carried by that *record order* within each parent (ids themselves are
not rank: an element born late in an editing session keeps its high
ordinal wherever it nests).  Artifacts written before ids were
identity-stable encode per-save preorder numbers instead; loading one
simply adopts those numbers as the ordinals, so old files stay fully
readable.

GDAG1 is the archive and export format beside the sqlite store:
export with ``save_file(store.load(name), path, name)``, import with
``store.save(load_file(path), name)``.  The element table is
fixed-width, so :func:`scan_spans` can answer span queries by reading
the header + table only, the storage-level access of experiment E7
without SQLite.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

from ..core.goddag import GoddagDocument
from ..errors import StorageError
from ..obs.metrics import metrics
from .schema import decode_document, encode_document, DocumentRow, HierarchyRow, ElementRow

_MAGIC = b"GDAG1\n"
_RECORD = struct.Struct("<IHHIIII")
_NO_ATTRS = 0xFFFFFFFF


@dataclass(frozen=True)
class BinaryHeader:
    name: str
    root_tag: str
    root_attributes: dict[str, str]
    hierarchies: list[dict[str, str]]
    tags: list[str]
    element_count: int
    text_bytes: int
    attrs_bytes: int
    #: True when the record table is strictly increasing in ``elem_id``
    #: (true for freshly built documents, not necessarily after edits: a
    #: late-born element keeps its high ordinal wherever it nests).
    #: Informational — no reader here consults it — but still written,
    #: so the archive bytes stay stable across versions; files written
    #: before the flag existed default to False.
    ids_sorted: bool = False


def save_file(document: GoddagDocument, path: str | Path, name: str = "") -> None:
    """Write ``document`` to ``path`` in the GDAG1 format."""
    doc_row, hierarchy_rows, element_rows = encode_document(
        document, name or str(path)
    )
    metrics.incr("storage.binary_saves")
    metrics.incr("storage.rows_rewritten", len(element_rows))
    hierarchy_index = {row.name: i for i, row in enumerate(hierarchy_rows)}
    tags: list[str] = []
    tag_index: dict[str, int] = {}
    for row in element_rows:
        if row.tag not in tag_index:
            tag_index[row.tag] = len(tags)
            tags.append(row.tag)

    attr_blob_parts: list[bytes] = []
    attr_offsets: list[int] = []
    blob_size = 0
    for row in element_rows:
        if row.attributes == "{}":
            attr_offsets.append(_NO_ATTRS)
            continue
        encoded = row.attributes.encode("utf-8") + b"\n"
        attr_offsets.append(blob_size)
        attr_blob_parts.append(encoded)
        blob_size += len(encoded)

    text_bytes = doc_row.text.encode("utf-8")
    header = BinaryHeader(
        name=doc_row.name,
        root_tag=doc_row.root_tag,
        root_attributes=json.loads(doc_row.root_attributes),
        hierarchies=[
            {"name": row.name, "dtd_source": row.dtd_source}
            for row in hierarchy_rows
        ],
        tags=tags,
        element_count=len(element_rows),
        text_bytes=len(text_bytes),
        attrs_bytes=blob_size,
        ids_sorted=all(
            element_rows[i].elem_id < element_rows[i + 1].elem_id
            for i in range(len(element_rows) - 1)
        ),
    )
    header_bytes = json.dumps(header.__dict__, sort_keys=True).encode("utf-8")

    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(text_bytes)
        for row, attrs_offset in zip(element_rows, attr_offsets):
            fh.write(
                _RECORD.pack(
                    row.elem_id,
                    hierarchy_index[row.hierarchy],
                    tag_index[row.tag],
                    row.start,
                    row.end,
                    row.parent_id,
                    attrs_offset,
                )
            )
        for part in attr_blob_parts:
            fh.write(part)


def _read_header(fh) -> BinaryHeader:
    magic = fh.read(len(_MAGIC))
    if magic != _MAGIC:
        raise StorageError(f"not a GDAG1 file (magic {magic!r})")
    (header_length,) = struct.unpack("<I", fh.read(4))
    data = json.loads(fh.read(header_length).decode("utf-8"))
    return BinaryHeader(**data)


def load_file(path: str | Path) -> GoddagDocument:
    """Read a GDAG1 file back into a GODDAG."""
    with open(path, "rb") as fh:
        header = _read_header(fh)
        text = fh.read(header.text_bytes).decode("utf-8")
        table = fh.read(header.element_count * _RECORD.size)
        blob = fh.read(header.attrs_bytes)

    doc_row = DocumentRow(
        header.name, header.root_tag, text,
        json.dumps(header.root_attributes, sort_keys=True),
    )
    hierarchy_rows = [
        HierarchyRow(rank, item["name"], item["dtd_source"])
        for rank, item in enumerate(header.hierarchies)
    ]
    element_rows: list[ElementRow] = []
    # Child ranks are implicit in *record order* within each parent (the
    # writer emits per-hierarchy preorder; ids are birth ordinals and
    # need not be monotone in document position after edits).
    sibling_counters: dict[int, int] = {}
    for record in _RECORD.iter_unpack(table):
        elem_id, h_idx, tag_idx, start, end, parent_id, attrs_offset = record
        if attrs_offset == _NO_ATTRS:
            attributes = "{}"
        else:
            end_index = blob.index(b"\n", attrs_offset)
            attributes = blob[attrs_offset:end_index].decode("utf-8")
        rank = sibling_counters.get(parent_id, 0)
        sibling_counters[parent_id] = rank + 1
        element_rows.append(
            ElementRow(
                elem_id,
                header.hierarchies[h_idx]["name"],
                header.tags[tag_idx],
                start, end, parent_id, rank, attributes,
            )
        )
    return decode_document(doc_row, hierarchy_rows, element_rows)


def scan_spans(
    path: str | Path, start: int, end: int
) -> list[tuple[str, str, int, int]]:
    """Storage-level span query: solid elements intersecting [start, end).

    Reads only the header and the fixed-width element table — the text
    and attribute blob are skipped — and returns ``(hierarchy, tag,
    start, end)`` tuples.
    """
    with open(path, "rb") as fh:
        header = _read_header(fh)
        fh.seek(header.text_bytes, 1)  # skip the text
        table = fh.read(header.element_count * _RECORD.size)
    out: list[tuple[str, str, int, int]] = []
    for record in _RECORD.iter_unpack(table):
        _, h_idx, tag_idx, elem_start, elem_end, _, _ = record
        if elem_start < end and elem_end > start:
            out.append(
                (
                    header.hierarchies[h_idx]["name"],
                    header.tags[tag_idx],
                    elem_start,
                    elem_end,
                )
            )
    return out


def file_stats(path: str | Path) -> dict[str, int]:
    """Size accounting of a GDAG1 file (used by the E8 bench report)."""
    with open(path, "rb") as fh:
        header = _read_header(fh)
    total = Path(path).stat().st_size
    return {
        "total_bytes": total,
        "text_bytes": header.text_bytes,
        "element_bytes": header.element_count * _RECORD.size,
        "attrs_bytes": header.attrs_bytes,
        "elements": header.element_count,
    }
