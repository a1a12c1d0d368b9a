"""The GODDAG document and its builder.

:class:`GoddagDocument` is the in-memory representation of a concurrent
XML document: one immutable text, a shared root, a shared leaf table, and
one properly-nested element tree per markup hierarchy.  It provides the
DOM-style API of the paper (children/parents/traversal), the dynamic
editing primitives used by the xTagger layer (:meth:`insert_element`,
:meth:`remove_element`), and the cross-hierarchy span queries behind the
Extended XPath axes.

:class:`GoddagBuilder` constructs documents either from parser events
(preserving source nesting) or from bags of offset annotations (nesting
derived from spans), which is how every import driver and the synthetic
workload generator produce GODDAGs.

Placement conventions (documented here once, relied upon everywhere):

* Sibling order is ``(start, zero-width-first, -end, birth ordinal)``.
* A zero-width element anchored at offset ``a`` (a surviving milestone)
  belongs to the deepest element ``e`` with ``e.start <= a < e.end`` when
  it enters through an offset-based path; source-driven paths keep the
  nesting the source expressed.
* Inserting an element with the exact span of an existing one nests the
  new element *inside* the existing one.
"""

from __future__ import annotations

import threading
from bisect import bisect_right, insort
from contextlib import contextmanager
from heapq import merge as heap_merge
from typing import Iterable, Iterator, Mapping, Sequence

from ..errors import (
    HierarchyError,
    MarkupConflictError,
    ReadOnlySnapshotError,
    SpanError,
)
from ..obs.metrics import metrics as _metrics
from .changes import ChangeRecord, InsertMarkup, RemoveMarkup, SetAttribute
from .hierarchy import Hierarchy
from .intervals import StaticIntervalIndex
from .node import Element, Leaf, Node, Root
from .spans import Span, SpanTable

#: Upper bound of the per-document delta journal.  Older entries fall
#: off; a consumer whose snapshot predates the journal window gets
#: ``None`` from :meth:`GoddagDocument.changes_since` and must rebuild.
JOURNAL_LIMIT = 512


def _sibling_key(element: Element) -> tuple[int, int, int, int]:
    """Total order of siblings; see the module docstring."""
    return (
        element.start,
        0 if element.is_empty else 1,
        -element.end,
        element.ordinal,
    )


class GoddagDocument:
    """A multihierarchical document-centric XML document in memory."""

    def __init__(self, text: str, root_tag: str = "r") -> None:
        self._text = text
        self._spans = SpanTable(len(text))
        self._hierarchies: dict[str, Hierarchy] = {}
        self._h_top: dict[str, list[Element]] = {}
        self._h_all: dict[str, list[Element]] = {}
        self._h_index: dict[str, StaticIntervalIndex[Element] | None] = {}
        self._ordinal = 0
        self._version = 0
        self._ordered_cache: list[Element] = []
        self._ordered_cache_version = -1
        self._ordinal_map: dict[int, Element] = {}
        self._ordinal_map_version = -1
        self._index_manager = None
        # Delta journal: (version, record) pairs for tracked mutations.
        # _journal_floor is the newest version with no record — deltas
        # can reconstruct any state from the floor forward, nothing older.
        # journal_tracking=False skips record construction entirely
        # (mutations become untracked: consumers always rebuild) — for
        # never-indexed bulk editing where the re-pathing snapshots in
        # insert/remove records would be pure overhead.
        self.journal_tracking = True
        self._journal: list[tuple[int, ChangeRecord]] = []
        self._journal_floor = 0
        self._speculating = False
        # Version ranges annihilated by insert/remove pair cancellation:
        # a consumer that synced strictly inside such a range cannot be
        # bridged by the remaining records (see touch).
        self._journal_gaps: list[tuple[int, int]] = []
        self._frozen = False
        # Serializes the fills of the version-stamped caches (ordered
        # elements, ordinal map, interval indexes).  Each fill re-checks
        # under the lock and publishes its value before its version, so
        # threads sharing a frozen document fill each cache exactly once
        # and a filled cache is read without taking the lock.
        self._fill_lock = threading.Lock()
        self._root = Root(self, root_tag)

    # -- identity & bookkeeping ------------------------------------------------

    @property
    def text(self) -> str:
        """The full document text (immutable)."""
        return self._text

    @property
    def length(self) -> int:
        return len(self._text)

    @property
    def spans(self) -> SpanTable:
        """The shared leaf/boundary table."""
        return self._spans

    @property
    def root(self) -> Root:
        """The root element shared by all hierarchies."""
        return self._root

    @property
    def version(self) -> int:
        """Monotone counter bumped by every structural or attribute change."""
        return self._version

    @property
    def frozen(self) -> bool:
        """True once :meth:`freeze` made the document read-only."""
        return self._frozen

    def freeze(self) -> "GoddagDocument":
        """Make the document read-only, so threads may share it.

        Every mutator — :meth:`add_hierarchy`, :meth:`insert_element`,
        :meth:`insert_empty_element`, :meth:`remove_element`,
        :meth:`set_attribute`, :meth:`remove_attribute`, :meth:`touch`,
        :meth:`attach_index` and :meth:`detach_index` — then raises
        :class:`~repro.errors.ReadOnlySnapshotError` before it changes
        anything.  The version never moves again, so each version-stamped
        cache fills at most once.  The canonical element order is filled
        here, before the document is shared: that fill also stamps every
        element's cached order key, which has no lock of its own.
        Freezing is permanent.
        """
        self.ordered_elements()
        self._frozen = True
        return self

    def _check_writable(self) -> None:
        if self._frozen:
            raise ReadOnlySnapshotError(
                "this document is a frozen read snapshot; edit it "
                "through a write session"
            )

    def touch(self, change: ChangeRecord | None = None) -> None:
        """Bump the document version (called by mutators).

        Version bumps invalidate the version-stamped caches: the
        ordered-element cache, cached order keys, and an attached index
        manager.  The per-hierarchy interval indexes are reset
        explicitly by the structural mutators (see :meth:`_dirty`).

        Tracked mutations pass their :class:`~repro.core.changes.ChangeRecord`;
        it enters the bounded delta journal so index consumers can catch
        up incrementally.  A bare ``touch()`` is an *untracked* mutation:
        it resets the journal floor, forcing consumers behind it into a
        full rebuild (deltas could no longer reconstruct the state).
        """
        self._check_writable()
        self._version += 1
        if change is None:
            if self._journal:
                self._journal.clear()
            self._journal_floor = self._version
            self._journal_gaps.clear()
        else:
            # Inside a declared speculation region (prevalidation and
            # tag-menu trials), a removal that exactly cancels the
            # immediately preceding insertion annihilates the pair: with
            # no record in between, the net transformation is the
            # identity, so consumers that span the whole pair skip both
            # — the trials no longer flood the journal or push a session
            # over the delta-rebuild threshold.  A consumer that synced
            # *inside* the pair saw the insertion and still needs the
            # removal, so the range becomes a gap that forces it to
            # rebuild instead.
            if (
                self._speculating
                and self._journal
                and isinstance(change, RemoveMarkup)
                and isinstance(self._journal[-1][1], InsertMarkup)
                and self._journal[-1][1].element is change.element
            ):
                inserted_at, _ = self._journal.pop()
                floor = self._journal_floor
                gaps = [(lo, hi) for lo, hi in self._journal_gaps
                        if hi > floor]
                gaps.append((inserted_at, self._version))
                if len(gaps) > 64:
                    # Degenerate churn: cheaper to declare the journal
                    # broken than to track an unbounded gap list.
                    self._journal.clear()
                    self._journal_floor = self._version
                    gaps = []
                self._journal_gaps = gaps
                return
            self._journal.append((self._version, change))
            if len(self._journal) > JOURNAL_LIMIT:
                del self._journal[0]
                self._journal_floor = self._journal[0][0] - 1
            if _metrics.enabled:
                _metrics.incr("journal.records")
                _metrics.observe("journal.depth", len(self._journal))

    @contextmanager
    def speculation(self) -> Iterator[None]:
        """Declare a speculative trial region (see :meth:`touch`).

        Within the region, an insert immediately undone by its matching
        remove annihilates in the delta journal instead of accumulating
        two records — the prevalidation checker and the tag menu wrap
        their try-insert-then-roll-back probes in this.
        """
        previous = self._speculating
        self._speculating = True
        try:
            yield
        finally:
            self._speculating = previous

    def changes_since(self, version: int) -> list[ChangeRecord] | None:
        """Change records for every version bump after ``version``.

        Returns ``None`` when the journal cannot bridge the gap — the
        snapshot predates the journal window, or an untracked mutation
        happened since — in which case derived structures must rebuild.
        """
        if version < self._journal_floor:
            return None
        if any(lo <= version < hi for lo, hi in self._journal_gaps):
            return None  # synced inside a cancelled insert/remove pair
        lo = bisect_right(self._journal, version, key=lambda entry: entry[0])
        return [record for _, record in self._journal[lo:]]

    def _label_path(self, element: Element) -> tuple[str, ...]:
        """Root-to-element tag sequence within the element's hierarchy."""
        if element.is_root:
            return ()
        tags: list[str] = []
        node: Element | None = element
        while node is not None:
            tags.append(node.tag)
            node = node._parent
        tags.reverse()
        return tuple(tags)

    @property
    def index_manager(self):
        """The attached :class:`~repro.index.manager.IndexManager`, if any.

        The Extended XPath engine consults this automatically; query
        results are identical with and without one attached.
        """
        return self._index_manager

    def attach_index(self, manager) -> None:
        """Attach a query-acceleration index manager to this document."""
        self._check_writable()
        self._index_manager = manager

    def detach_index(self) -> None:
        """Detach the index manager (queries return to unindexed paths)."""
        self._check_writable()
        self._index_manager = None

    def _next_ordinal(self) -> int:
        """The next birth ordinal (1-based; the shared root is 0).

        Ordinals are the document's *persistent identity*: storage
        backends persist them as ``elem_id`` and reconstruction restores
        them, so the counter must never re-issue a loaded value.  The
        builder bumps ``_ordinal`` past the maximum explicit ordinal
        before materializing (see :meth:`GoddagBuilder.build`), which
        keeps ``save → load → edit`` sessions collision-free.
        """
        self._ordinal += 1
        return self._ordinal

    def element_by_ordinal(self, ordinal: int) -> Element | None:
        """The element whose birth ordinal (= persistent ``elem_id``) is
        ``ordinal``, or ``None`` when no such element is attached.

        This is the keyed identity lookup backing cross-session node
        handles: an ordinal observed before a save names the same
        element after ``GoddagStore.load``, so consumers resolve handles
        directly instead of positionally re-matching spans or document
        order.  Ordinal 0 resolves to the shared root.  O(1) per
        lookup: a stale map catches up from the delta journal (one dict
        op per structural record) and pays a full rebuild only when the
        journal cannot bridge the gap — the same contract as the
        indexes.
        """
        if ordinal == 0:
            return self._root
        if self._ordinal_map_version != self._version:
            with self._fill_lock:
                if self._ordinal_map_version != self._version:
                    changes = (
                        self.changes_since(self._ordinal_map_version)
                        if self._ordinal_map_version >= 0 else None
                    )
                    if changes is None:
                        self._ordinal_map = {
                            element.ordinal: element
                            for elements in self._h_all.values()
                            for element in elements
                        }
                    else:
                        for change in changes:
                            if isinstance(change, InsertMarkup):
                                self._ordinal_map[change.ordinal] = \
                                    change.element
                            elif isinstance(change, RemoveMarkup):
                                self._ordinal_map.pop(change.ordinal, None)
                    self._ordinal_map_version = self._version
        return self._ordinal_map.get(ordinal)

    # -- hierarchies ---------------------------------------------------------------

    def add_hierarchy(self, name: str, dtd=None) -> Hierarchy:
        """Register a markup hierarchy; rank follows registration order."""
        self._check_writable()
        if not name:
            raise HierarchyError("hierarchy name must be non-empty")
        if name in self._hierarchies:
            raise HierarchyError(f"duplicate hierarchy {name!r}")
        hierarchy = Hierarchy(name, rank=len(self._hierarchies), dtd=dtd)
        self._hierarchies[name] = hierarchy
        self._h_top[name] = []
        self._h_all[name] = []
        self._h_index[name] = None
        self.touch()
        return hierarchy

    def hierarchy(self, name: str) -> Hierarchy:
        """Look up a hierarchy by name."""
        try:
            return self._hierarchies[name]
        except KeyError:
            raise HierarchyError(f"unknown hierarchy {name!r}") from None

    def hierarchy_names(self) -> tuple[str, ...]:
        """All hierarchy names in rank order."""
        return tuple(self._hierarchies)

    def has_hierarchy(self, name: str) -> bool:
        return name in self._hierarchies

    def _rank(self, name: str) -> int:
        return self._hierarchies[name].rank

    # -- leaves ------------------------------------------------------------------

    def leaf(self, index: int) -> Leaf:
        """The leaf at position ``index`` of the leaf sequence."""
        return Leaf(self, index)

    def leaves(self) -> list[Leaf]:
        """All leaves, left to right."""
        return [Leaf(self, i) for i in range(len(self._spans))]

    def leaf_at(self, offset: int) -> Leaf:
        """The leaf containing character position ``offset``."""
        return Leaf(self, self._spans.leaf_index_at(offset))

    def leaves_in(self, span: Span) -> list[Leaf]:
        """The leaves tiling ``span`` (span boundaries must exist)."""
        first, last = self._spans.leaf_range(span)
        return [Leaf(self, i) for i in range(first, last)]

    def leaves_in_range(self, start: int, end: int) -> list[Leaf]:
        """Leaves tiling ``[start, end)``; empty for degenerate ranges."""
        if start >= end:
            return []
        return self.leaves_in(Span(start, end))

    def leaf_parents(self, leaf: Leaf, hierarchy: str | None = None) -> list[Element]:
        """Innermost covering element per hierarchy; root where uncovered.

        The shared root is reported at most once.
        """
        names = (hierarchy,) if hierarchy else self.hierarchy_names()
        parents: list[Element] = []
        saw_root = False
        for name in names:
            found = self.covering_element(name, leaf.start, leaf.end)
            if found.is_root:
                if not saw_root:
                    saw_root = True
                    parents.append(found)
            else:
                parents.append(found)
        return parents

    # -- element registry & traversal -----------------------------------------------

    def top_level(self, hierarchy: str) -> tuple[Element, ...]:
        """Top-level elements of one hierarchy (children of root there)."""
        self.hierarchy(hierarchy)
        return tuple(self._h_top[hierarchy])

    def merged_top_level(self) -> list[Element]:
        """Top-level elements of all hierarchies, in document order."""
        iters = [iter(self._h_top[name]) for name in self._hierarchies]
        rank = {name: i for i, name in enumerate(self._hierarchies)}

        def key(element: Element) -> tuple[int, int, int, int]:
            return (
                element.start,
                0 if element.is_empty else 1,
                -element.end,
                rank[element.hierarchy],
            )

        return list(heap_merge(*iters, key=key))

    def elements(
        self, hierarchy: str | None = None, tag: str | None = None
    ) -> Iterator[Element]:
        """Iterate elements in document order.

        Document order is the canonical interleaving ``(start,
        zero-width-first, -end, hierarchy rank)``; within one hierarchy it
        coincides with XML document order (preorder).
        """
        if hierarchy is not None:
            self.hierarchy(hierarchy)
            names = (hierarchy,)
        else:
            names = self.hierarchy_names()

        def preorder(name: str) -> Iterator[Element]:
            stack: list[Element] = list(reversed(self._h_top[name]))
            while stack:
                node = stack.pop()
                yield node
                stack.extend(reversed(node._children))

        rank = {name: i for i, name in enumerate(self._hierarchies)}

        def key(element: Element) -> tuple[int, int, int, int]:
            return (
                element.start,
                0 if element.is_empty else 1,
                -element.end,
                rank[element.hierarchy],
            )

        stream: Iterator[Element] = heap_merge(
            *(preorder(name) for name in names), key=key
        )
        if tag is None:
            return stream
        return (element for element in stream if element.tag == tag)

    def ordered_elements(self) -> list[Element]:
        """All elements in canonical document order, cached per version.

        Canonical means sorted by :func:`repro.core.navigation.order_key`
        — the total order the query engine sorts node-sets by.  (The raw
        :meth:`elements` merge can locally disagree with that key when a
        zero-width element is anchored at the start of its own ancestor;
        sorting here pins one order so the descendant axis, the
        structural summary's candidate lists, and incremental index
        maintenance all agree positionally.)

        The query engine's descendant axis runs off this list; the cache
        invalidates automatically on any mutation (version bump).
        """
        if self._ordered_cache_version != self._version:
            with self._fill_lock:
                if self._ordered_cache_version != self._version:
                    from .navigation import order_key

                    self._ordered_cache = sorted(self.elements(),
                                                 key=order_key)
                    self._ordered_cache_version = self._version
        return self._ordered_cache

    def element_count(self, hierarchy: str | None = None) -> int:
        """Number of elements, overall or for one hierarchy."""
        if hierarchy is not None:
            return len(self._h_all[hierarchy])
        return sum(len(elements) for elements in self._h_all.values())

    def child_nodes_of(self, element: Element) -> list[Node]:
        """Element children interleaved with the leaves tiling the gaps."""
        if element.is_root:
            children: Sequence[Element] = self.merged_top_level()
            lo, hi = 0, self.length
        else:
            children = element._children
            lo, hi = element.start, element.end
        out: list[Node] = []
        pos = lo
        for child in children:
            if child.start > pos:
                out.extend(self.leaves_in(Span(pos, child.start)))
            out.append(child)
            pos = max(pos, child.end)
        if hi > pos:
            out.extend(self.leaves_in(Span(pos, hi)))
        return out

    # -- span-based cross-hierarchy queries -------------------------------------------

    def _index(self, hierarchy: str) -> StaticIntervalIndex[Element]:
        index = self._h_index.get(hierarchy)
        if index is None:
            with self._fill_lock:
                index = self._h_index.get(hierarchy)
                if index is None:
                    solid = [e for e in self._h_all[hierarchy]
                             if not e.is_empty]
                    index = StaticIntervalIndex(solid)
                    self._h_index[hierarchy] = index
        return index

    def _dirty(self, hierarchy: str, change: ChangeRecord | None = None) -> None:
        self._h_index[hierarchy] = None
        self.touch(change)

    def _stab_chain(self, hierarchy: str, offset: int) -> list[Element]:
        """Solid elements of ``hierarchy`` containing position ``offset``,
        outermost first.

        Within one hierarchy spans properly nest, so the containing set
        is a root-to-innermost chain found by bisect descent over child
        lists — much cheaper than a general interval query.
        """
        out: list[Element] = []
        children: Sequence[Element] = self._h_top[hierarchy]
        while children:
            j = bisect_right(children, offset, key=lambda c: c._start) - 1
            while j >= 0 and children[j].is_empty:
                j -= 1
            if j < 0:
                break
            candidate = children[j]
            if candidate._end <= offset:
                break
            out.append(candidate)
            children = candidate._children
        return out

    def covering_element(self, hierarchy: str, start: int, end: int) -> Element:
        """Innermost element of ``hierarchy`` covering ``[start, end)``.

        Returns the shared root when no element covers the span.
        """
        self.hierarchy(hierarchy)
        chain = self._stab_chain(hierarchy, start)
        for candidate in reversed(chain):
            if candidate._end >= end:
                return candidate
        return self._root

    def overlapping_elements(
        self, element: Element, hierarchy: str | None = None
    ) -> list[Element]:
        """Elements properly overlapping ``element`` (always other
        hierarchies: within one hierarchy overlap cannot exist)."""
        if element.is_empty or element.is_root:
            return []
        names = (hierarchy,) if hierarchy else self.hierarchy_names()
        start, end = element.start, element.end
        out: list[Element] = []
        for name in names:
            if name == element.hierarchy:
                continue
            # An overlapping element must straddle one of our boundaries,
            # so two containment-chain stabs see every candidate without
            # visiting the (possibly many) contained elements.
            for other in self._stab_chain(name, start):
                if other._start < start and other._end < end:
                    out.append(other)
            for other in self._stab_chain(name, end - 1):
                if start < other._start and end < other._end:
                    out.append(other)
        return out

    def containing_elements(
        self, element: Element, hierarchy: str | None = None
    ) -> list[Element]:
        """Elements of *other* hierarchies whose span contains ``element``'s."""
        if element.is_root:
            return []
        names = (hierarchy,) if hierarchy else self.hierarchy_names()
        start, end = element.start, element.end
        out: list[Element] = []
        for name in names:
            if name == element.hierarchy:
                continue
            if start == end:
                # Zero-width anchors: containment is boundary-inclusive
                # (an element ending exactly at the anchor contains it).
                merged: dict[int, Element] = {}
                if start > 0:
                    for other in self._stab_chain(name, start - 1):
                        if other._end >= end:
                            merged[id(other)] = other
                if start < self.length:
                    for other in self._stab_chain(name, start):
                        merged[id(other)] = other
                out.extend(merged.values())
                continue
            out.extend(
                other
                for other in self._stab_chain(name, start)
                if other._end >= end
            )
        return out

    def contained_elements(
        self, element: Element, hierarchy: str | None = None
    ) -> list[Element]:
        """Elements of *other* hierarchies contained in ``element``'s span."""
        if element.is_empty:
            return []
        if element.is_root:
            names = (hierarchy,) if hierarchy else self.hierarchy_names()
            out: list[Element] = []
            for name in names:
                out.extend(self._index(name).all_items())
            return out
        names = (hierarchy,) if hierarchy else self.hierarchy_names()
        out = []
        for name in names:
            if name == element.hierarchy:
                continue
            out.extend(self._index(name).contained_in(element.start, element.end))
        return out

    def coextensive_elements(
        self, element: Element, hierarchy: str | None = None
    ) -> list[Element]:
        """Elements of other hierarchies covering exactly the same text."""
        if element.is_root or element.is_empty:
            return []
        return [
            other
            for other in self.containing_elements(element, hierarchy)
            if other.span == element.span
        ]

    # -- dynamic mutation (the editing primitives) ---------------------------------------

    def _find_parent(self, hierarchy: str, start: int, end: int) -> Element:
        """Deepest element of ``hierarchy`` containing ``[start, end)``.

        Descends through child lists (no index needed, edit-friendly).
        For zero-width targets containment is half-open: ``c.start <= a <
        c.end``.
        """
        parent: Element = self._root
        children: Sequence[Element] = self._h_top[hierarchy]
        target_empty = start == end
        while True:
            found = None
            for child in children:
                if child.is_empty:
                    continue
                if child.start > start:
                    break
                if target_empty:
                    if child.start <= start < child.end:
                        found = child
                elif child.start <= start and end <= child.end:
                    found = child
            if found is None:
                return parent
            parent = found
            children = found._children

    def insert_element(
        self,
        hierarchy: str,
        tag: str,
        start: int,
        end: int,
        attributes: Mapping[str, str] | None = None,
    ) -> Element:
        """Insert markup ``<tag>`` over ``[start, end)`` into ``hierarchy``.

        Existing elements of the same hierarchy fully inside the range are
        adopted as children; a partial overlap with same-hierarchy markup
        raises :class:`MarkupConflictError`.  Overlap with *other*
        hierarchies is exactly what the data model exists for and is
        always allowed.
        """
        self._check_writable()
        self.hierarchy(hierarchy)
        if start < 0 or end > self.length or start > end:
            raise SpanError(
                f"invalid element span [{start},{end}) for document of "
                f"length {self.length}"
            )
        parent = self._find_parent(hierarchy, start, end)
        siblings = (
            self._h_top[hierarchy] if parent.is_root else parent._children
        )
        span = Span(start, end)
        for sibling in siblings:
            if not sibling.is_empty and sibling.span.overlaps(span):
                raise MarkupConflictError(
                    f"<{tag}> [{start},{end}) overlaps <{sibling.tag}> "
                    f"[{sibling.start},{sibling.end}) in hierarchy "
                    f"{hierarchy!r}",
                    hierarchy=hierarchy, tag=tag, start=start, end=end,
                )
        self._spans.add_span(span)
        element = Element(
            self, hierarchy, tag, start, end, attributes, self._next_ordinal()
        )
        if start < end:
            adopted = [
                sibling
                for sibling in siblings
                if (start <= sibling.start < end and sibling.is_empty)
                or (not sibling.is_empty
                    and start <= sibling.start and sibling.end <= end)
            ]
        else:
            adopted = []
        for child in adopted:
            siblings.remove(child)
            child._parent = element
        element._children = sorted(adopted, key=_sibling_key)
        element._parent = None if parent.is_root else parent
        insort(siblings, element, key=_sibling_key)
        self._h_all[hierarchy].append(element)
        self._hierarchies[hierarchy].observe_tag(tag)
        change = None
        if self.journal_tracking:
            change = InsertMarkup(
                hierarchy=hierarchy, tag=tag, start=start, end=end,
                attributes=tuple(sorted(element.attributes.items())),
                ordinal=element.ordinal, element=element,
                parent=None if parent.is_root else parent,
                parent_path=self._label_path(parent),
                repathed=tuple(
                    node
                    for child in adopted
                    for node in (child, *child.descendants())
                ),
            )
        self._dirty(hierarchy, change)
        return element

    def insert_empty_element(
        self,
        hierarchy: str,
        tag: str,
        offset: int,
        attributes: Mapping[str, str] | None = None,
    ) -> Element:
        """Insert a zero-width (milestone-like) element anchored at ``offset``."""
        self._check_writable()
        if offset < 0 or offset > self.length:
            raise SpanError(f"anchor {offset} outside document")
        self._spans.add_boundary(offset)
        return self.insert_element(hierarchy, tag, offset, offset, attributes)

    def remove_element(self, element: Element) -> None:
        """Remove one element; its children are spliced up to its parent.

        Leaf boundaries are never removed, so the leaf table stays a
        refinement of the minimal partition (harmless and cheap).
        """
        self._check_writable()
        if element.is_root:
            raise MarkupConflictError("the shared root cannot be removed")
        hierarchy = element.hierarchy
        parent = element.parent
        siblings = (
            self._h_top[hierarchy] if parent.is_root else parent._children
        )
        try:
            position = siblings.index(element)
        except ValueError:
            raise MarkupConflictError(
                f"element {element!r} is not attached to this document"
            ) from None
        change = None
        if self.journal_tracking:
            change = RemoveMarkup(
                hierarchy=hierarchy, tag=element.tag,
                start=element.start, end=element.end,
                attributes=tuple(sorted(element.attributes.items())),
                ordinal=element.ordinal, element=element,
                parent=None if parent.is_root else parent,
                parent_path=self._label_path(parent),
                repathed=tuple(
                    node
                    for child in element._children
                    for node in (child, *child.descendants())
                ),
            )
        replacement = element._children
        for child in replacement:
            child._parent = None if parent.is_root else parent
        siblings[position : position + 1] = replacement
        element._children = []
        element._parent = None
        self._h_all[hierarchy].remove(element)
        self._dirty(hierarchy, change)

    def set_attribute(self, element: Element, name: str, value: str) -> None:
        """Set one attribute on ``element`` (tracked: emits a record).

        Attribute values are always strings, so ``old is None`` in the
        record encodes prior absence unambiguously.
        """
        self._check_writable()
        old = element.attributes.get(name)
        element.attributes[name] = value
        self.touch(SetAttribute(element=element, name=name, value=value,
                                old=old)
                   if self.journal_tracking else None)

    def remove_attribute(self, element: Element, name: str) -> None:
        """Delete one attribute from ``element`` (tracked; missing names
        are a no-op mutation that still emits its record)."""
        self._check_writable()
        old = element.attributes.pop(name, None)
        self.touch(SetAttribute(element=element, name=name, value=None,
                                old=old)
                   if self.journal_tracking else None)

    # -- integrity & analytics --------------------------------------------------------------

    def check_invariants(self) -> list[str]:
        """Verify structural invariants; returns a list of violations.

        An empty list means the document is internally consistent.  Used
        heavily by tests and by the editing layer after mutations.
        """
        problems: list[str] = []
        boundaries = set(self._spans.boundaries)
        seen_ordinals: set[int] = set()
        for name in self._hierarchies:
            stack: list[tuple[Element | None, Sequence[Element]]] = [
                (None, self._h_top[name])
            ]
            while stack:
                parent, children = stack.pop()
                keys = [_sibling_key(child) for child in children]
                if keys != sorted(keys):
                    problems.append(
                        f"{name}: children of "
                        f"{parent.tag if parent else 'root'} not sorted"
                    )
                previous: Element | None = None
                for child in children:
                    if child.hierarchy != name:
                        problems.append(
                            f"{name}: foreign element {child!r} in tree"
                        )
                    if child.ordinal in seen_ordinals:
                        problems.append(f"duplicate ordinal {child.ordinal}")
                    seen_ordinals.add(child.ordinal)
                    if child.start not in boundaries or child.end not in boundaries:
                        problems.append(
                            f"{name}: {child!r} boundaries missing from table"
                        )
                    if parent is not None:
                        if child._parent is not parent:
                            problems.append(
                                f"{name}: bad parent pointer on {child!r}"
                            )
                        if not parent.span.contains(child.span):
                            problems.append(
                                f"{name}: {child!r} escapes parent {parent!r}"
                            )
                    elif child._parent is not None:
                        problems.append(
                            f"{name}: top-level {child!r} has a parent pointer"
                        )
                    if (
                        previous is not None
                        and not previous.is_empty
                        and not child.is_empty
                        and child.start < previous.end
                    ):
                        problems.append(
                            f"{name}: siblings {previous!r} / {child!r} overlap"
                        )
                    if not child.is_empty:
                        previous = child
                    stack.append((child, child._children))
        return problems

    def stats(self) -> dict[str, object]:
        """Node/edge census of the GODDAG (the Figure 2 view).

        Edges counted: element→element (per tree) plus the leaf edges from
        each leaf's innermost parent per hierarchy (deduplicating root).
        """
        element_edges = 0
        per_hierarchy: dict[str, int] = {}
        for name in self._hierarchies:
            count = len(self._h_all[name])
            per_hierarchy[name] = count
            element_edges += count  # every element has exactly one parent edge
        leaf_edges = 0
        for leaf in self.leaves():
            leaf_edges += len(self.leaf_parents(leaf))
        return {
            "hierarchies": len(self._hierarchies),
            "elements": sum(per_hierarchy.values()),
            "elements_per_hierarchy": per_hierarchy,
            "leaves": len(self._spans),
            "element_edges": element_edges,
            "leaf_edges": leaf_edges,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GoddagDocument(length={self.length}, "
            f"hierarchies={list(self._hierarchies)}, "
            f"elements={self.element_count()}, leaves={len(self._spans)})"
        )


class _OpenElement:
    """Builder-internal record of an element whose end tag is pending."""

    __slots__ = ("tag", "start", "end", "attributes", "children", "seq",
                 "ordinal")

    def __init__(self, tag: str, start: int, attributes: dict[str, str],
                 seq: int, ordinal: int | None = None):
        self.tag = tag
        self.start = start
        self.end = -1
        self.attributes = attributes
        self.children: list[_OpenElement] = []
        self.seq = seq
        self.ordinal = ordinal


def _walk_open_elements(records: Iterable["_OpenElement"]) -> Iterator["_OpenElement"]:
    """All builder records of some trees, preorder (identity pre-scan)."""
    stack = list(records)
    while stack:
        record = stack.pop()
        yield record
        stack.extend(record.children)


class GoddagBuilder:
    """Constructs a :class:`GoddagDocument` from events or annotations.

    Two input styles, freely mixable across hierarchies:

    * **event style** (used by parsers): :meth:`start_element`,
      :meth:`end_element`, :meth:`empty_element` with character offsets;
      source nesting is preserved exactly;
    * **annotation style** (used by standoff import, generators, tests):
      :meth:`add_annotation` with ``(tag, start, end)``; nesting is derived
      from spans using the placement conventions of this module.

    Every input method accepts an optional explicit ``ordinal`` — the
    persistent-identity path used by :func:`repro.storage.schema.decode_document`
    so that reconstruction preserves the birth ordinals the elements were
    stored under.  Elements without one draw fresh ordinals *above* the
    largest explicit ordinal, so loaded identity and new identity never
    collide (``_next_ordinal`` resumes past the loaded maximum).
    """

    def __init__(self, text: str, root_tag: str = "r") -> None:
        self._text = text
        self._root_tag = root_tag
        self._hierarchy_names: list[str] = []
        self._hierarchy_dtds: dict[str, object] = {}
        # Event style state, per hierarchy.
        self._stacks: dict[str, list[_OpenElement]] = {}
        self._toplevel: dict[str, list[_OpenElement]] = {}
        # Annotation style state, per hierarchy.
        self._annotations: dict[str, list[tuple[str, int, int, dict[str, str], int]]] = {}
        self._seq = 0

    @property
    def text(self) -> str:
        return self._text

    def add_hierarchy(self, name: str, dtd=None) -> None:
        """Declare a hierarchy (order of declaration fixes rank)."""
        if name in self._stacks:
            raise HierarchyError(f"duplicate hierarchy {name!r}")
        self._hierarchy_names.append(name)
        self._hierarchy_dtds[name] = dtd
        self._stacks[name] = []
        self._toplevel[name] = []
        self._annotations[name] = []

    def _check_hierarchy(self, name: str) -> None:
        if name not in self._stacks:
            raise HierarchyError(f"unknown hierarchy {name!r}")

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    @staticmethod
    def _check_ordinal(ordinal: int | None) -> int | None:
        if ordinal is not None and ordinal < 1:
            raise MarkupConflictError(
                f"explicit element ordinal must be >= 1 (0 is the shared "
                f"root), got {ordinal}"
            )
        return ordinal

    # -- event style --------------------------------------------------------------

    def start_element(
        self, hierarchy: str, tag: str, offset: int,
        attributes: Mapping[str, str] | None = None,
        ordinal: int | None = None,
    ) -> None:
        """Open ``<tag>`` at character position ``offset``.

        ``ordinal`` fixes the element's persistent identity explicitly
        (storage reconstruction); omitted, a fresh one is assigned.
        """
        self._check_hierarchy(hierarchy)
        record = _OpenElement(tag, offset, dict(attributes or {}),
                              self._next_seq(), self._check_ordinal(ordinal))
        stack = self._stacks[hierarchy]
        if stack:
            stack[-1].children.append(record)
        else:
            self._toplevel[hierarchy].append(record)
        stack.append(record)

    def end_element(self, hierarchy: str, tag: str, offset: int) -> None:
        """Close the innermost open element, which must be ``tag``."""
        self._check_hierarchy(hierarchy)
        stack = self._stacks[hierarchy]
        if not stack:
            raise MarkupConflictError(
                f"end tag </{tag}> with no open element in {hierarchy!r}",
                hierarchy=hierarchy, tag=tag,
            )
        record = stack.pop()
        if record.tag != tag:
            raise MarkupConflictError(
                f"end tag </{tag}> does not match open <{record.tag}> "
                f"in {hierarchy!r}",
                hierarchy=hierarchy, tag=tag,
            )
        if offset < record.start:
            raise SpanError(
                f"element <{tag}> ends at {offset} before it starts "
                f"at {record.start}"
            )
        record.end = offset

    def empty_element(
        self, hierarchy: str, tag: str, offset: int,
        attributes: Mapping[str, str] | None = None,
        ordinal: int | None = None,
    ) -> None:
        """Record a zero-width element at ``offset`` (source nesting kept)."""
        self._check_hierarchy(hierarchy)
        record = _OpenElement(tag, offset, dict(attributes or {}),
                              self._next_seq(), self._check_ordinal(ordinal))
        record.end = offset
        stack = self._stacks[hierarchy]
        if stack:
            stack[-1].children.append(record)
        else:
            self._toplevel[hierarchy].append(record)

    # -- annotation style ------------------------------------------------------------

    def add_annotation(
        self, hierarchy: str, tag: str, start: int, end: int,
        attributes: Mapping[str, str] | None = None,
        ordinal: int | None = None,
    ) -> None:
        """Record markup by offsets; nesting is derived at :meth:`build`."""
        self._check_hierarchy(hierarchy)
        if start < 0 or end > len(self._text) or start > end:
            raise SpanError(
                f"annotation [{start},{end}) outside document of length "
                f"{len(self._text)}"
            )
        self._annotations[hierarchy].append(
            (tag, start, end, dict(attributes or {}), self._next_seq(),
             self._check_ordinal(ordinal))
        )

    # -- construction ------------------------------------------------------------------

    def _nest_annotations(self, hierarchy: str) -> None:
        """Convert the annotation bag into nested ``_OpenElement`` records."""
        annotations = self._annotations[hierarchy]
        if not annotations:
            return
        annotations.sort(key=lambda a: (a[1], -a[2], a[4]))
        top = self._toplevel[hierarchy]
        stack: list[_OpenElement] = []
        for tag, start, end, attributes, seq, ordinal in annotations:
            record = _OpenElement(tag, start, attributes, seq, ordinal)
            record.end = end
            while stack:
                open_span = Span(stack[-1].start, stack[-1].end)
                target = Span(start, end)
                if start == end:
                    contains = stack[-1].start <= start < stack[-1].end
                else:
                    contains = open_span.contains(target)
                if contains:
                    break
                if open_span.overlaps(target):
                    raise MarkupConflictError(
                        f"<{tag}> [{start},{end}) overlaps "
                        f"<{stack[-1].tag}> [{stack[-1].start},{stack[-1].end}) "
                        f"in hierarchy {hierarchy!r}",
                        hierarchy=hierarchy, tag=tag, start=start, end=end,
                    )
                stack.pop()
            if stack:
                stack[-1].children.append(record)
            else:
                top.append(record)
            if start < end:
                stack.append(record)
        self._annotations[hierarchy] = []

    def build(self, check: bool = True) -> GoddagDocument:
        """Materialize the document; ``check`` runs the invariant suite."""
        for name in self._hierarchy_names:
            if self._stacks[name]:
                open_tags = ", ".join(r.tag for r in self._stacks[name])
                raise MarkupConflictError(
                    f"unclosed elements in hierarchy {name!r}: {open_tags}"
                )
            self._nest_annotations(name)

        document = GoddagDocument(self._text, self._root_tag)
        # The identity contract: explicit ordinals (reconstruction) are
        # preserved verbatim, and the fresh-ordinal counter starts past
        # their maximum so mixed input — and every element created by a
        # later editing session — can never collide with a loaded id.
        document._ordinal = max(
            (record.ordinal
             for name in self._hierarchy_names
             for record in _walk_open_elements(self._toplevel[name])
             if record.ordinal is not None),
            default=0,
        )
        boundaries: set[int] = set()
        for name in self._hierarchy_names:
            hierarchy = document.add_hierarchy(name, dtd=self._hierarchy_dtds[name])
            top_elements: list[Element] = []
            for record in sorted(
                self._toplevel[name],
                key=lambda r: (r.start, 0 if r.start == r.end else 1, -r.end, r.seq),
            ):
                top_elements.append(
                    self._materialize(document, hierarchy, record, None, boundaries)
                )
            document._h_top[name] = top_elements
        document.spans.add_boundaries(boundaries)
        document.touch()
        if check:
            problems = document.check_invariants()
            if problems:
                raise MarkupConflictError(
                    "built document violates invariants: " + "; ".join(problems)
                )
        return document

    def _materialize(
        self,
        document: GoddagDocument,
        hierarchy: Hierarchy,
        record: _OpenElement,
        parent: Element | None,
        boundaries: set[int],
    ) -> Element:
        element = Element(
            document,
            hierarchy.name,
            record.tag,
            record.start,
            record.end,
            record.attributes,
            record.ordinal if record.ordinal is not None
            else document._next_ordinal(),
        )
        element._parent = parent
        boundaries.add(record.start)
        boundaries.add(record.end)
        hierarchy.observe_tag(record.tag)
        document._h_all[hierarchy.name].append(element)
        children = sorted(
            record.children,
            key=lambda r: (r.start, 0 if r.start == r.end else 1, -r.end, r.seq),
        )
        element._children = [
            self._materialize(document, hierarchy, child, element, boundaries)
            for child in children
        ]
        return element
