"""Seeded synthetic manuscripts, emitted as distributed XML sources.

The benchmark owns its inputs: the library only ever receives the XML
strings made here (one well-formed document per hierarchy, all over the
same text), so a change to the library cannot change what is measured.

Every structural knob of a manuscript (words, hierarchies, overlap
density) is fixed by the caller; the seed only chooses the words and
where the annotation ranges fall.  Two seeds therefore give inputs of
the same size and shape, which is what keeps the metrics comparable
from seed to seed.
"""

from __future__ import annotations

import random

ROOT = "ms"

#: Every hierarchy a manuscript can have; callers pick them by name.
ROSTER = ("physical", "linguistic", "verse", "editorial", "analysis",
          "revision")

#: Range tags of the annotation hierarchies.
RANGE_TAGS = {
    "editorial": ("dmg", "res"),
    "analysis": ("name", "quote"),
    "revision": ("add", "del"),
}

_SYLLABLES = (
    "hwa", "et", "gar", "den", "geard", "thaet", "cyn", "ing", "thrym",
    "ge", "fru", "non", "hu", "tha", "aeth", "el", "as", "len", "fre",
    "med", "on", "sw", "ylc", "boc", "raed", "an", "wis",
)

WORDS_PER_LINE = 8
LINES_PER_PAGE = 20
WORDS_PER_SENTENCE = 12
WORDS_PER_VLINE = 5
ANNOTATION_EVERY = 25
ANNOTATION_SPAN = 6


def _attrs(attributes: dict[str, str] | None) -> str:
    if not attributes:
        return ""
    return "".join(f' {k}="{v}"' for k, v in attributes.items())


def _serialize(words: list[str], elements) -> str:
    """One hierarchy as XML.  ``elements`` are ``(first_word, last_word,
    tag, attributes)`` in document order (parents before their
    children); a ``last_word`` of ``None`` marks a milestone placed
    before ``first_word``.  Words are separated by single spaces that
    belong to the innermost element covering both neighbours."""
    opens: dict[int, list[str]] = {}
    closes: dict[int, list[str]] = {}
    for first, last, tag, attributes in elements:
        if last is None:
            opens.setdefault(first, []).append(f"<{tag}{_attrs(attributes)}/>")
            continue
        opens.setdefault(first, []).append(f"<{tag}{_attrs(attributes)}>")
        closes.setdefault(last, []).insert(0, f"</{tag}>")
    parts = [f"<{ROOT}>"]
    for index, word in enumerate(words):
        if index:
            parts.append(" ")
        parts.extend(opens.get(index, ()))
        parts.append(word)
        parts.extend(closes.get(index, ()))
    parts.append(f"</{ROOT}>")
    return "".join(parts)


def _physical(total: int):
    per_page = WORDS_PER_LINE * LINES_PER_PAGE
    for page, page_start in enumerate(range(0, total, per_page), 1):
        page_end = min(page_start + per_page, total) - 1
        yield page_start, page_end, "page", {"n": str(page)}
        yield page_start, None, "pb", None
        for line, line_start in enumerate(
            range(page_start, page_end + 1, WORDS_PER_LINE), 1
        ):
            line_end = min(line_start + WORDS_PER_LINE, page_end + 1) - 1
            yield line_start, line_end, "line", {"n": str(line)}


def _linguistic(total: int):
    for start in range(0, total, WORDS_PER_SENTENCE):
        end = min(start + WORDS_PER_SENTENCE, total) - 1
        yield start, end, "s", None
        for index in range(start, end + 1):
            yield index, index, "w", None


def _verse(total: int):
    for number, start in enumerate(range(0, total, WORDS_PER_VLINE), 1):
        yield start, min(start + WORDS_PER_VLINE, total) - 1, "vline", \
            {"n": str(number)}


def _ranges(total: int, density: float, tags, rng: random.Random):
    """Non-overlapping ranges; with probability ``density`` a range is
    placed across the next physical line boundary, otherwise it stays
    inside one line."""
    cursor = rng.randint(0, ANNOTATION_EVERY)
    while cursor < total:
        length = max(1, min(rng.randint(1, 2 * ANNOTATION_SPAN),
                            total - cursor))
        first, last = cursor, cursor + length - 1
        if rng.random() < density:
            boundary = (first // WORDS_PER_LINE + 1) * WORDS_PER_LINE
            if boundary < total:
                first = max(first, boundary - max(1, length // 2))
                last = min(total - 1, boundary + max(1, length // 2))
        else:
            line_end = (first // WORDS_PER_LINE + 1) * WORDS_PER_LINE - 1
            last = min(last, line_end, total - 1)
        yield first, last, rng.choice(tags), None
        cursor = last + 1 + rng.randint(1, ANNOTATION_EVERY)


def manuscript(words: int, hierarchies, density: float,
               seed: int) -> dict[str, str]:
    """Distributed sources ``{hierarchy: xml}`` of one manuscript.

    ``hierarchies`` names the parts, each from :data:`ROSTER`."""
    rng = random.Random(seed)
    text = ["".join(rng.choice(_SYLLABLES)
                    for _ in range(rng.randint(1, 3)))
            for _ in range(words)]
    sources = {}
    for name in hierarchies:
        if name == "physical":
            elements = _physical(words)
        elif name == "linguistic":
            elements = _linguistic(words)
        elif name == "verse":
            elements = _verse(words)
        else:
            elements = _ranges(words, density, RANGE_TAGS[name], rng)
        sources[name] = _serialize(text, list(elements))
    return sources


def source_bytes(sources: dict[str, str]) -> int:
    return sum(len(xml.encode("utf-8")) for xml in sources.values())
