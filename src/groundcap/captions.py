"""Captions with inline ``<p></p>`` phrase tags.

A tagged caption like ``"<p>A person</p> is stirring <p>food in a bowl</p>"``
is stored as the plain text plus character-offset spans for each tagged
phrase, so rendering the tags back and re-parsing is the identity.  Offsets
are characters on the plain string, which keeps round-tripping independent
of any tokenizer.
"""

from __future__ import annotations

import re
from typing import NamedTuple

OPEN_TAG = "<p>"
CLOSE_TAG = "</p>"

_TAG_RE = re.compile(r"</?p>")


class MalformedCaptionError(ValueError):
    """Raised when ``<p></p>`` tags are unbalanced, nested, or empty."""


class PhraseSpan(NamedTuple):
    """One tagged phrase: verbatim text plus [start, end) offsets in the plain caption."""

    text: str
    char_start: int
    char_end: int


class _CaptionFields(NamedTuple):
    plain: str
    phrases: tuple[PhraseSpan, ...] = ()


class TaggedCaption(_CaptionFields):
    """Caption text with its ordered, non-overlapping phrase spans."""

    __slots__ = ()

    def __new__(cls, plain, phrases=()):
        phrases = tuple(phrases)
        if _TAG_RE.search(plain):
            raise MalformedCaptionError("plain caption text must not contain <p> or </p> literals")
        prev_end = 0
        for span in phrases:
            if not (0 <= span.char_start < span.char_end <= len(plain)):
                raise MalformedCaptionError(
                    f"phrase span [{span.char_start}, {span.char_end}) outside caption of length {len(plain)}"
                )
            if span.char_start < prev_end:
                raise MalformedCaptionError("phrase spans overlap or are out of order")
            if plain[span.char_start : span.char_end] != span.text:
                raise MalformedCaptionError(
                    f"phrase text {span.text!r} does not match caption slice "
                    f"{plain[span.char_start:span.char_end]!r}"
                )
            prev_end = span.char_end
        return tuple.__new__(cls, (plain, phrases))

    @property
    def phrase_texts(self) -> list[str]:
        return [span.text for span in self.phrases]


def parse_tagged_caption(text_with_tags: str) -> TaggedCaption:
    """Parse one caption string, splitting out the ``<p></p>``-tagged phrases.

    Raises:
        MalformedCaptionError: on unbalanced, nested, or empty tag pairs.
    """
    plain_parts: list[str] = []
    phrases: list[PhraseSpan] = []
    plain_len = 0
    open_start: int | None = None  # plain offset where the open tag began
    pos = 0
    for match in _TAG_RE.finditer(text_with_tags):
        chunk = text_with_tags[pos : match.start()]
        plain_parts.append(chunk)
        plain_len += len(chunk)
        if match.group() == OPEN_TAG:
            if open_start is not None:
                raise MalformedCaptionError(f"nested <p> tag at character {match.start()}")
            open_start = plain_len
        else:
            if open_start is None:
                raise MalformedCaptionError(f"</p> without matching <p> at character {match.start()}")
            if plain_len == open_start:
                raise MalformedCaptionError(f"empty <p></p> pair at character {match.start()}")
            phrases.append(PhraseSpan(chunk, open_start, plain_len))
            open_start = None
        pos = match.end()
    if open_start is not None:
        raise MalformedCaptionError("unclosed <p> tag at end of caption")
    tail = text_with_tags[pos:]
    plain_parts.append(tail)
    return TaggedCaption("".join(plain_parts), tuple(phrases))


def render_tagged_caption(caption: TaggedCaption) -> str:
    """Re-insert ``<p></p>`` tags; inverse of :func:`parse_tagged_caption`."""
    parts: list[str] = []
    cursor = 0
    for span in caption.phrases:
        parts.append(caption.plain[cursor : span.char_start])
        parts.append(OPEN_TAG)
        parts.append(caption.plain[span.char_start : span.char_end])
        parts.append(CLOSE_TAG)
        cursor = span.char_end
    parts.append(caption.plain[cursor:])
    return "".join(parts)
