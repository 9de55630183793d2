"""Subject-Verb-Object extraction from frame-level captions.

Frame captions are short declarative sentences, so a deterministic
lexicon-plus-suffix tagger and shallow pattern matching are enough to pull
out the relations the caption-aggregation prompt needs; no statistical
tagger or dependency parser is involved, which keeps runs reproducible.
The shipped lexicon (``data/lexicon.tsv``) is read and its tags checked
once, on first use; every tag the tagger gives comes from it or from a
literal here, so tokens are not checked again.  The extracted relations
render to the bracketed, backtick-quoted block format the aggregation
prompt expects.
"""

from __future__ import annotations

import importlib.resources
import re
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from .records import SvoFrame, SvoRelation

POS_TAGS = frozenset({"NOUN", "PROPN", "VERB", "AUX", "ADP", "DET", "ADJ", "PRON", "OTHER"})

_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z'\-]*|\d+(?:\.\d+)?|[^\sA-Za-z\d]")
_SENTENCE_BREAKS = {".", "!", "?", ";"}
_NOUN_TAGS = ("NOUN", "PROPN")
_VERB_TAGS = ("AUX", "VERB")


class TaggedToken(NamedTuple):
    """A surface token with its coarse part-of-speech tag."""

    text: str
    pos: str


@lru_cache(maxsize=1)
def _lexicon() -> dict[str, str]:
    """The shipped lexicon, lowercase token -> tag (one ``token<TAB>POS`` per line)."""
    lexicon: dict[str, str] = {}
    text = importlib.resources.files("groundcap.data").joinpath("lexicon.tsv").read_text("utf-8")
    for line in text.splitlines():
        if line:
            token, pos = line.split("\t")
            if pos not in POS_TAGS:
                raise ValueError(f"lexicon entry {token!r} has unknown tag {pos!r}")
            lexicon[token.lower()] = pos
    return lexicon


def pos_tag(sentence: str) -> list[TaggedToken]:
    """Tag one caption sentence; empty input gives an empty list.

    Each token is looked up in the lexicon, then falls back to suffix rules
    and finally to NOUN, the right default for caption objects; a
    left-to-right pass over the tags then repairs two context errors.
    """
    lexicon = _lexicon()
    texts = _TOKEN_RE.findall(sentence)
    tags = [lexicon.get(text.lower()) or _lookup(lexicon, text, i) for i, text in enumerate(texts)]
    for i in range(1, len(tags)):
        pos, prev_pos = tags[i], tags[i - 1]
        # "a cutting board": verb reading between a determiner and a noun
        # is a compound modifier.
        if pos == "VERB":
            if prev_pos in ("DET", "ADJ") and i + 1 < len(tags) and tags[i + 1] in _NOUN_TAGS:
                tags[i] = "NOUN"
        # "is painting": noun reading of an -ing form after an auxiliary
        # is a progressive verb.
        elif pos == "NOUN" and prev_pos == "AUX" and texts[i].lower().endswith("ing"):
            tags[i] = "VERB"
    return list(map(TaggedToken, texts, tags))


def _lookup(lexicon: dict[str, str], text: str, position: int) -> str:
    """The tag of a token that ``lexicon`` lacks, at ``position`` in its sentence."""
    if not text[0].isalpha():
        return "OTHER"
    lowered = text.lower()
    if position > 0 and text[0].isupper():
        return "PROPN"
    if lowered.endswith("ing") and len(lowered) > 4:
        return "VERB"
    if lowered.endswith("ed") and len(lowered) > 3:
        return "VERB"
    if lowered.endswith("ly") and len(lowered) > 3:
        return "OTHER"
    if lowered.endswith("s") and not lowered.endswith("ss"):
        # the plural's singular: drop "s", "es", or "ies" -> "y"
        for base in (lowered[:-1], lowered[:-2], lowered[:-3] + "y"):
            if base and base in lexicon:
                return lexicon[base]
    return "NOUN"


def extract_svo(tokens: Sequence[TaggedToken], frame_index: int) -> SvoFrame:
    """Build the frame's relations by shallow pattern matching.

    Within each sentence, every AUX/VERB run yields one relation: the
    sentence's first noun-phrase head is the subject, the first bare noun
    phrase after the verb is the object, and each adposition captures the
    noun phrase that follows it.  A sentence with no verb, or a verb with no
    preceding noun phrase, yields nothing rather than an error.
    """
    relations: list[SvoRelation] = []
    for sentence in _split_sentences(tokens):
        noun_runs = _runs(sentence, _NOUN_TAGS)
        if not noun_runs:
            continue
        # noun-phrase start -> (end, head text)
        heads = {s: (e, " ".join(t.text for t in sentence[s:e])) for s, e in noun_runs}
        subject_start = noun_runs[0][0]
        verb_groups = _runs(sentence, _VERB_TAGS)
        window_ends = [start for start, _ in verb_groups[1:]] + [len(sentence)]
        for (start, end), window_end in zip(verb_groups, window_ends):
            if subject_start > start:
                continue
            # the last full verb; a run of bare auxiliaries keeps the copula
            # itself ("the spoon is in the bowl" -> "is")
            verbs = [t.text for t in sentence[start:end] if t.pos == "VERB"]
            verb = verbs[-1] if verbs else sentence[start].text
            obj, adpositions = _scan_window(sentence, heads, end, window_end)
            relations.append(SvoRelation(heads[subject_start][1], verb, obj, adpositions))
    return SvoFrame(frame_index, tuple(relations))


def _split_sentences(tokens: Sequence[TaggedToken]) -> list[list[TaggedToken]]:
    sentences: list[list[TaggedToken]] = []
    current: list[TaggedToken] = []
    for token in tokens:
        if token.pos == "OTHER" and token.text in _SENTENCE_BREAKS:
            if current:
                sentences.append(current)
                current = []
        else:
            current.append(token)
    if current:
        sentences.append(current)
    return sentences


def _runs(sentence: Sequence[TaggedToken], tags: tuple[str, ...]) -> list[tuple[int, int]]:
    """Maximal runs of tokens tagged one of ``tags``, as (start, end)."""
    runs = []
    start = None
    for i, token in enumerate(sentence):
        if token.pos in tags:
            if start is None:
                start = i
        elif start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, len(sentence)))
    return runs


def _scan_window(
    sentence: Sequence[TaggedToken],
    heads: dict[int, tuple[int, str]],
    start: int,
    end: int,
) -> tuple[str | None, tuple[tuple[str, str], ...]]:
    obj: str | None = None
    adpositions: list[tuple[str, str]] = []
    pending_adp: str | None = None
    i = start
    while i < end:
        token = sentence[i]
        if token.pos == "ADP":
            pending_adp = token.text
            i += 1
        elif i in heads:
            run_end, head = heads[i]
            if pending_adp is not None:
                adpositions.append((pending_adp, head))
                pending_adp = None
            elif obj is None:
                obj = head
            i = run_end
        elif token.pos in ("DET", "ADJ"):
            i += 1
        else:
            pending_adp = None
            i += 1
    return obj, tuple(adpositions)


def _render_relation(relation: SvoRelation) -> str:
    parts = [f"`{relation.subject}'", f"`{relation.verb}'"]
    if relation.object is not None:
        parts.append(f"`{relation.object}'")
    for adposition, obj in relation.adpositions:
        parts.append(f"(`{adposition}', `{obj}')")
    return "[" + ", ".join(parts) + "]"


def render_svo_block(frames: Iterable[SvoFrame]) -> str:
    """Render frames in the prompt's bracketed, backtick-quoted layout.

    One ``[...]`` list of relations per frame, frames joined by ``",\\n"``;
    an empty frame list renders as ``"[]"``.
    """
    ordered = sorted(frames, key=lambda f: f.frame_index)
    if not ordered:
        return "[]"
    return ",\n".join(
        "[" + ", ".join(_render_relation(r) for r in frame.relations) + "]" for frame in ordered
    )
