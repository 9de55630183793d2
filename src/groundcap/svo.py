"""Subject-Verb-Object extraction from frame-level captions.

Frame captions are short declarative sentences, so a deterministic
lexicon-plus-suffix tagger and shallow pattern matching are enough to pull
out the relations the caption-aggregation prompt needs; no statistical
tagger or dependency parser is involved, which keeps runs reproducible.
The extracted relations render to the bracketed, backtick-quoted block
format the aggregation prompt expects.
"""

from __future__ import annotations

import importlib.resources
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .records import SvoFrame, SvoRelation

POS_TAGS = frozenset({"NOUN", "PROPN", "VERB", "AUX", "ADP", "DET", "ADJ", "PRON", "OTHER"})

_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z'\-]*|\d+(?:\.\d+)?|[^\sA-Za-z\d]")
_SENTENCE_BREAKS = {".", "!", "?", ";"}


@dataclass(frozen=True)
class TaggedToken:
    """A surface token with its coarse part-of-speech tag."""

    text: str
    pos: str

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError("token text must be non-empty")
        if self.pos not in POS_TAGS:
            raise ValueError(f"unknown POS tag {self.pos!r}")


class LexiconTagger:
    """Deterministic tagger: lexicon lookup, suffix fallbacks, context repair.

    The lexicon maps lowercase tokens to tags (see ``data/lexicon.tsv``, one
    ``token<TAB>POS`` per line).  Unknown tokens fall back to suffix rules
    and finally to NOUN, which is the right default for caption objects.
    """

    def __init__(self, lexicon: Mapping[str, str]):
        for token, pos in lexicon.items():
            if pos not in POS_TAGS:
                raise ValueError(f"lexicon entry {token!r} has unknown tag {pos!r}")
        self._lexicon = dict(lexicon)

    def tag(self, sentence: str) -> list[TaggedToken]:
        raw_tokens = _TOKEN_RE.findall(sentence)
        tagged = [
            TaggedToken(text, self._lookup(text, position))
            for position, text in enumerate(raw_tokens)
        ]
        return self._repair(tagged)

    def _lookup(self, text: str, position: int) -> str:
        lowered = text.lower()
        if lowered in self._lexicon:
            return self._lexicon[lowered]
        if not text[0].isalpha():
            return "OTHER"
        if position > 0 and text[0].isupper():
            return "PROPN"
        if lowered.endswith("ing") and len(lowered) > 4:
            return "VERB"
        if lowered.endswith("ed") and len(lowered) > 3:
            return "VERB"
        if lowered.endswith("ly") and len(lowered) > 3:
            return "OTHER"
        if lowered.endswith("s") and not lowered.endswith("ss"):
            base = self._strip_plural(lowered)
            if base is not None:
                return self._lexicon[base]
        return "NOUN"

    def _strip_plural(self, lowered: str) -> str | None:
        for candidate in (lowered[:-1], lowered[:-2], lowered[:-3] + "y"):
            if candidate and candidate in self._lexicon:
                return candidate
        return None

    @staticmethod
    def _repair(tokens: list[TaggedToken]) -> list[TaggedToken]:
        repaired = list(tokens)
        for i, token in enumerate(repaired):
            prev_pos = repaired[i - 1].pos if i > 0 else None
            next_pos = repaired[i + 1].pos if i + 1 < len(repaired) else None
            # "a cutting board": verb reading between a determiner and a noun
            # is a compound modifier.
            if token.pos == "VERB" and prev_pos in ("DET", "ADJ") and next_pos in ("NOUN", "PROPN"):
                repaired[i] = TaggedToken(token.text, "NOUN")
            # "is painting": noun reading of an -ing form after an auxiliary
            # is a progressive verb.
            elif token.pos == "NOUN" and prev_pos == "AUX" and token.text.lower().endswith("ing"):
                repaired[i] = TaggedToken(token.text, "VERB")
        return repaired


@lru_cache(maxsize=1)
def default_tagger() -> LexiconTagger:
    """The tagger backed by the shipped lexicon."""
    lexicon: dict[str, str] = {}
    text = importlib.resources.files("groundcap.data").joinpath("lexicon.tsv").read_text("utf-8")
    for line in text.splitlines():
        if line:
            token, pos = line.split("\t")
            lexicon[token.lower()] = pos
    return LexiconTagger(lexicon)


def pos_tag(sentence: str, tagger: LexiconTagger | None = None) -> list[TaggedToken]:
    """Tag one caption sentence; empty input gives an empty list."""
    if not sentence.strip():
        return []
    return (tagger or default_tagger()).tag(sentence)


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
        noun_runs = _noun_runs(sentence)
        verb_groups = _verb_groups(sentence)
        if not verb_groups or not noun_runs:
            continue
        for g, (group_start, group_end, verb_text) in enumerate(verb_groups):
            subject = next(
                (head for start, end, head in noun_runs if end <= group_start), None
            )
            if subject is None:
                continue
            window_end = verb_groups[g + 1][0] if g + 1 < len(verb_groups) else len(sentence)
            obj, adpositions = _scan_window(sentence, noun_runs, group_end, window_end)
            relations.append(SvoRelation(subject, verb_text, obj, tuple(adpositions)))
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


def _noun_runs(sentence: Sequence[TaggedToken]) -> list[tuple[int, int, str]]:
    """Maximal NOUN/PROPN runs as (start, end, joined head text)."""
    runs = []
    i = 0
    while i < len(sentence):
        if sentence[i].pos in ("NOUN", "PROPN"):
            j = i
            while j < len(sentence) and sentence[j].pos in ("NOUN", "PROPN"):
                j += 1
            runs.append((i, j, " ".join(t.text for t in sentence[i:j])))
            i = j
        else:
            i += 1
    return runs


def _verb_groups(sentence: Sequence[TaggedToken]) -> list[tuple[int, int, str]]:
    """Maximal AUX/VERB runs as (start, end, verb text).

    The verb is the last full VERB in the run; a run of bare auxiliaries
    keeps the copula itself ("the spoon is in the bowl" -> "is").
    """
    groups = []
    i = 0
    while i < len(sentence):
        if sentence[i].pos in ("AUX", "VERB"):
            j = i
            while j < len(sentence) and sentence[j].pos in ("AUX", "VERB"):
                j += 1
            verbs = [t.text for t in sentence[i:j] if t.pos == "VERB"]
            text = verbs[-1] if verbs else sentence[i].text
            groups.append((i, j, text))
            i = j
        else:
            i += 1
    return groups


def _scan_window(
    sentence: Sequence[TaggedToken],
    noun_runs: list[tuple[int, int, str]],
    start: int,
    end: int,
) -> tuple[str | None, list[tuple[str, str]]]:
    run_by_start = {s: (e, head) for s, e, head in noun_runs}
    obj: str | None = None
    adpositions: list[tuple[str, str]] = []
    pending_adp: str | None = None
    i = start
    while i < end:
        token = sentence[i]
        if token.pos == "ADP":
            pending_adp = token.text
            i += 1
        elif i in run_by_start:
            run_end, head = run_by_start[i]
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
    return obj, adpositions


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
