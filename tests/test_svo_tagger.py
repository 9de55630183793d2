"""Properties of the SVO tagger over random captions, and its lexicon check."""

import pytest
from hypothesis import given, settings, strategies as st

from groundcap import extract_svo, pos_tag, render_svo_block
from groundcap import svo
from oracles import parse_svo_block, reference_pos_tag

LETTERS = "abcdefghijklmnopqrstuvwxyz"
SUFFIXES = ["ing", "ed", "ly", "s", "es", "ies"]  # each one a rule of the tagger's
BY_TAG: dict[str, list[str]] = {}  # lexicon words of each tag, so that rare tags come up too
for word, tag in sorted(svo._lexicon().items()):
    BY_TAG.setdefault(tag, []).append(word)

stems = st.text(LETTERS, min_size=1, max_size=8)
WORDS = {
    "lexicon": st.sampled_from(sorted(BY_TAG)).flatmap(lambda tag: st.sampled_from(BY_TAG[tag])),
    "suffixed": st.builds(str.__add__, stems, st.sampled_from(SUFFIXES)),
    "capitalised": st.builds(str.__add__, st.sampled_from(LETTERS.upper()), stems),
    "number": st.integers(0, 999).map(str),
    "break": st.sampled_from([".", "!", "?", ";", ","]),
}
# mostly lexicon words, so that captions hold verbs, objects and adpositions
words = st.sampled_from(["lexicon"] * 6 + sorted(WORDS)).flatmap(WORDS.__getitem__)
captions = st.lists(st.lists(words, max_size=20).map(" ".join), max_size=4)


@settings(max_examples=300, deadline=None)
@given(captions)
def test_random_captions_tag_extract_and_render(captions):
    frames = []
    for index, caption in enumerate(captions):
        tokens = pos_tag(caption)
        assert all(token.pos in svo.POS_TAGS for token in tokens)
        frame = extract_svo(tokens, index)
        for relation in frame.relations:
            assert relation.subject and relation.verb
        frames.append(frame)
    expected = [
        [
            {
                "subject": r.subject,
                "verb": r.verb,
                "object": r.object,
                "adpositions": list(r.adpositions),
            }
            for r in frame.relations
        ]
        for frame in frames
    ]
    if expected == [[]]:  # one frame without relations renders as "[]", as no frames do
        expected = []
    assert parse_svo_block(render_svo_block(frames)) == expected


def pair(first: list[str], second: list[str]):
    return st.builds("{} {}".format, st.sampled_from(first), st.sampled_from(second))


# every rule of the lookup and both repairs: lexicon words and their plurals, unknown
# words capitalised at the start or later, suffixed forms, digits and punctuation, and
# the pairs each repair looks for, in any order and spacing
TAGGER_WORDS = {
    **WORDS,
    "plural": st.builds(
        str.__add__, st.sampled_from(BY_TAG["NOUN"] + BY_TAG["ADJ"]), st.sampled_from(["s", "es"])
    ),
    "modifier verb": pair(BY_TAG["DET"] + BY_TAG["ADJ"], BY_TAG["VERB"]),
    "aux -ing": pair(BY_TAG["AUX"], [w for w in BY_TAG["NOUN"] if w.endswith("ing")] + ["xing"]),
    "decimal": st.builds("{}.{}".format, st.integers(0, 99), st.integers(0, 99)),
    "punctuation": st.sampled_from(list("'-()\",:/&")),
}
cases = st.sampled_from([str] * 4 + [str.capitalize, str.upper])
sentences = st.lists(
    st.tuples(
        st.sampled_from(sorted(TAGGER_WORDS)).flatmap(TAGGER_WORDS.__getitem__),
        cases,
        st.sampled_from([" ", "", "  ", "\t"]),
    ),
    max_size=24,
).map(lambda words: "".join(case(word) + gap for word, case, gap in words))


@settings(max_examples=400, deadline=None)
@given(sentences)
def test_tagger_equals_the_former_token_by_token_tagger(sentence):
    tokens = pos_tag(sentence)
    assert tokens == reference_pos_tag(sentence)
    assert all(type(token) is svo.TaggedToken for token in tokens)


@pytest.fixture
def lexicon_file(tmp_path, monkeypatch):
    """A lexicon file that the tagger loads in place of the shipped one."""
    monkeypatch.setattr(svo.importlib.resources, "files", lambda package: tmp_path)
    svo._lexicon.cache_clear()
    yield tmp_path / "lexicon.tsv"
    svo._lexicon.cache_clear()


def test_lexicon_entry_with_unknown_tag_is_refused(lexicon_file):
    lexicon_file.write_text("a\tDET\nzorp\tVERBISH\nbowl\tNOUN\n", "utf-8")
    with pytest.raises(ValueError) as excinfo:
        pos_tag("a bowl")
    assert str(excinfo.value) == "lexicon entry 'zorp' has unknown tag 'VERBISH'"


def test_lexicon_file_is_what_the_tagger_reads(lexicon_file):
    lexicon_file.write_text("a\tDET\nzorp\tVERB\nbowl\tNOUN\n", "utf-8")
    assert [t.pos for t in pos_tag("a bowl zorp")] == ["DET", "NOUN", "VERB"]
