import importlib.resources
import importlib.util
from pathlib import Path

import pytest

from groundcap import SvoFrame, SvoRelation, extract_svo, pos_tag, render_svo_block
from groundcap import prompts
from oracles import parse_svo_block


def tags(sentence: str) -> list[str]:
    return [t.pos for t in pos_tag(sentence)]


class TestPosTag:
    def test_shipped_lexicon_is_what_the_tool_writes(self, tmp_path, monkeypatch, capsys):
        tool_path = Path(__file__).resolve().parents[1] / "tools" / "build_lexicon.py"
        spec = importlib.util.spec_from_file_location("build_lexicon", tool_path)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        monkeypatch.setattr(tool, "OUT", tmp_path / "lexicon.tsv")
        tool.main()
        shipped = importlib.resources.files("groundcap.data").joinpath("lexicon.tsv")
        assert (tmp_path / "lexicon.tsv").read_bytes() == shipped.read_bytes()
        assert capsys.readouterr().out.startswith("wrote 3200 entries")

    def test_holding_a_spoon(self):
        assert tags("a person holding a spoon") == ["DET", "NOUN", "VERB", "DET", "NOUN"]

    def test_empty_sentence(self):
        assert pos_tag("") == []
        assert pos_tag("   ") == []

    def test_image_shows_a_cup(self):
        assert tags("the image shows a cup") == ["DET", "NOUN", "VERB", "DET", "NOUN"]

    def test_deterministic(self):
        sentence = "a woman in a red shirt is cutting an onion on a wooden board"
        assert pos_tag(sentence) == pos_tag(sentence)

    def test_compound_modifier_repair(self):
        assert tags("a cutting board") == ["DET", "NOUN", "NOUN"]

    def test_progressive_after_aux_repair(self):
        assert tags("a woman is painting") == ["DET", "NOUN", "AUX", "VERB"]

    def test_unknown_word_defaults(self):
        assert tags("a zweeble") == ["DET", "NOUN"]
        assert tags("zweebling quickly") == ["VERB", "OTHER"]
        assert tags("she zweebled") == ["PRON", "VERB"]
        # an unknown plural takes its singular's tag: of the three singulars each of these
        # could have, only "red", "other" and "heavy" are in the lexicon, and none as a noun
        assert tags("the reds") == ["DET", "ADJ"]
        assert tags("the others") == ["DET", "DET"]
        assert tags("the heavies") == ["DET", "ADJ"]


def relations(sentence: str, frame: int = 0):
    return extract_svo(pos_tag(sentence), frame).relations


class TestExtractSvo:
    def test_basic_triplet(self):
        assert relations("a person holding a spoon") == (
            SvoRelation("person", "holding", "spoon"),
        )

    def test_copular_location(self):
        assert relations("the spoon is in the bowl") == (
            SvoRelation("spoon", "is", None, (("in", "bowl"),)),
        )

    def test_no_noun_or_verb(self):
        assert relations("quickly and carefully") == ()

    def test_no_verb_keeps_frame_empty(self):
        assert relations("a red bowl") == ()

    def test_subject_is_first_noun_phrase(self):
        rels = relations("a woman using a craft cutter cuts a piece of paper")
        assert rels == (
            SvoRelation("woman", "using", "craft cutter"),
            SvoRelation("woman", "cuts", "piece", (("of", "paper"),)),
        )

    def test_multi_sentence_caption(self):
        rels = relations(
            "a person is seen holding a spoon. the spoon is used to stir food in a bowl."
        )
        assert rels == (
            SvoRelation("person", "holding", "spoon"),
            SvoRelation("spoon", "used"),
            SvoRelation("spoon", "stir", "food", (("in", "bowl"),)),
        )

    def test_never_empty_subject_or_verb(self):
        for sentence in (
            "holding a spoon",
            "the image shows a cup. also visible",
            "is placed on the counter",
        ):
            for relation in relations(sentence):
                assert relation.subject and relation.verb


class TestRenderSvoBlock:
    def test_single_relation(self):
        frame = SvoFrame(0, (SvoRelation("person", "holding", "spoon"),))
        assert render_svo_block([frame]) == "[[`person', `holding', `spoon']]"

    def test_empty_frames(self):
        assert render_svo_block([]) == "[]"

    def test_two_frames_comma_separated(self):
        frames = [
            SvoFrame(0, (SvoRelation("image", "shows", "cup"), SvoRelation("bowl", "is"))),
            SvoFrame(1, (SvoRelation("spoon", "is", None, (("in", "bowl"),)),)),
        ]
        assert render_svo_block(frames) == (
            "[[`image', `shows', `cup'], [`bowl', `is']],\n"
            "[[`spoon', `is', (`in', `bowl')]]"
        )

    def test_frames_sorted_by_index(self):
        frames = [
            SvoFrame(1, (SvoRelation("bowl", "is"),)),
            SvoFrame(0, (SvoRelation("image", "shows", "cup"),)),
        ]
        assert render_svo_block(frames).startswith("[[`image'")

    def test_rendered_block_reparses(self):
        frames = [
            SvoFrame(
                0,
                (
                    SvoRelation("person", "seen"),
                    SvoRelation("spoon", "stir", "food", (("in", "bowl"), ("on", "counter"))),
                ),
            ),
            SvoFrame(1, ()),
            SvoFrame(2, (SvoRelation("bottle", "positioned", None, (("beside", "cup"),)),)),
        ]
        parsed = parse_svo_block(render_svo_block(frames))
        assert parsed == [
            [
                {"subject": "person", "verb": "seen", "object": None, "adpositions": []},
                {
                    "subject": "spoon",
                    "verb": "stir",
                    "object": "food",
                    "adpositions": [("in", "bowl"), ("on", "counter")],
                },
            ],
            [],
            [
                {
                    "subject": "bottle",
                    "verb": "positioned",
                    "object": None,
                    "adpositions": [("beside", "cup")],
                }
            ],
        ]


def _rel(subject, verb, obj=None, adp=()):
    return SvoRelation(subject, verb, obj, tuple(adp))


# Hand-built relation structures for both in-context example blocks; the
# renderer must reproduce the prompt text byte for byte.
EXAMPLE_1_FRAMES = [
    SvoFrame(0, (_rel("image", "shows", "cup"), _rel("bowl", "is"))),
    SvoFrame(1, (_rel("person", "holding", "spoon"), _rel("spoon", "is", "bowl"))),
    SvoFrame(2, (_rel("image", "shows", "spoon", [("inside", "bowl")]),)),
    SvoFrame(
        3,
        (
            _rel("person", "seen"),
            _rel("person", "holding", "spoon"),
            _rel("spoon", "used"),
            _rel("spoon", "stir", "food", [("in", "bowl")]),
        ),
    ),
    SvoFrame(4, (_rel("person", "holding", "spoon"), _rel("spoon", "is", "bowl"))),
    SvoFrame(5, (_rel("person", "holding", "spoon"), _rel("spoon", "is", "bowl"))),
    SvoFrame(6, (_rel("person", "holding", "spoon"), _rel("spoon", "is", "bowl"))),
    SvoFrame(7, (_rel("image", "shows", "spoon", [("in", "bowl")]),)),
    SvoFrame(8, (_rel("image", "shows", "bottle"), _rel("bottle", "positioned", None, [("beside", "bowl")]))),
    SvoFrame(9, (_rel("image", "shows", "bottle"), _rel("bottle", "positioned", None, [("beside", "cup")]))),
    SvoFrame(
        10,
        (
            _rel("image", "shows", "bottle"),
            _rel("image", "placed", None, [("on", "counter")]),
            _rel("bottle", "positioned", None, [("beside", "bowl")]),
        ),
    ),
]

EXAMPLE_2_FRAMES = [
    SvoFrame(0, (_rel("hand", "using", "cutting board"),)),
    SvoFrame(1, (_rel("woman", "using", "cutting board"), _rel("woman", "make", "craft project"))),
    SvoFrame(2, (_rel("child", "using", "craft cutter"), _rel("child", "cut", "object"))),
    SvoFrame(3, (_rel("child", "using", "craft cutter"), _rel("child", "cut", "paper"))),
    SvoFrame(4, (_rel("woman", "using", "craft cutter"), _rel("woman", "cut", "object"))),
    SvoFrame(5, (_rel("woman", "using", "scissors pair"), _rel("woman", "cut", "piece", [("of", "paper")]))),
    SvoFrame(6, (_rel("hand", "using", "scissors pair"), _rel("hand", "cut", "piece", [("of", "paper")]))),
    SvoFrame(7, (_rel("woman", "using", "scissors pair"), _rel("woman", "cut", "piece", [("of", "paper")]))),
    SvoFrame(8, (_rel("woman", "using", "craft cutter"), _rel("woman", "cut", "object"))),
    SvoFrame(9, (_rel("woman", "using", "craft cutter"), _rel("woman", "cut", "plate"))),
]


@pytest.mark.parametrize(
    "frames, expected",
    [
        (EXAMPLE_1_FRAMES, prompts.AGGREGATION_EXAMPLE_INPUT_1),
        (EXAMPLE_2_FRAMES, prompts.AGGREGATION_EXAMPLE_INPUT_2),
    ],
    ids=["example-1", "example-2"],
)
def test_in_context_blocks_reproduced_byte_for_byte(frames, expected):
    assert render_svo_block(frames) == expected


def test_relation_and_frame_are_plain_named_tuples():
    assert SvoRelation._fields == ("subject", "verb", "object", "adpositions")
    assert SvoRelation._field_defaults == {"object": None, "adpositions": ()}
    assert SvoFrame._fields == ("frame_index", "relations")
    assert SvoFrame._field_defaults == {"relations": ()}
    assert SvoFrame(3) == (3, ())
