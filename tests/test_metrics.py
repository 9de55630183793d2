import dataclasses
import math
import random
import re

import pytest
from hypothesis import given, strategies as st

from groundcap import (
    BoundingBox,
    ObjectTrack,
    PipelineConfig,
    RecordValidationError,
    VideoAnnotation,
    cider,
    evaluate,
    meteor_lite,
    normalize_box,
    parse_tagged_caption,
    phrase_similarity,
    render_tagged_caption,
    stem,
    tokenize,
)
from groundcap.metrics import (
    _Detection,
    _GtObject,
    _average_precision,
    _extract_gt,
    _extract_preds,
    _match_pool,
    cider_scores,
    similarity_backend,
)
from groundcap.ingest import annotation_to_dict
from groundcap.records import check_annotation
from conftest import make_annotation, make_corpus
from oracles import _oracle_boxes, _oracle_match, ap_oracle, cider_oracle, grounding_oracle


class TestTokenize:
    def test_punctuation_split(self):
        assert tokenize("A person, stirring.") == ["a", "person", ",", "stirring", "."]

    def test_empty(self):
        assert tokenize("") == []

    def test_fixture_sentences(self):
        # frozen hand-tokenized pairs
        fixtures = [
            ("The woman's bowl!", ["the", "woman", "'", "s", "bowl", "!"]),
            ("stir-fry  in   a wok", ["stir", "-", "fry", "in", "a", "wok"]),
            ("2 cups of flour", ["2", "cups", "of", "flour"]),
        ]
        for text, expected in fixtures:
            assert tokenize(text) == expected


class TestStem:
    @pytest.mark.parametrize(
        "variants",
        [
            ("use", "used", "using", "uses"),
            ("stir", "stirred", "stirring", "stirs"),
            ("make", "making", "makes"),
            ("glass", "glasses"),
            ("berry", "berries"),
            ("hold", "holding", "holds"),
        ],
    )
    def test_inflections_share_a_stem(self, variants):
        stems = {stem(v) for v in variants}
        assert len(stems) == 1, stems

    def test_unrelated_words_do_not_collide(self):
        assert stem("bowl") != stem("spoon")


class TestCider:
    def test_identical_single_video_is_zero(self):
        # every document frequency equals corpus size, so IDF vanishes
        assert cider({"v": "a man runs"}, {"v": ["a man runs"]}) == 0.0

    def test_empty_candidate_is_zero(self):
        score, per_video = cider_scores(
            {"a": "", "b": "a dog barks loudly"},
            {"a": ["a cat sits"], "b": ["a dog barks loudly"]},
        )
        assert per_video["a"] == 0.0

    def test_three_video_corpus_matches_oracle(self):
        candidates = {
            "a": "a woman pours juice into a glass",
            "b": "a man chops onions on a board",
            "c": "a child draws with a crayon",
        }
        references = {
            "a": ["a woman pours a green drink into a cup"],
            "b": ["a man cuts onions on a cutting board"],
            "c": ["a child paints a picture"],
        }
        assert cider(candidates, references) == pytest.approx(
            cider_oracle(candidates, references), abs=1e-9
        )

    def test_hundred_random_corpora_match_oracle(self):
        rng = random.Random(31)
        vocab = "a the cook bowl spoon cup pours lifts stirs red green slowly".split()
        for trial in range(100):
            n = rng.randint(1, 5)
            candidates = {}
            references = {}
            for v in range(n):
                vid = f"v{v}"
                candidates[vid] = " ".join(
                    rng.choices(vocab, k=rng.randint(0, 12))
                )
                references[vid] = [
                    " ".join(rng.choices(vocab, k=rng.randint(1, 12)))
                    for _ in range(rng.randint(1, 3))
                ]
            assert cider(candidates, references) == pytest.approx(
                cider_oracle(candidates, references), abs=1e-9
            ), f"trial {trial}"

    def test_range(self):
        score = cider(
            {"a": "x y z", "b": "p q r"}, {"a": ["x y z"], "b": ["p q r"]}
        )
        assert 0.0 <= score <= 10.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            cider({}, {})

    def test_mismatched_keys_rejected(self):
        with pytest.raises(ValueError):
            cider({"a": "x"}, {"b": ["x"]})


class TestMeteorLite:
    def test_identical_three_tokens(self):
        # F=1, penalty = 0.5 * (1/3)^3
        assert meteor_lite("a b c", "a b c") == pytest.approx(1 - 0.5 / 27, abs=1e-9)
        assert meteor_lite("a b c", "a b c") == pytest.approx(0.981481481, abs=1e-6)

    def test_fully_permuted_three_tokens(self):
        # 3 matches in 3 chunks: penalty = 0.5
        assert meteor_lite("a b c", "c b a") == pytest.approx(0.5, abs=1e-12)

    def test_zero_overlap(self):
        assert meteor_lite("a b c", "x y z") == 0.0

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            meteor_lite("a b", "")

    def test_empty_candidate_scores_zero(self):
        assert meteor_lite("", "a b") == 0.0

    def test_stem_matches_count(self):
        # "stirring" vs "stirred" match via stem
        assert meteor_lite("a person stirring", "a person stirred") > 0.9

    def test_precision_recall_weighting(self):
        # one matched token of two in candidate, of three in reference
        p, r = 1 / 2, 1 / 3
        expected = 10 * p * r / (p + 9 * r) * (1 - 0.5)
        assert meteor_lite("bowl x", "bowl y z") == pytest.approx(expected, abs=1e-12)


class TestEmbeddingSimilarity:
    @pytest.fixture
    def embedding_server(self):
        import json as jsonlib
        import threading
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        vectors = {
            "a cup": [1.0, 0.0, 0.0],
            "a mug": [0.8, 0.6, 0.0],
            "a dog": [0.0, 0.0, 1.0],
            "a null": [None, 1.0, 0.0],
            "a nan": [float("nan"), 1.0, 0.0],
            "a flag": [True, 0.0, 0.0],
            "a pair": [1.0, 0.0],
        }
        # answers that are not a vector: no vectors, no "vectors" key, a server error
        answers = {"a void": (200, {"vectors": []}), "a blank": (200, {}), "a fault": (500, {})}

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):  # noqa: N802
                length = int(self.headers.get("Content-Length", "0"))
                (text,) = jsonlib.loads(self.rfile.read(length))["texts"]
                status, answer = answers.get(text, (200, {"vectors": [vectors.get(text)]}))
                payload = jsonlib.dumps(answer).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        yield f"http://{host}:{port}/embed"
        server.shutdown()
        server.server_close()

    def test_cosine_over_served_vectors(self, embedding_server):
        from groundcap.metrics import EmbeddingSimilarity

        backend = EmbeddingSimilarity(embedding_server)
        assert backend.similarity("a cup", "a cup") == 1.0
        assert backend.similarity("a cup", "a mug") == pytest.approx(0.8)
        assert backend.similarity("a cup", "a dog") == 0.0
        assert phrase_similarity("a cup", "a mug", backend) == pytest.approx(0.8)

    @pytest.mark.parametrize("text", ["a null", "a nan", "a flag"])
    def test_vector_of_non_numbers_is_an_error(self, embedding_server, text):
        # a NaN similarity would pass the similarity gate against every phrase
        from groundcap.metrics import EmbeddingSimilarity

        backend = EmbeddingSimilarity(embedding_server)
        with pytest.raises(ValueError, match=f"embedding of '{text}'"):
            backend.similarity("a cup", text)

    def test_vectors_of_different_lengths_are_an_error(self, embedding_server):
        from groundcap.metrics import EmbeddingSimilarity

        backend = EmbeddingSimilarity(embedding_server)
        with pytest.raises(ValueError, match="'a cup' and 'a pair' differ in length"):
            backend.similarity("a cup", "a pair")

    @pytest.mark.parametrize("text", ["a void", "a blank"])
    def test_answer_without_a_vector_is_an_error(self, embedding_server, text):
        from groundcap.metrics import EmbeddingSimilarity

        backend = EmbeddingSimilarity(embedding_server)
        message = f"embedding of '{text}' from {re.escape(embedding_server)} is"
        with pytest.raises(ValueError, match=message):
            backend.similarity("a cup", text)

    def test_server_error_is_an_error(self, embedding_server):
        from groundcap.metrics import EmbeddingSimilarity

        backend = EmbeddingSimilarity(embedding_server)
        message = f"'a fault' from {re.escape(embedding_server)} failed: HTTP 500 from"
        with pytest.raises(ValueError, match=message):
            backend.similarity("a cup", "a fault")

    def test_transport_failure_is_an_error(self):
        from groundcap.metrics import EmbeddingSimilarity

        endpoint = "http://127.0.0.1:1/embed"  # nothing listens there
        backend = EmbeddingSimilarity(endpoint, timeout=0.2)
        message = f"embedding of 'a cup' from {re.escape(endpoint)} failed"
        with pytest.raises(ValueError, match=message):
            backend.similarity("a cup", "a mug")

    def test_config_selects_backend(self, embedding_server):
        config = PipelineConfig(similarity="embedding", embedding_endpoint=embedding_server)
        assert similarity_backend(config).name == "embedding"
        with pytest.raises(ValueError):
            similarity_backend(PipelineConfig(similarity="embedding"))
        with pytest.raises(ValueError):
            similarity_backend(PipelineConfig(similarity="nonsense"))


class TestPhraseSimilarity:
    def test_identical_exactly_one(self):
        assert phrase_similarity("a glass of juice", "a glass of juice") == 1.0

    def test_disjoint_vocabulary_zero(self):
        assert phrase_similarity("a wooden spoon", "the metal fork") == 0.0

    def test_beverage_below_default_threshold(self):
        # no shared content stems
        assert phrase_similarity("a glass of green liquid", "a beverage") == 0.0

    def test_symmetric(self):
        a, b = "a red cup of tea", "a cup"
        assert phrase_similarity(a, b) == phrase_similarity(b, a)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            phrase_similarity("", "a cup")


def pbox(x, y, w, h, phrase="a cup", conf=1.0, seq=0):
    return _Detection(0, (x, y, w, h), phrase, conf, seq)


def gbox(x, y, w, h, phrase="a cup"):
    return _GtObject(0, (x, y, w, h), phrase)


def match(preds, gts, iou_thresh=0.5, sim_thresh=0.5):
    """Seqs matched under both gates, and the IoU-only overlaps, of one frame."""
    return _match_pool(preds, gts, iou_thresh, sim_thresh, phrase_similarity)


class TestMatchFrame:
    """Greedy one-to-one matching within one frame, at both gates."""

    def test_identical_all_matched(self):
        preds = [pbox(0, 0, 10, 10, seq=0), pbox(20, 20, 5, 5, "a bowl", seq=1)]
        gts = [gbox(0, 0, 10, 10), gbox(20, 20, 5, 5, "a bowl")]
        gated, overlaps = match(preds, gts)
        assert gated == {0, 1}
        assert overlaps == [1.0, 1.0]

    def test_no_preds(self):
        assert match([], [gbox(0, 0, 10, 10)]) == (set(), [])

    def test_two_preds_compete_for_one_gt(self):
        # exhaustive check of the 2x1 case: higher confidence wins
        gts = [gbox(0, 0, 10, 10)]
        for have_high_first in (True, False):
            preds = [pbox(0, 0, 10, 10, conf=0.9), pbox(1, 1, 10, 10, conf=0.6)]
            if not have_high_first:
                preds = preds[::-1]
            preds = [p._replace(seq=i) for i, p in enumerate(preds)]
            gated, overlaps = match(preds, gts)
            assert len(gated) == 1
            (winner,) = gated
            assert preds[winner].confidence == 0.9
            assert overlaps == [1.0]  # the IoU-only match goes the same way

    def test_iou_gate(self):
        gated, overlaps = match([pbox(8, 8, 10, 10)], [gbox(0, 0, 10, 10)])
        assert gated == set()  # IoU 4/196 below 0.5
        assert overlaps == [pytest.approx(4 / 196)]  # IoU-only matching has no floor

    def test_similarity_gate(self):
        preds, gts = [pbox(0, 0, 10, 10, phrase="a dog")], [gbox(0, 0, 10, 10, "a cup")]
        assert match(preds, gts) == (set(), [1.0])
        assert match(preds, gts, sim_thresh=0.0) == ({0}, [1.0])

    def test_thresholded_pairs_respect_floor(self):
        preds, gts = [pbox(0, 0, 10, 10)], [gbox(3, 0, 10, 10)]  # IoU 70/130
        assert match(preds, gts, iou_thresh=0.5)[0] == {0}
        assert match(preds, gts, iou_thresh=0.6)[0] == set()


class TestAveragePrecision:
    def test_spec_case(self):
        # ranks: TP, FP, TP over 2 GT boxes
        flags = [True, False, True]
        assert _average_precision(flags, 2) == pytest.approx(0.5 * 1.0 + 0.5 * (2 / 3))
        assert _average_precision(flags, 2) == pytest.approx(ap_oracle([True, False, True], 2))

    def test_perfect(self):
        assert _average_precision([True] * 5, 5) == 1.0

    def test_empty_predictions(self):
        assert _average_precision([], 3) == 0.0

    def test_zero_gt_undefined(self):
        assert _average_precision([True], 0) is None

    def test_random_flag_vectors_match_enumeration(self):
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(0, 12)
            npos = rng.randint(1, 8)
            flags = []
            tp_budget = npos
            for _ in range(n):
                flag = tp_budget > 0 and rng.random() < 0.5
                if flag:
                    tp_budget -= 1
                flags.append(flag)
            got = _average_precision(flags, npos)
            assert got == pytest.approx(ap_oracle(flags, npos), abs=1e-12)


def annotation_with_tracks(
    video_id,
    boxes_by_phrase,
    frame_count=4,
    confidence=None,
    tagged="<p>a cup</p> next to <p>a bowl</p>",
):
    """Record with phrases 'a cup' and 'a bowl'; boxes keyed by phrase index."""
    caption = parse_tagged_caption(tagged)
    tracks = []
    for phrase_index, boxes in boxes_by_phrase.items():
        conf = None
        if confidence is not None:
            conf = {t: confidence for t in boxes}
        tracks.append(
            ObjectTrack.from_boxes(phrase_index, boxes, frame_count, confidence=conf)
        )
    return VideoAnnotation(
        video_id=video_id,
        frame_count=frame_count,
        fps=5.0,
        width=100,
        height=100,
        caption=caption,
        tracks=tuple(tracks),
    )


def simple_gt(video_id="v", **kwargs):
    return annotation_with_tracks(
        video_id,
        {
            0: {0: BoundingBox(10, 10, 20, 20), 1: BoundingBox(12, 10, 20, 20)},
            1: {0: BoundingBox(50, 50, 30, 30)},
        },
        **kwargs,
    )


def three_video_fixture():
    """Frozen 3-video corpus: one perfect, one noisy, one missing prediction.

    Phrase texts are the same everywhere so the similarity gates behave
    identically, but the caption contexts differ so CIDEr's IDF weights do
    not vanish.
    """
    gts = [
        simple_gt("v1"),
        annotation_with_tracks(
            "v2",
            {
                0: {t: BoundingBox(20, 20, 30, 30) for t in range(3)},
                1: {1: BoundingBox(60, 10, 25, 25)},
            },
            tagged="<p>a cup</p> rests beside <p>a bowl</p> on the table",
        ),
        simple_gt("v3", tagged="<p>a cup</p> and then <p>a bowl</p> appear"),
    ]
    noisy = annotation_with_tracks(
        "v2",
        {
            0: {0: BoundingBox(22, 22, 30, 30), 1: BoundingBox(40, 40, 30, 30)},
            1: {1: BoundingBox(61, 11, 25, 25)},
        },
        confidence=0.75,
        tagged="<p>a cup</p> sits beside <p>a bowl</p>",
    )
    preds = [simple_gt("v1"), noisy]
    return preds, gts


class TestGroundingMetrics:
    def test_identity_is_exactly_one(self):
        gt = [simple_gt("a"), simple_gt("b")]
        report = evaluate(gt, gt)
        for scores in (report.frame_level, report.video_level):
            assert scores.ap50 == 1.0
            assert scores.miou == 1.0
            assert scores.recall == 1.0

    def test_empty_predictions_score_zero(self):
        gt = [simple_gt()]
        scores = evaluate([], gt).frame_level
        assert scores.ap50 == 0.0
        assert scores.miou == 0.0
        assert scores.recall == 0.0

    def test_single_gt_pred_pair_miou_value(self):
        gt = [
            annotation_with_tracks("v", {0: {0: BoundingBox(10, 10, 20, 20)}}, frame_count=1)
        ]
        pred = [
            annotation_with_tracks("v", {0: {0: BoundingBox(20, 20, 20, 20)}}, frame_count=1)
        ]
        report = evaluate(pred, gt)
        assert report.frame_level.miou == pytest.approx(100 / 700)
        assert report.video_level.miou == pytest.approx(100 / 700)

    def test_ap50_spec_pr_curve_case(self):
        # 2 GT boxes in separate frames; 3 preds: 0.9 TP, 0.8 FP, 0.7 TP
        gt = [
            annotation_with_tracks(
                "v",
                {0: {0: BoundingBox(10, 10, 20, 20), 2: BoundingBox(10, 10, 20, 20)}},
                frame_count=3,
            )
        ]
        pred_caption = parse_tagged_caption("<p>a cup</p> here")
        pred_track = ObjectTrack.from_boxes(
            0,
            {
                0: BoundingBox(10, 10, 20, 20),  # TP at conf 0.9
                1: BoundingBox(70, 70, 10, 10),  # FP at conf 0.8 (no GT in frame 1)
                2: BoundingBox(10, 10, 20, 20),  # TP at conf 0.7
            },
            3,
            confidence={0: 0.9, 1: 0.8, 2: 0.7},
        )
        pred = [
            VideoAnnotation(
                video_id="v",
                frame_count=3,
                fps=5.0,
                width=100,
                height=100,
                caption=pred_caption,
                tracks=(pred_track,),
            )
        ]
        expected = 0.5 * 1.0 + 0.5 * (2 / 3)
        report = evaluate(pred, gt)
        assert report.frame_level.ap50 == pytest.approx(expected)
        assert report.video_level.ap50 == pytest.approx(expected)

    def test_recall_counts_dual_gated_matches(self):
        # 4 GT boxes; 2 predictions pass both gates
        gt = [
            annotation_with_tracks(
                "v",
                {
                    0: {t: BoundingBox(10, 10, 20, 20) for t in range(2)},
                    1: {t: BoundingBox(60, 60, 20, 20) for t in range(2)},
                },
                frame_count=2,
            )
        ]
        pred = [
            annotation_with_tracks(
                "v",
                {0: {t: BoundingBox(10, 10, 20, 20) for t in range(2)}},
                frame_count=2,
            )
        ]
        assert evaluate(pred, gt).frame_level.recall == 0.5

    def test_unrelated_phrases_zero_recall(self):
        gt = [
            annotation_with_tracks("v", {0: {0: BoundingBox(10, 10, 20, 20)}}, frame_count=1)
        ]
        caption = parse_tagged_caption("<p>an elephant</p> walks")
        pred_track = ObjectTrack.from_boxes(0, {0: BoundingBox(10, 10, 20, 20)}, 1)
        pred = [
            VideoAnnotation(
                video_id="v",
                frame_count=1,
                fps=5.0,
                width=100,
                height=100,
                caption=caption,
                tracks=(pred_track,),
            )
        ]
        scores = evaluate(pred, gt).frame_level
        assert scores.recall == 0.0
        assert scores.miou == 1.0  # IoU-only matching ignores phrases


class TestEvaluate:
    def test_self_evaluation_perfect(self):
        gt = [simple_gt("a"), simple_gt("b")]
        report = evaluate(gt, gt)
        for scores in (report.frame_level, report.video_level):
            assert scores.ap50 == 1.0
            assert scores.miou == 1.0
            assert scores.recall == 1.0
        # identical captions: meteor is the identical-sentence formula value
        k = len(tokenize(gt[0].caption.plain))
        assert report.meteor == pytest.approx(1 - 0.5 / k**3)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("iou_thresh", 2.0),
            ("iou_thresh", -0.5),
            ("sim_thresh", float("nan")),
            ("sim_thresh", 1.5),
        ],
    )
    def test_threshold_outside_unit_interval_refused(self, key, value):
        # a NaN similarity threshold made every phrase pair similar, and an
        # IoU threshold of 2 scored every detection a miss
        message = rf"^config key '{key}' must be in \[0, 1\], got {value}$"
        with pytest.raises(ValueError, match=message):
            PipelineConfig(**{key: value})

    def test_unknown_pred_video_rejected(self):
        gt = [simple_gt("a")]
        stray = simple_gt("zzz")
        with pytest.raises(ValueError, match="unknown video"):
            evaluate([stray], gt)

    def test_missing_prediction_counts_as_empty(self):
        gt = [simple_gt("a"), simple_gt("b")]
        report = evaluate([gt[0]], gt)
        assert report.per_video["b"]["recall"] == 0.0
        assert report.per_video["b"]["num_pred_boxes"] == 0
        assert report.video_level.recall == 0.5

    def test_video_level_is_mean_of_per_video(self):
        rng = random.Random(3)
        gt = make_corpus(rng, 6, prefix="g")
        preds = [make_annotation(rng, r.video_id) for r in gt[:4]]
        report = evaluate(preds, gt)
        for metric in ("ap50", "miou", "recall"):
            values = [
                report.per_video[v][metric]
                for v in report.per_video
                if report.per_video[v][metric] is not None
            ]
            assert getattr(report.video_level, metric) == pytest.approx(
                sum(values) / len(values)
            )

    def test_permutation_invariance(self, rng):
        gt = make_corpus(rng, 5, prefix="p")
        preds = [make_annotation(rng, r.video_id) for r in gt]
        report_a = evaluate(preds, gt)
        report_b = evaluate(list(reversed(preds)), list(reversed(gt)))
        assert report_a == report_b

    def test_single_video_frame_equals_video_level(self, rng):
        gt = [make_annotation(rng, "only")]
        pred = [make_annotation(rng, "only")]
        report = evaluate(pred, gt)
        assert report.frame_level.ap50 == pytest.approx(report.video_level.ap50)
        assert report.frame_level.miou == pytest.approx(report.video_level.miou)
        assert report.frame_level.recall == pytest.approx(report.video_level.recall)

    def test_monotone_when_unmatched_gt_gains_perfect_prediction(self):
        gt = [simple_gt("a")]
        partial = [
            annotation_with_tracks(
                "a", {0: {0: BoundingBox(10, 10, 20, 20), 1: BoundingBox(12, 10, 20, 20)}}
            )
        ]
        full = [simple_gt("a")]
        before = evaluate(partial, gt)
        after = evaluate(full, gt)
        for metric in ("ap50", "miou", "recall"):
            assert getattr(after.frame_level, metric) >= getattr(before.frame_level, metric)
            assert getattr(after.video_level, metric) >= getattr(before.video_level, metric)

    def test_report_shape_and_config_echo(self):
        gt = [simple_gt("a")]
        report = evaluate(gt, gt, PipelineConfig(sim_thresh=0.7))
        payload = report.as_dict()
        assert payload["config"]["sim_thresh"] == 0.7
        assert payload["config"]["similarity_backend"] == "lexical"
        assert set(payload["frame_level"]) == {"ap50", "miou", "recall"}
        assert 0.0 <= payload["meteor"] <= 1.0
        assert 0.0 <= payload["cider"] <= 10.0

    def test_three_video_fixture_matches_golden_report(self, tmp_path):
        from pathlib import Path

        from groundcap.jsonio import canonical_json

        preds, gts = three_video_fixture()
        report = evaluate(preds, gts)
        # the captioning side of the golden values is pinned by the oracle
        candidates = {r.video_id: r.caption.plain for r in preds}
        candidates["v3"] = ""
        references = {r.video_id: [r.caption.plain] for r in gts}
        assert report.cider == pytest.approx(cider_oracle(candidates, references), abs=1e-9)
        rendered = canonical_json(report.as_dict()) + "\n"
        golden = Path(__file__).parent / "golden" / "metrics_report.golden.json"
        assert rendered == golden.read_text("utf-8")

    def test_zero_gt_boxes_reported_as_null(self):
        caption = parse_tagged_caption("<p>a cup</p> alone")
        gt = [
            VideoAnnotation(
                video_id="v",
                frame_count=1,
                fps=5.0,
                width=100,
                height=100,
                caption=caption,
                tracks=(),
            )
        ]
        report = evaluate([], gt)
        assert report.frame_level.ap50 is None
        assert report.video_level.ap50 is None
        assert report.per_video["v"]["ap50"] is None


CONFIDENCES = (0.25, 0.5, 0.5, 0.75, 1.0)  # few values, so ranks tie often


def _jittered(rng, box, width, height):
    w = max(1.0, box.w + rng.randint(-4, 4))
    h = max(1.0, box.h + rng.randint(-4, 4))
    x = min(max(0.0, box.x + rng.randint(-6, 6)), width - w)
    y = min(max(0.0, box.y + rng.randint(-6, 6)), height - h)
    return BoundingBox(x, y, w, h)


def _noisy_prediction(rng, gt):
    """Jittered, missing, relabelled, duplicated and extra boxes of ``gt``."""
    phrases = len(gt.caption.phrases)
    tracks = []
    for track in gt.tracks:
        for _copy in range(rng.choice((1, 1, 2))):
            boxes = {
                t: _jittered(rng, box, gt.width, gt.height)
                for t, box in track.boxes.items()
                if rng.random() > 0.25
            }
            if boxes:
                phrase_index = (
                    rng.randrange(phrases) if rng.random() < 0.2 else track.phrase_index
                )
                confidence = {t: rng.choice(CONFIDENCES) for t in boxes}
                tracks.append(
                    ObjectTrack.from_boxes(phrase_index, boxes, gt.frame_count, confidence)
                )
    for _extra in range(rng.randint(0, 2)):
        t = rng.randrange(gt.frame_count)
        box = BoundingBox(float(rng.randrange(0, 300)), float(rng.randrange(0, 150)), 30.0, 20.0)
        tracks.append(
            ObjectTrack.from_boxes(
                rng.randrange(phrases), {t: box}, gt.frame_count, {t: rng.choice(CONFIDENCES)}
            )
        )
    prediction = dataclasses.replace(gt, tracks=tuple(tracks))
    try:
        check_annotation(annotation_to_dict(prediction))
    except RecordValidationError:  # a duplicate came out identical to its original
        return dataclasses.replace(gt, tracks=tuple(tracks[:1]))
    return prediction


def _oracle_corpus(rng):
    """2-8 videos of 1-4 frames each, so videos share frame indices."""
    gts, preds = [], []
    for i in range(rng.randint(2, 8)):
        gt = make_annotation(rng, f"pool-{i}", frame_count=rng.randint(1, 4))
        if rng.random() < 0.15:
            gt = dataclasses.replace(gt, tracks=())  # no ground-truth boxes
        gts.append(gt)
        if rng.random() < 0.2:
            continue  # no prediction for this video
        preds.append(_noisy_prediction(rng, gt))
    return preds, gts


_fractions = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1.0))


class TestExtractedBoxes:
    @given(
        st.integers(1, 2000),
        st.integers(1, 2000),
        st.lists(st.tuples(_fractions, _fractions, _fractions, _fractions), min_size=1, max_size=4),
        st.booleans(),
    )
    def test_boxes_are_the_fields_of_normalize_box(self, width, height, drawn, normalized):
        pixel = {}
        for t, (fx, fy, fw, fh) in enumerate(drawn):
            x, y = fx * width, fy * height
            pixel[t] = BoundingBox(x, y, fw * (width - x), fh * (height - y))
        unit = {t: normalize_box(box, width, height) for t, box in pixel.items()}
        boxes = unit if normalized else pixel
        track = ObjectTrack.from_boxes(0, boxes, len(boxes), {t: 0.5 for t in boxes})
        record = VideoAnnotation(
            "v", len(boxes), 5.0, width, height, parse_tagged_caption("<p>a cup</p> rests"),
            (track,), boxes_normalized=normalized,
        )
        # float.hex tells -0.0 from 0.0, so this is equality bit for bit
        want = [tuple(map(float.hex, unit[t].as_list())) for t in sorted(unit)]
        for extracted in (_extract_gt(record), _extract_preds(record)):
            assert [tuple(map(float.hex, item.box)) for item in extracted] == want


class TestPooledGroundingOracle:
    def test_both_levels_match_pooled_rematch(self):
        rng = random.Random(4242)
        matched = 0
        for _ in range(60):
            preds, gts = _oracle_corpus(rng)
            report = evaluate(preds, gts)
            expected = grounding_oracle(preds, gts, phrase_similarity)
            for level, scores in (("frame", report.frame_level), ("video", report.video_level)):
                ours = (scores.ap50, scores.miou, scores.recall)
                for got, want in zip(ours, expected[level]):
                    if want is None:
                        assert got is None
                    else:
                        assert got == pytest.approx(want, abs=1e-12)
            matched += report.frame_level.recall not in (None, 0.0, 1.0)
        assert matched > 30  # most corpora have partial matches, not trivial ones

    def test_each_frame_matched_once(self, monkeypatch):
        import groundcap.metrics as metrics

        rng = random.Random(99)
        preds, gts = _oracle_corpus(rng)
        while not any(g.tracks for g in gts):
            preds, gts = _oracle_corpus(rng)
        pool_calls, iou_calls = [], []
        real_pool, real_iou = metrics._match_pool, metrics.iou_xywh
        monkeypatch.setattr(
            metrics, "_match_pool", lambda *a: pool_calls.append(len(a[1])) or real_pool(*a)
        )
        monkeypatch.setattr(
            metrics, "iou_xywh", lambda a, b: iou_calls.append(1) or real_iou(a, b)
        )
        evaluate(preds, gts)
        # one matching pass per ground-truth video with boxes, over that video alone
        gt_boxes = [sum(len(track.boxes) for track in g.tracks) for g in gts]
        assert pool_calls == [n for n in gt_boxes if n]
        # one IoU per prediction x ground-truth pair sharing a (video, frame)
        pairs = 0
        for pred in preds:
            gt = next(g for g in gts if g.video_id == pred.video_id)
            for frame in {t for track in pred.tracks for t in track.boxes}:
                n_pred = sum(frame in track.boxes for track in pred.tracks)
                n_gt = sum(frame in track.boxes for track in gt.tracks)
                pairs += n_pred * n_gt
        assert len(iou_calls) == pairs


class TestSummationOrder:
    def test_report_sums_run_left_to_right(self):
        # 12 videos: past 8 terms a pairwise sum groups differently from a
        # running total; on this seed both sums below differ in their last
        # bits between the two orders, so the test pins the order
        rng = random.Random(4)
        gts = [
            make_annotation(rng, f"sum-{i:02d}", frame_count=rng.randint(2, 4)) for i in range(12)
        ]
        preds = []
        for gt in gts:
            pred = _noisy_prediction(rng, gt)
            extra = rng.choice(("slowly", "the cup", "again and again", "near a bowl"))
            caption = parse_tagged_caption(f"{render_tagged_caption(gt.caption)} {extra}")
            preds.append(dataclasses.replace(pred, caption=caption))
        report = evaluate(preds, gts)

        cider_total = 0.0
        for video_id in sorted(report.per_video):
            cider_total += report.per_video[video_id]["cider"]
        assert report.cider == cider_total / len(gts)

        # the frame-level AP of the pooled corpus, from the oracle's matching
        dets = [d for pred in preds for d in _oracle_boxes(pred)]
        gt_boxes = [g for gt in gts for g in _oracle_boxes(gt)]
        gated = _oracle_match(dets, gt_boxes, True, phrase_similarity, 0.5, 0.5)
        ranked = sorted(range(len(dets)), key=lambda i: (-dets[i]["conf"], i))
        flags = [i in gated for i in ranked]
        precision = []
        hits = 0
        for rank, flag in enumerate(flags, start=1):
            hits += flag
            precision.append(hits / rank)
        for k in range(len(precision) - 2, -1, -1):
            precision[k] = max(precision[k], precision[k + 1])
        ap_total = 0.0
        for value, flag in zip(precision, flags):
            if flag:
                ap_total += value
        assert sum(flags) > 8
        assert report.frame_level.ap50 == ap_total / len(gt_boxes)
