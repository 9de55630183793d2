import random

import pytest
from hypothesis import given, strategies as st

from groundcap import BoundingBox, denormalize_box, iou, normalize_box
from groundcap.boxes import box_fault, iou_xywh
from oracles import _oracle_iou, grid_iou


def test_iou_identity():
    a = BoundingBox(3, 4, 10, 12)
    assert iou(a, a) == 1.0


def test_iou_disjoint():
    assert iou(BoundingBox(0, 0, 5, 5), BoundingBox(10, 10, 5, 5)) == 0.0


def test_iou_partial_overlap_matches_grid_count():
    # 10x10 overlap, union 400 + 400 - 100
    a, b = BoundingBox(10, 10, 20, 20), BoundingBox(20, 20, 20, 20)
    expected = grid_iou((10, 10, 20, 20), (20, 20, 20, 20))
    assert expected == pytest.approx(100 / 700)
    assert iou(a, b) == expected


def test_iou_mixed_modes_rejected():
    with pytest.raises(ValueError):
        iou(BoundingBox(0, 0, 1, 1), BoundingBox(0, 0, 0.5, 0.5, normalized=True))


def test_iou_degenerate_boxes_score_zero():
    thin = BoundingBox(5, 5, 0, 10)
    assert iou(thin, BoundingBox(0, 0, 20, 20)) == 0.0
    assert iou(thin, thin) == 0.0


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        BoundingBox(0, 0, -1, 5)


def test_normalized_bounds_checked():
    BoundingBox(0.9, 0.9, 0.1, 0.1, normalized=True)  # x+w exactly 1 is fine
    with pytest.raises(ValueError):
        BoundingBox(0.9, 0.9, 0.2, 0.1, normalized=True)


boxes = st.tuples(
    st.integers(0, 50), st.integers(0, 50), st.integers(0, 30), st.integers(0, 30)
)


@given(boxes, boxes)
def test_iou_symmetric_and_matches_grid_oracle(a, b):
    box_a = BoundingBox(*map(float, a))
    box_b = BoundingBox(*map(float, b))
    assert iou(box_a, box_b) == iou(box_b, box_a)
    assert iou(box_a, box_b) == grid_iou(a, b)


_side = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 64.0))
_pixel_box = st.tuples(_side, _side, _side, _side)


@st.composite
def _box_pairs(draw):
    """Two pixel boxes: any two, equal, or touching along an x or a y edge."""
    a = draw(_pixel_box)
    kind = draw(st.sampled_from(["any", "equal", "touching-x", "touching-y"]))
    if kind == "equal":
        return a, a
    b = draw(_pixel_box)
    if kind == "touching-x":
        return a, (a[0] + a[2], *b[1:])
    if kind == "touching-y":
        return a, (b[0], a[1] + a[3], *b[2:])
    return a, b


@given(_box_pairs(), st.sampled_from([None, (256, 256), (455, 256), (1920, 1080)]))
def test_tuple_iou_is_boxes_iou_bit_for_bit(pair, frame):
    a, b = (BoundingBox(*box) for box in pair)
    if frame is not None:  # the same pair normalized to that frame size
        a, b = (normalize_box(box, *frame) for box in (a, b))
    ta, tb = tuple(a.as_list()), tuple(b.as_list())
    # float.hex tells -0.0 from 0.0
    assert iou_xywh(ta, tb).hex() == iou(a, b).hex() == _oracle_iou(ta, tb).hex()


def test_iou_grid_oracle_thousand_random_boxes():
    rng = random.Random(7)
    for _ in range(1000):
        a = (rng.randint(0, 80), rng.randint(0, 80), rng.randint(0, 40), rng.randint(0, 40))
        b = (rng.randint(0, 80), rng.randint(0, 80), rng.randint(0, 40), rng.randint(0, 40))
        assert iou(BoundingBox(*map(float, a)), BoundingBox(*map(float, b))) == grid_iou(a, b)


def test_normalize_full_frame():
    full = normalize_box(BoundingBox(0, 0, 455, 256), 455, 256)
    assert full == BoundingBox(0.0, 0.0, 1.0, 1.0, normalized=True)


def test_normalize_paper_resolution_example():
    # direct division at the 455x256 clip resolution
    result = normalize_box(BoundingBox(45.5, 25.6, 91, 51.2), 455, 256)
    assert result.x == pytest.approx(0.1)
    assert result.y == pytest.approx(0.1)
    assert result.w == pytest.approx(0.2)
    assert result.h == pytest.approx(0.2)
    assert result.normalized


def test_normalize_round_trip():
    box = BoundingBox(45.5, 25.6, 91.0, 51.2)
    back = denormalize_box(normalize_box(box, 455, 256), 455, 256)
    assert back.x == pytest.approx(box.x, rel=1e-9)
    assert back.y == pytest.approx(box.y, rel=1e-9)
    assert back.w == pytest.approx(box.w, rel=1e-9)
    assert back.h == pytest.approx(box.h, rel=1e-9)


def test_normalize_mode_errors():
    with pytest.raises(ValueError):
        normalize_box(BoundingBox(0, 0, 1, 1, normalized=True), 10, 10)
    with pytest.raises(ValueError):
        denormalize_box(BoundingBox(0, 0, 1, 1), 10, 10)


def test_clamped_limits_to_frame():
    box = BoundingBox(-5, 10, 30, 300)
    clamped = box.clamped(100, 200)
    assert clamped == BoundingBox(0, 10, 25, 190)
    assert BoundingBox(500, 500, 10, 10).clamped(100, 100).area == 0
    with pytest.raises(ValueError, match="clamped\\(\\) applies to pixel boxes"):
        BoundingBox(0, 0, 0.5, 0.5, normalized=True).clamped(100, 100)


coordinates = st.floats(-1e6, 1e6)
sizes = st.floats(0, 1e6)


@given(coordinates, coordinates, sizes, sizes, st.floats(1, 1e4), st.floats(1, 1e4))
def test_clamped_box_is_one_the_constructor_accepts(x, y, w, h, width, height):
    clamped = BoundingBox(x, y, w, h).clamped(width, height)
    assert type(clamped) is BoundingBox and clamped.normalized is False
    assert box_fault(*clamped) is None
    assert 0 <= clamped.x <= clamped.x + clamped.w <= width
    assert 0 <= clamped.y <= clamped.y + clamped.h <= height
