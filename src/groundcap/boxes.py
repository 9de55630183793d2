"""Axis-aligned bounding boxes and the geometry used throughout the toolkit.

Boxes are ``[x, y, w, h]`` with a top-left origin.  Coordinates are either
absolute pixels (``normalized=False``) or fractions of the frame dimensions
in ``[0, 1]`` (``normalized=True``); every box carries its own mode flag so
mixed-mode arithmetic can be rejected instead of silently producing garbage.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

NORMALIZED_EPS = 1e-6

XYWH = tuple[float, float, float, float]  # a box's coordinates without its mode flag


class _BoxFields(NamedTuple):
    x: float
    y: float
    w: float
    h: float
    normalized: bool = False


class BoundingBox(_BoxFields):
    """An ``[x, y, w, h]`` box, pixel-space or normalized to frame size."""

    __slots__ = ()

    def __new__(cls, x, y, w, h, normalized=False):
        fault = box_fault(x, y, w, h, normalized)
        if fault is not None:
            raise ValueError(fault)
        return tuple.__new__(cls, (x, y, w, h, normalized))

    @property
    def area(self) -> float:
        return self.w * self.h

    def as_list(self) -> list[float]:
        return [self.x, self.y, self.w, self.h]

    def clamped(self, width: float, height: float) -> "BoundingBox":
        """Clip a pixel box to the frame rectangle, keeping w, h non-negative."""
        if self.normalized:
            raise ValueError("clamped() applies to pixel boxes; use clamp bounds of 1.0 manually")
        x = min(max(self.x, 0.0), width)
        y = min(max(self.y, 0.0), height)
        x2 = min(max(self.x + self.w, 0.0), width)
        y2 = min(max(self.y + self.h, 0.0), height)
        # max(..., 0.0) leaves no size below 0, the one fault box_fault finds in a pixel box
        return tuple.__new__(BoundingBox, (x, y, max(x2 - x, 0.0), max(y2 - y, 0.0), False))


def box_fault(x: float, y: float, w: float, h: float, normalized: bool) -> Optional[str]:
    """Why box ``[x, y, w, h]`` is invalid in its mode, or None when it is valid.

    The frame is not known here, so a pixel box is not checked against it.
    """
    if w < 0 or h < 0:
        return f"box has negative size: w={w}, h={h}"
    if normalized:
        low, high = -NORMALIZED_EPS, 1 + NORMALIZED_EPS
        if not (low <= x <= high and low <= y <= high):  # NaN fails too
            return f"normalized box origin out of range: ({x}, {y})"
        if x + w > high or y + h > high:
            return f"normalized box exceeds unit square: x+w={x + w}, y+h={y + h}"
    return None


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes in the same coordinate mode.

    Degenerate boxes (zero width or height) are legal and score 0 against
    everything; a pair of zero-area boxes also scores 0 so that downstream
    metric averages never see NaN.
    """
    if a.normalized != b.normalized:
        raise ValueError("cannot compute IoU of a normalized and a pixel box")
    return iou_xywh((a.x, a.y, a.w, a.h), (b.x, b.y, b.w, b.h))


def iou_xywh(a: XYWH, b: XYWH) -> float:
    """:func:`iou` of two ``(x, y, w, h)`` tuples the caller knows share a mode."""
    if a == b:
        return 1.0 if a[2] * a[3] > 0 else 0.0
    # Each conditional picks what max() or min() of the same two values would,
    # the first of two equal ones, without a call.
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    ix = bx if bx > ax else ax
    iy = by if by > ay else ay
    ix2, other = ax + aw, bx + bw
    ix2 = other if other < ix2 else ix2
    iy2, other = ay + ah, by + bh
    iy2 = other if other < iy2 else iy2
    dx, dy = ix2 - ix, iy2 - iy
    inter = (0.0 if 0.0 > dx else dx) * (0.0 if 0.0 > dy else dy)
    union = aw * ah + bw * bh - inter
    if union <= 0:
        return 0.0
    # rounding can push the ratio a hair past 1; the true value never exceeds it
    ratio = inter / union
    return 1.0 if 1.0 < ratio else ratio


def normalize_box(b: BoundingBox, width: float, height: float) -> BoundingBox:
    """Convert a pixel box to fractions of the frame dimensions."""
    if b.normalized:
        raise ValueError("box is already normalized")
    if width < 1 or height < 1:
        raise ValueError(f"frame dimensions must be >= 1, got {width}x{height}")
    return BoundingBox(b.x / width, b.y / height, b.w / width, b.h / height, normalized=True)


def denormalize_box(b: BoundingBox, width: float, height: float) -> BoundingBox:
    """Convert a normalized box back to absolute pixels."""
    if not b.normalized:
        raise ValueError("box is already in pixel coordinates")
    if width < 1 or height < 1:
        raise ValueError(f"frame dimensions must be >= 1, got {width}x{height}")
    return BoundingBox(b.x * width, b.y * height, b.w * width, b.h * height, normalized=False)
