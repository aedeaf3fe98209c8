import warnings

import numpy as np
import pytest

from sctrack.geometry import (
    BoundingBox,
    Detection,
    boxes_to_corners,
    cost_matrix,
    iou,
    pairwise_shape_iou_distance,
    shape_iou_distance,
)

from _oracles import shape_distance_ref

PLAIN = dict(use_height_term=False, use_area_term=False)


def random_box(rng, max_coord=500.0):
    x = rng.uniform(-50.0, max_coord)
    y = rng.uniform(-50.0, max_coord)
    w = rng.uniform(0.5, 200.0)
    h = rng.uniform(0.5, 200.0)
    return BoundingBox.from_tlwh(x, y, w, h)


class TestBoundingBox:
    def test_tlwh_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x, y = rng.uniform(-100, 1000, size=2)
            w, h = rng.uniform(1e-3, 500, size=2)
            box = BoundingBox.from_tlwh(x, y, w, h)
            rx, ry, rw, rh = box.to_tlwh()
            assert rx == x and ry == y and rh == h
            assert abs(rw - w) <= 1e-9 * w

    @pytest.mark.parametrize("w,h", [(0, 10), (10, 0), (-1, 10), (10, -1)])
    def test_rejects_degenerate_sizes(self, w, h):
        with pytest.raises(ValueError):
            BoundingBox.from_tlwh(0, 0, w, h)

    @pytest.mark.parametrize("a,h", [(0, 10), (-0.5, 10), (1, 0), (1, -3)])
    def test_rejects_invalid_fields(self, a, h):
        with pytest.raises(ValueError):
            BoundingBox(0, 0, a, h)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            BoundingBox(float("nan"), 0, 1, 1)

    @pytest.mark.parametrize("field", ["x", "y", "a", "h"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_each_non_finite_field_is_named(self, field, value):
        fields = {"x": 1.0, "y": 2.0, "a": 0.5, "h": 3.0, field: value}
        with pytest.raises(ValueError, match=r"box fields must be finite, got BoundingBox\(") as exc:
            BoundingBox(**fields)
        assert f"{field}={value!r}" in str(exc.value)

    @pytest.mark.parametrize("a,h", [(0.0, 3.0), (-0.5, 3.0), (0.5, 0.0), (0.5, -3.0), (-0.0, 3.0)])
    def test_non_positive_size_message(self, a, h):
        with pytest.raises(ValueError) as exc:
            BoundingBox(1.0, 2.0, a, h)
        assert str(exc.value) == f"box requires a > 0 and h > 0, got a={a}, h={h}"

    def test_detection_score_range(self):
        box = BoundingBox.from_tlwh(0, 0, 5, 5)
        Detection(box, 0.0)
        Detection(box, 1.0)
        with pytest.raises(ValueError):
            Detection(box, 1.2)
        with pytest.raises(ValueError):
            Detection(box, -0.1)


class TestIoU:
    def test_identity(self):
        b = BoundingBox.from_tlwh(5, 5, 10, 20)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(BoundingBox.from_tlwh(0, 0, 10, 10), BoundingBox.from_tlwh(20, 20, 5, 5)) == 0.0

    def test_partial_overlap(self):
        # intersection 2, union 6
        value = iou(BoundingBox.from_tlwh(0, 0, 2, 2), BoundingBox.from_tlwh(1, 0, 2, 2))
        assert value == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_edge_touching_counts_as_zero(self):
        assert iou(BoundingBox.from_tlwh(0, 0, 10, 10), BoundingBox.from_tlwh(10, 0, 10, 10)) == 0.0

    def test_bounds_random(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            b1, b2 = random_box(rng), random_box(rng)
            v = iou(b1, b2)
            assert 0.0 <= v <= 1.0


class TestShapeIoUDistance:
    def test_zero_iff_identical(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            b = random_box(rng)
            assert shape_iou_distance(b, b) == 0.0

    def test_discriminates_equal_iou_pairs(self):
        # same-overlap pair: one box shares R's shape, the other does not
        r = BoundingBox.from_tlwh(0, 0, 4, 4)
        same = BoundingBox.from_tlwh(2, 0, 4, 4)
        tall = BoundingBox.from_tlwh(2, 0, 2, 8)
        assert iou(r, same) == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert iou(r, tall) == pytest.approx(1.0 / 3.0, abs=1e-12)
        d_same = shape_iou_distance(r, same)
        d_tall = shape_iou_distance(r, tall)
        assert d_same == pytest.approx(2.0 / 3.0, abs=1e-9)
        # height gap 4 against an enclosing height 8 adds (4/8)^2 = 1/4
        assert d_tall == pytest.approx(11.0 / 12.0, abs=1e-6)
        assert d_same < d_tall

    @pytest.mark.parametrize("scale", [0.5, 1.0, 2.0, 8.0])
    @pytest.mark.parametrize("shift", [(0.0, 0.0), (100.0, -40.0)])
    def test_same_shape_never_farther_at_equal_iou(self, scale, shift):
        dx, dy = shift
        r = BoundingBox.from_tlwh(dx, dy, 4 * scale, 4 * scale)
        same = BoundingBox.from_tlwh(dx + 2 * scale, dy, 4 * scale, 4 * scale)
        diff = BoundingBox.from_tlwh(dx + 2 * scale, dy, 2 * scale, 8 * scale)
        assert iou(r, same) == pytest.approx(iou(r, diff), abs=1e-12)
        assert shape_iou_distance(r, same) <= shape_iou_distance(r, diff)

    def test_symmetry_random(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            b1, b2 = random_box(rng), random_box(rng)
            assert shape_iou_distance(b1, b2) == pytest.approx(
                shape_iou_distance(b2, b1), abs=1e-12
            )

    def test_range_random(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            b1, b2 = random_box(rng), random_box(rng)
            d = shape_iou_distance(b1, b2)
            assert 0.0 <= d <= 3.0

    def test_reduces_to_iou_distance_with_terms_off(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            b1, b2 = random_box(rng), random_box(rng)
            assert shape_iou_distance(b1, b2, **PLAIN) == 1.0 - iou(b1, b2)

    def test_translation_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            b1, b2 = random_box(rng), random_box(rng)
            dx, dy = rng.uniform(-300, 300, size=2)
            m1 = BoundingBox.from_tlwh(b1.x + dx, b1.y + dy, b1.w, b1.h)
            m2 = BoundingBox.from_tlwh(b2.x + dx, b2.y + dy, b2.w, b2.h)
            assert iou(m1, m2) == pytest.approx(iou(b1, b2), abs=1e-9)
            assert shape_iou_distance(m1, m2) == pytest.approx(
                shape_iou_distance(b1, b2), abs=1e-9
            )

    def test_agrees_with_direct_evaluation(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            b1, b2 = random_box(rng), random_box(rng)
            expected = shape_distance_ref(b1.to_tlwh(), b2.to_tlwh())
            assert shape_iou_distance(b1, b2) == pytest.approx(expected, abs=1e-12)

    def test_term_flags_act_independently(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            b1, b2 = random_box(rng), random_box(rng)
            for height_term, area_term in [(True, False), (False, True)]:
                expected = shape_distance_ref(
                    b1.to_tlwh(), b2.to_tlwh(), height_term=height_term, area_term=area_term
                )
                got = shape_iou_distance(b1, b2, use_height_term=height_term, use_area_term=area_term)
                assert got == pytest.approx(expected, abs=1e-12)

    def test_far_apart_extents_give_the_limit_without_a_warning(self):
        # the enclosing rectangle of these two boxes is about 1e160 x 1e160:
        # its area overflows to inf, where the area term takes its limit 0
        a = BoundingBox.from_tlwh(-1e160, 0, 1e145, 1)
        b = BoundingBox.from_tlwh(0, 1e160, 1, 1e145)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            full = shape_iou_distance(a, b)
            assert full == shape_iou_distance(a, b, use_area_term=False)
        assert np.isfinite(full)


class TestCostMatrix:
    def test_single_identical_pair(self):
        b = BoundingBox.from_tlwh(3, 4, 10, 12)
        matrix = cost_matrix([b], [b])
        assert matrix.shape == (1, 1)
        assert matrix[0, 0] == 0.0

    def test_empty_inputs_keep_shape(self):
        b = BoundingBox.from_tlwh(0, 0, 5, 5)
        assert cost_matrix([], [b, b, b]).shape == (0, 3)
        assert cost_matrix([b, b], []).shape == (2, 0)
        assert cost_matrix([], []).shape == (0, 0)

    def test_matches_elementwise_recomputation(self):
        r = BoundingBox.from_tlwh(0, 0, 4, 4)
        same = BoundingBox.from_tlwh(2, 0, 4, 4)
        tall = BoundingBox.from_tlwh(2, 0, 2, 8)
        tracks = [r, same]
        dets = [same, tall]
        matrix = cost_matrix(tracks, dets)
        for i, t in enumerate(tracks):
            for j, d in enumerate(dets):
                assert matrix[i, j] == shape_iou_distance(t, d)

    def test_matches_elementwise_on_random_boxes(self):
        rng = np.random.default_rng(9)
        tracks = [random_box(rng) for _ in range(7)]
        dets = [random_box(rng) for _ in range(5)]
        matrix = cost_matrix(tracks, dets)
        for i, t in enumerate(tracks):
            for j, d in enumerate(dets):
                assert matrix[i, j] == shape_iou_distance(t, d)

    def test_pairwise_helper_shape(self):
        rng = np.random.default_rng(10)
        corners = boxes_to_corners([random_box(rng) for _ in range(4)])
        out = pairwise_shape_iou_distance(corners, corners)
        assert out.shape == (4, 4)
        assert np.allclose(np.diag(out), 0.0, atol=1e-12)
