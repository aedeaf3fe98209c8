#!/usr/bin/env python3
"""Why plain IoU is not enough: two boxes, same overlap, different shapes.

A wide reference box is compared against two candidates that overlap it
identically (IoU = 1/3 each).  One candidate shares the reference's shape,
the other is twice as tall and half as wide.  Plain IoU distance cannot
tell them apart; the shape-aware distance can.
"""

import numpy as np

from sctrack import BoundingBox, cost_matrix, iou, shape_iou_distance

reference = BoundingBox.from_tlwh(0, 0, 4, 4)
same_shape = BoundingBox.from_tlwh(2, 0, 4, 4)
tall_narrow = BoundingBox.from_tlwh(2, 0, 2, 8)

print("reference   :", reference.to_tlwh())
print("same shape  :", same_shape.to_tlwh())
print("tall narrow :", tall_narrow.to_tlwh())
print()

print(f"IoU(reference, same shape)  = {iou(reference, same_shape):.6f}")
print(f"IoU(reference, tall narrow) = {iou(reference, tall_narrow):.6f}")
print("-> identical overlap; an IoU-only tracker is indifferent between them")
print()

plain = dict(use_height_term=False, use_area_term=False)
full = dict(use_height_term=True, use_area_term=True)
print(f"plain distance, same shape  : {shape_iou_distance(reference, same_shape, **plain):.6f}")
print(f"plain distance, tall narrow : {shape_iou_distance(reference, tall_narrow, **plain):.6f}")
print(f"shape distance, same shape  : {shape_iou_distance(reference, same_shape, **full):.6f}")
print(f"shape distance, tall narrow : {shape_iou_distance(reference, tall_narrow, **full):.6f}")
print("-> the height penalty separates the candidates by ~0.25")
print()

# the same computation, vectorized over a whole track/detection grid
tracks = [reference, same_shape]
detections = [same_shape, tall_narrow]
matrix = cost_matrix(tracks, detections, **full)
print("cost matrix (tracks x detections):")
print(np.array_str(matrix, precision=4))
