"""Gated minimum-cost bipartite matching between tracks and detections.

Pairs whose cost exceeds the gate are infeasible.  Among all matchings that
respect the gate, the solver returns one of maximum cardinality and, among
those, minimum total cost.  Gating is realized by replacing infeasible
entries with a finite sentinel large enough that avoiding a sentinel always
dominates any rearrangement of feasible costs, then filtering sentinel pairs
from the solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment


@dataclass(frozen=True)
class AssignmentResult:
    """A partition of row and column indices into matches and leftovers."""

    matches: list[tuple[int, int]] = field(default_factory=list)
    unmatched_rows: list[int] = field(default_factory=list)
    unmatched_cols: list[int] = field(default_factory=list)


def solve(costs: np.ndarray, gate: float) -> AssignmentResult:
    """Match rows to columns at cost <= gate, minimizing total matched cost.

    Args:
        costs: (M, N) array of finite, non-negative pairwise distances.
            Either dimension may be zero.
        gate: maximum admissible cost for any returned pair; must be >= 0.

    Returns:
        AssignmentResult whose matches are sorted by row index.  Matches and
        the unmatched lists partition both index sets, and no matched pair
        costs more than the gate.
    """
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim != 2:
        raise ValueError(f"cost matrix must be 2-dimensional, got shape {costs.shape}")
    if gate < 0:
        raise ValueError(f"gate must be non-negative, got {gate}")
    m, n = costs.shape
    if m == 0 or n == 0:
        return AssignmentResult([], list(range(m)), list(range(n)))
    if not np.isfinite(costs).all() or (costs < 0).any():
        raise ValueError("cost matrix entries must be finite and non-negative")

    feasible = costs <= gate
    if not feasible.any():
        return AssignmentResult([], list(range(m)), list(range(n)))

    # any solution with fewer sentinel pairs beats any with more, so the
    # solver maximizes feasible cardinality before minimizing feasible cost
    sentinel = float(costs[feasible].max()) * min(m, n) + 1.0
    gated = np.where(feasible, costs, sentinel)
    rows, cols = linear_sum_assignment(gated)  # rows ascending
    kept = feasible[rows, cols]
    rows, cols = rows[kept], cols[kept]
    return AssignmentResult(
        matches=list(zip(rows.tolist(), cols.tolist())),
        unmatched_rows=np.flatnonzero(np.bincount(rows, minlength=m) == 0).tolist(),
        unmatched_cols=np.flatnonzero(np.bincount(cols, minlength=n) == 0).tolist(),
    )
