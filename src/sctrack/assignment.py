"""Gated minimum-cost bipartite matching between tracks and detections.

Pairs whose cost exceeds the gate are infeasible.  Among all matchings that
respect the gate, the solver returns one of maximum cardinality and, among
those, minimum total cost.  Gating is realized by replacing infeasible
entries with a finite sentinel large enough that avoiding a sentinel always
dominates any rearrangement of feasible costs, then filtering sentinel pairs
from the solution.

:func:`solve_pairs` takes the same problem as a list of candidate pairs, every
pair off the list infeasible, and solves only what needs a solver.

The solver is scipy's ``linear_sum_assignment``, Crouse's shortest augmenting
path (IEEE TAES 52(4), 2016), loaded from its own extension module.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_file_location

import numpy as np

_LSAP = "scipy.optimize._lsap"


def _load_lsap_extension():
    """The extension module ``scipy/optimize/_lsap<suffix>`` loaded from its
    file, or None when there is no such file or it does not load."""
    import scipy

    folder = os.path.join(os.path.dirname(scipy.__file__), "optimize")
    for suffix in EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_lsap" + suffix)
        if os.path.isfile(path):
            loader = ExtensionFileLoader(_LSAP, path)
            try:
                module = module_from_spec(spec_from_file_location(_LSAP, path, loader=loader))
                loader.exec_module(module)
            except ImportError:
                return None
            return module
    return None


def _load_linear_sum_assignment():
    """scipy's ``linear_sum_assignment`` without running ``scipy.optimize``.

    ``from scipy.optimize import ...`` first runs that package's
    ``__init__``, which imports linalg, sparse and about 300 other modules
    (~48 MB) around a C function that needs only numpy.  The extension is
    registered under its own name, so a later ``import scipy.optimize``
    reuses it and its public name is this same function.  A scipy whose
    ``_lsap`` is not such an extension gets the public import.
    ``importlib.util.find_spec`` cannot stand in for the file lookup: it
    imports the parent package.
    """
    module = sys.modules.get(_LSAP) or _load_lsap_extension()
    if hasattr(module, "linear_sum_assignment"):
        sys.modules.setdefault(_LSAP, module)
        return module.linear_sum_assignment
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment


linear_sum_assignment = _load_linear_sum_assignment()


@dataclass(frozen=True)
class AssignmentResult:
    """A partition of row and column indices into matches and leftovers."""

    matches: list[tuple[int, int]] = field(default_factory=list)
    unmatched_rows: list[int] = field(default_factory=list)
    unmatched_cols: list[int] = field(default_factory=list)


def _solve_gated(costs: np.ndarray, feasible: np.ndarray):
    """The feasible ``(rows, cols)`` of an optimal assignment; ``feasible``
    marks the entries of ``costs`` to use, and holds at least one."""
    # any solution with fewer sentinel pairs beats any with more, so the
    # solver maximizes feasible cardinality before minimizing feasible cost
    sentinel = float(costs[feasible].max()) * min(costs.shape) + 1.0
    rows, cols = linear_sum_assignment(np.where(feasible, costs, sentinel))  # rows ascending
    kept = feasible[rows, cols]
    return rows[kept], cols[kept]


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
    if not gate >= 0:  # NaN fails too
        raise ValueError(f"gate must be non-negative, got {gate}")
    m, n = costs.shape
    if m == 0 or n == 0:
        return AssignmentResult([], list(range(m)), list(range(n)))
    if not np.isfinite(costs).all() or (costs < 0).any():
        raise ValueError("cost matrix entries must be finite and non-negative")

    feasible = costs <= gate
    if not feasible.any():
        return AssignmentResult([], list(range(m)), list(range(n)))
    rows, cols = _solve_gated(costs, feasible)
    return AssignmentResult(
        matches=list(zip(rows.tolist(), cols.tolist())),
        unmatched_rows=np.flatnonzero(np.bincount(rows, minlength=m) == 0).tolist(),
        unmatched_cols=np.flatnonzero(np.bincount(cols, minlength=n) == 0).tolist(),
    )


def solve_pairs(rows: np.ndarray, cols: np.ndarray, costs: np.ndarray, gate: float):
    """Match rows to columns along candidate pairs at cost <= gate.

    Args:
        rows, cols: int arrays; ``(rows[k], cols[k])`` is candidate pair ``k``,
            and no pair is listed twice.  A pair not listed is infeasible.
        costs: the finite, non-negative cost of each pair.
        gate: maximum admissible cost for any returned pair; must be >= 0.

    Returns:
        The matched ``(rows, cols)`` as int arrays, in no set order: the
        matching :func:`solve` returns for the matrix of these costs (every
        entry off the list above the gate) whenever that matching is unique.
        A lone feasible pair (:func:`lone_pairs`) is matched as it is; the
        rest are solved as one compact matrix of their rows and columns, by
        :func:`solve`'s rule.
    """
    rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
    costs = np.asarray(costs, dtype=np.float64)
    if not gate >= 0:  # NaN fails too
        raise ValueError(f"gate must be non-negative, got {gate}")
    if not np.isfinite(costs).all() or (costs < 0).any():
        raise ValueError("pair costs must be finite and non-negative")
    feasible = costs <= gate
    rows, cols, costs = rows[feasible], cols[feasible], costs[feasible]
    alone = lone_pairs(rows, cols)
    if alone.all():
        return rows, cols
    shared = ~alone
    # rank each shared row and column among its kind: its compact index
    row_ids, r = _compact(rows[shared])
    col_ids, c = _compact(cols[shared])
    compact = np.zeros((len(row_ids), len(col_ids)))
    listed = np.zeros(compact.shape, bool)
    compact[r, c], listed[r, c] = costs[shared], True
    matched_rows, matched_cols = _solve_gated(compact, listed)
    return (
        np.concatenate([rows[alone], row_ids[matched_rows]]),
        np.concatenate([cols[alone], col_ids[matched_cols]]),
    )


def lone_pairs(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Mask of the pairs ``(rows[k], cols[k])`` that share neither their row
    nor their column with another pair."""
    return (np.bincount(rows).take(rows) == 1) & (np.bincount(cols).take(cols) == 1)


def _compact(index: np.ndarray):
    """The distinct values of a non-empty int array, ascending, and the
    position of each entry's value among them."""
    present = np.zeros(index.max() + 1, bool)
    present[index] = True
    return np.flatnonzero(present), (np.cumsum(present) - 1)[index]
