import numpy as np
import pytest

from sctrack.assignment import AssignmentResult, solve

from _oracles import best_matching_ref, enumerate_matching_ref


def total_cost(costs, result):
    return sum(costs[r][c] for r, c in result.matches)


def assert_partition(result, m, n):
    rows = [r for r, _ in result.matches] + result.unmatched_rows
    cols = [c for _, c in result.matches] + result.unmatched_cols
    assert sorted(rows) == list(range(m))
    assert sorted(cols) == list(range(n))


class TestSolveBasics:
    def test_single_feasible_pair(self):
        result = solve(np.array([[0.1]]), gate=0.8)
        assert result.matches == [(0, 0)]
        assert result.unmatched_rows == [] and result.unmatched_cols == []

    def test_gated_out_pair(self):
        result = solve(np.array([[0.95]]), gate=0.8)
        assert result.matches == []
        assert result.unmatched_rows == [0] and result.unmatched_cols == [0]

    def test_two_by_two_diagonal(self):
        costs = np.array([[0.2, 0.9], [0.9, 0.3]])
        result = solve(costs, gate=0.8)
        assert result.matches == [(0, 0), (1, 1)]
        assert total_cost(costs, result) == pytest.approx(0.5)

    def test_empty_dimensions(self):
        assert solve(np.zeros((0, 3)), 1.0) == AssignmentResult([], [], [0, 1, 2])
        assert solve(np.zeros((2, 0)), 1.0) == AssignmentResult([], [0, 1], [])
        assert solve(np.zeros((0, 0)), 1.0) == AssignmentResult([], [], [])

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            solve(np.array([1.0, 2.0]), 1.0)
        with pytest.raises(ValueError):
            solve(np.array([[np.inf]]), 1.0)
        with pytest.raises(ValueError):
            solve(np.array([[-0.1]]), 1.0)
        with pytest.raises(ValueError):
            solve(np.array([[0.5]]), -1.0)

    def test_prefers_more_matches_over_cheaper_total(self):
        # the only full matching costs 1.0; matching row 0 alone would cost 0.1
        costs = np.array([[0.1, 0.9], [0.1, 5.0]])
        result = solve(costs, gate=1.0)
        assert result.matches == [(0, 1), (1, 0)]
        assert total_cost(costs, result) == pytest.approx(1.0)


class TestSolveAgainstOracle:
    def test_oracle_consistency_on_tiny_matrices(self):
        # the search oracle and the literal enumerator must agree
        rng = np.random.default_rng(0)
        for _ in range(200):
            m, n = rng.integers(1, 5, size=2)
            costs = rng.uniform(0, 3, size=(m, n))
            gate = float(rng.uniform(0.3, 3.0))
            assert best_matching_ref(costs.tolist(), gate) == pytest.approx(
                enumerate_matching_ref(costs.tolist(), gate)
            )

    def test_optimal_on_random_matrices(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            m, n = rng.integers(1, 8, size=2)
            costs = rng.uniform(0, 3, size=(m, n))
            gate = float(rng.uniform(0.2, 3.0))
            result = solve(costs, gate)
            assert_partition(result, m, n)
            assert all(costs[r, c] <= gate for r, c in result.matches)
            count, best = best_matching_ref(costs.tolist(), gate)
            assert len(result.matches) == count
            assert total_cost(costs, result) == pytest.approx(best, abs=1e-9)


class TestSolveProperties:
    def test_result_is_row_sorted_lists_of_python_ints(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            m, n = rng.integers(0, 9, size=2)
            result = solve(rng.uniform(0, 2, size=(m, n)), float(rng.uniform(0, 2)))
            assert all(type(pair) is tuple and len(pair) == 2 for pair in result.matches)
            values = [v for pair in result.matches for v in pair] + result.unmatched_rows + result.unmatched_cols
            assert all(type(v) is int for v in values)
            assert result.matches == sorted(result.matches)
            assert result.unmatched_rows == sorted(result.unmatched_rows)
            assert result.unmatched_cols == sorted(result.unmatched_cols)

    def test_gate_respected(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            costs = rng.uniform(0, 3, size=rng.integers(1, 10, size=2))
            gate = float(rng.uniform(0, 3))
            result = solve(costs, gate)
            assert all(costs[r, c] <= gate for r, c in result.matches)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            m, n = rng.integers(2, 7, size=2)
            costs = rng.uniform(0, 3, size=(m, n))
            gate = 2.0
            base = solve(costs, gate)
            perm_rows = rng.permutation(m)
            permuted = solve(costs[perm_rows], gate)
            # row i of the permuted problem is row perm_rows[i] of the original
            remapped = sorted((int(perm_rows[r]), c) for r, c in permuted.matches)
            assert remapped == base.matches

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        costs = rng.uniform(0, 3, size=(6, 6))
        results = {str(solve(costs, 1.5)) for _ in range(10)}
        assert len(results) == 1
