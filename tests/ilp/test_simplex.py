"""Unit and property tests for the bounded-variable simplex engine."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog

from repro.ilp import BnBOptions, LPBasis, LPStatus, Model, lin_sum, solve_lp
from repro.ilp.model import MatrixForm
from repro.ilp.simplex import (
    _AT_LOWER,
    _BASIC,
    LPRows,
    _BasisFactors,
    _SingularBasis,
)

INF = math.inf


def _solve(c, a, senses, b, lb, ub):
    return solve_lp(
        np.asarray(c, float),
        np.asarray(a, float).reshape(len(senses), len(c)) if senses else np.zeros((0, len(c))),
        list(senses),
        np.asarray(b, float),
        np.asarray(lb, float),
        np.asarray(ub, float),
    )


class TestBasicLPs:
    def test_simple_maximization_as_min(self):
        # min -x - 2y ; x + y <= 4, x <= 3, x,y >= 0  -> (0,4), obj -8
        res = _solve([-1, -2], [[1, 1], [1, 0]], ["<=", "<="], [4, 3], [0, 0], [INF, INF])
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == pytest.approx(-8.0)
        assert res.x == pytest.approx([0.0, 4.0])

    def test_equality_row(self):
        res = _solve([1, 1], [[1, 1]], ["=="], [2], [0, 0], [INF, INF])
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == pytest.approx(2.0)

    def test_ge_row(self):
        res = _solve([1, 2], [[1, 1]], [">="], [3], [0, 0], [INF, INF])
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == pytest.approx(3.0)
        assert res.x == pytest.approx([3.0, 0.0])

    def test_infeasible(self):
        res = _solve([1], [[1], [1]], ["<=", ">="], [1, 2], [0], [INF])
        assert res.status is LPStatus.INFEASIBLE

    def test_unbounded(self):
        res = _solve([-1], [[0]], ["<="], [1], [0], [INF])
        assert res.status is LPStatus.UNBOUNDED

    def test_bound_only_problem(self):
        res = _solve([1, -1], np.zeros((0, 2)), [], [], [1, 0], [5, 3])
        assert res.status is LPStatus.OPTIMAL
        assert res.x == pytest.approx([1.0, 3.0])

    def test_bound_only_unbounded(self):
        res = _solve([-1], np.zeros((0, 1)), [], [], [0], [INF])
        assert res.status is LPStatus.UNBOUNDED

    def test_upper_bounds_respected(self):
        # min -x - y ; x + y <= 10 ; x <= 2, y <= 3 (variable bounds)
        res = _solve([-1, -1], [[1, 1]], ["<="], [10], [0, 0], [2, 3])
        assert res.objective == pytest.approx(-5.0)

    def test_bound_flip_path(self):
        # Optimum forces a nonbasic variable to its upper bound.
        res = _solve([-5, -1], [[1, 1]], ["<="], [10], [0, 0], [4, 20])
        assert res.objective == pytest.approx(-26.0)
        assert res.x == pytest.approx([4.0, 6.0])

    def test_fixed_variable(self):
        res = _solve([1, 1], [[1, 1]], [">="], [3], [2, 0], [2, INF])
        assert res.status is LPStatus.OPTIMAL
        assert res.x == pytest.approx([2.0, 1.0])

    def test_negative_rhs(self):
        # x - y <= -1 with minimize x  => x=0, y>=1
        res = _solve([1, 1], [[1, -1]], ["<="], [-1], [0, 0], [INF, INF])
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == pytest.approx(1.0)

    def test_degenerate_constraints_terminate(self):
        # Many redundant rows (classic cycling bait) must still terminate.
        a = [[1, 1], [2, 2], [1, 1], [0.5, 0.5]]
        res = _solve([-1, -1], a, ["<="] * 4, [2, 4, 2, 1], [0, 0], [INF, INF])
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == pytest.approx(-2.0)


@st.composite
def random_lp(draw):
    """Small random bounded LPs with box constraints — always feasible at 0."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 5))
    coef = st.integers(-5, 5)
    c = [draw(coef) for _ in range(n)]
    a = [[draw(coef) for _ in range(n)] for _ in range(m)]
    # b >= 0 with <= rows ensures x = 0 is feasible: no infeasible noise.
    b = [draw(st.integers(0, 10)) for _ in range(m)]
    ub = [draw(st.integers(1, 6)) for _ in range(n)]
    return c, a, b, ub


@given(random_lp())
@settings(max_examples=120, deadline=None)
def test_matches_scipy_on_random_lps(problem):
    c, a, b, ub = problem
    n = len(c)
    ours = _solve(c, a, ["<="] * len(b), b, [0] * n, ub)
    ref = linprog(c, A_ub=np.array(a, float), b_ub=np.array(b, float),
                  bounds=[(0, u) for u in ub], method="highs")
    assert ref.status == 0, "reference should be feasible by construction"
    assert ours.status is LPStatus.OPTIMAL
    assert ours.objective == pytest.approx(ref.fun, abs=1e-6)
    # Our solution must itself be feasible.
    ax = np.array(a, float) @ ours.x
    assert np.all(ax <= np.array(b, float) + 1e-6)
    assert np.all(ours.x >= -1e-9) and np.all(ours.x <= np.array(ub, float) + 1e-9)


@st.composite
def random_eq_lp(draw):
    """Random LPs with one equality row derived from a known feasible point."""
    n = draw(st.integers(2, 5))
    coef = st.integers(-4, 4)
    c = [draw(coef) for _ in range(n)]
    row = [draw(coef) for _ in range(n)]
    x0 = [draw(st.integers(0, 3)) for _ in range(n)]
    rhs = sum(r * x for r, x in zip(row, x0))
    ub = [max(x, 1) + draw(st.integers(0, 3)) for x in x0]
    return c, row, rhs, ub


@given(random_eq_lp())
@settings(max_examples=80, deadline=None)
def test_matches_scipy_with_equality(problem):
    c, row, rhs, ub = problem
    n = len(c)
    ours = _solve(c, [row], ["=="], [rhs], [0] * n, ub)
    ref = linprog(c, A_eq=np.array([row], float), b_eq=[rhs],
                  bounds=[(0, u) for u in ub], method="highs")
    assert ref.status == 0
    assert ours.status is LPStatus.OPTIMAL
    assert ours.objective == pytest.approx(ref.fun, abs=1e-6)


class TestLimitsAndEdgeCases:
    def test_iteration_limit_reported(self):
        # A nontrivial LP with a 1-iteration budget must hit the limit.
        res = solve_lp(
            np.array([-1.0, -1.0, -1.0]),
            np.array([[1.0, 2.0, 1.0], [2.0, 1.0, 3.0]]),
            ["<=", "<="],
            np.array([10.0, 12.0]),
            np.zeros(3),
            np.full(3, INF),
            max_iterations=1,
        )
        assert res.status in (LPStatus.ITERATION_LIMIT, LPStatus.OPTIMAL)

    def test_all_variables_fixed(self):
        res = solve_lp(
            np.array([1.0, 1.0]),
            np.array([[1.0, 1.0]]),
            ["<="],
            np.array([5.0]),
            np.array([2.0, 3.0]),
            np.array([2.0, 3.0]),
        )
        assert res.status is LPStatus.OPTIMAL
        assert res.x == pytest.approx([2.0, 3.0])

    def test_fixed_variables_infeasible_row(self):
        res = solve_lp(
            np.array([0.0, 0.0]),
            np.array([[1.0, 1.0]]),
            ["=="],
            np.array([99.0]),
            np.array([2.0, 3.0]),
            np.array([2.0, 3.0]),
        )
        assert res.status is LPStatus.INFEASIBLE

    def test_free_variable_negative_optimum(self):
        # x free in [-inf, inf]: min x s.t. x >= -5 -> -5.
        res = solve_lp(
            np.array([1.0]),
            np.array([[1.0]]),
            [">="],
            np.array([-5.0]),
            np.array([-INF]),
            np.array([INF]),
        )
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == pytest.approx(-5.0)


# -- sparse core ---------------------------------------------------------------


def _sparse_lp(seed, m, n, density):
    """A random sparse LP over ``<=``/``>=``/``==`` rows, feasible by construction.

    Every row is satisfied by an integer point ``x0`` inside the box, so
    the LP is feasible and, with finite upper bounds, bounded.
    """
    rng = np.random.default_rng(seed)
    a = sparse.random(
        m, n, density=density, format="csr", random_state=rng,
        data_rvs=lambda k: rng.integers(1, 6, size=k) * rng.choice([-1, 1], size=k),
    )
    ub = rng.integers(1, 6, size=n).astype(float)
    x0 = np.floor(rng.random(n) * (ub + 1))
    senses = list(rng.choice(["<=", ">=", "=="], size=m, p=[0.6, 0.25, 0.15]))
    slack = rng.integers(0, 4, size=m)
    b = a @ x0 + np.select(
        [np.array(senses) == "<=", np.array(senses) == ">="], [slack, -slack], 0
    )
    c = rng.integers(-5, 6, size=n).astype(float)
    return c, a, senses, b.astype(float), np.zeros(n), ub


def _linprog(c, a, senses, b, lb, ub):
    dense = a.toarray()
    sign = np.array([1.0 if s == "<=" else -1.0 for s in senses])
    ineq = np.array([s != "==" for s in senses])
    return linprog(
        c,
        A_ub=(dense * sign[:, None])[ineq] if ineq.any() else None,
        b_ub=(b * sign)[ineq] if ineq.any() else None,
        A_eq=dense[~ineq] if (~ineq).any() else None,
        b_eq=b[~ineq] if (~ineq).any() else None,
        bounds=list(zip(lb, ub)),
        method="highs",
    )


@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 300),
    n=st.integers(2, 120),
    density=st.floats(0.01, 0.05),
)
@settings(max_examples=40, deadline=None)
def test_matches_scipy_on_random_sparse_lps(seed, m, n, density):
    c, a, senses, b, lb, ub = _sparse_lp(seed, m, n, density)
    ours = solve_lp(c, a, senses, b, lb, ub)
    ref = _linprog(c, a, senses, b, lb, ub)
    assert ref.status == 0, "feasible and bounded by construction"
    assert ours.status is LPStatus.OPTIMAL
    assert ours.objective == pytest.approx(ref.fun, abs=1e-6)
    lhs = a @ ours.x
    tol = 1e-6 * (1.0 + np.abs(b))
    for i, sense in enumerate(senses):
        if sense == "<=":
            assert lhs[i] <= b[i] + tol[i]
        elif sense == ">=":
            assert lhs[i] >= b[i] - tol[i]
        else:
            assert abs(lhs[i] - b[i]) <= tol[i]
    assert np.all(ours.x >= lb - 1e-9) and np.all(ours.x <= ub + 1e-9)


class TestSparseCore:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dense_and_csr_input_agree(self, seed):
        c, a, senses, b, lb, ub = _sparse_lp(seed, 120, 60, 0.04)
        from_csr = solve_lp(c, a, senses, b, lb, ub, want_basis=True)
        from_dense = solve_lp(c, a.toarray(), senses, b, lb, ub, want_basis=True)
        assert from_csr.status is from_dense.status is LPStatus.OPTIMAL
        assert from_csr.objective == pytest.approx(from_dense.objective, rel=1e-12)
        assert from_csr.iterations == from_dense.iterations

    def test_rows_are_shared_across_solves(self):
        c, a, senses, b, lb, ub = _sparse_lp(5, 80, 40, 0.05)
        rows = LPRows(a, senses)
        before = rows.a.data.copy()
        base = rows.solve(c, b, lb, ub, want_basis=True)
        tight = ub.copy()
        tight[np.argmax(base.x)] = 0.0
        warm = rows.solve(c, b, lb, tight, warm_basis=base.basis)
        cold = solve_lp(c, a, senses, b, lb, tight)
        assert warm.status is cold.status
        if cold.is_optimal:
            assert warm.objective == pytest.approx(cold.objective, abs=1e-6)
        # Node LPs copy only the artificial signs; the shared rows stay put.
        assert np.array_equal(rows.a.data, before)

    def test_singular_warm_basis_falls_back_to_cold(self):
        # Columns 0 and 1 are parallel, so a basis of {x0, x1} is singular.
        c = np.array([-1.0, -1.0, -1.0])
        a = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 1.0]])
        senses = ["<=", "<="]
        b = np.array([4.0, 10.0])
        lb, ub = np.zeros(3), np.full(3, 5.0)
        singular = LPBasis(
            np.array([_BASIC, _BASIC, _AT_LOWER], dtype=np.int8),
            np.array([_AT_LOWER, _AT_LOWER], dtype=np.int8),
        )
        res = solve_lp(c, a, senses, b, lb, ub, warm_basis=singular)
        cold = solve_lp(c, a, senses, b, lb, ub)
        assert not res.warm_started
        assert res.status is cold.status is LPStatus.OPTIMAL
        assert res.objective == pytest.approx(cold.objective)

    @pytest.mark.parametrize("eps", [0.0, 1e-14])
    def test_singular_factor_raises(self, eps):
        # Exactly singular (SuperLU's own error) and numerically singular
        # (the |diag(U)| test) bases both map to _SingularBasis.
        basis = sparse.csc_matrix(np.array([[1.0, 2.0], [2.0, 4.0 + eps]]))
        with pytest.raises(_SingularBasis):
            _BasisFactors(basis)

    @pytest.mark.parametrize("engine", ["simplex", "scipy"])
    def test_bnb_never_densifies(self, engine, monkeypatch):
        m = Model()
        xs = [m.add_binary(f"x{i}") for i in range(8)]
        y = m.add_continuous("y", ub=3.0)
        weights = [3, 4, 2, 3, 2, 5, 1, 4]
        values = [10, 13, 7, 8, 6, 12, 2, 9]
        m.add_constr(lin_sum(w * x for w, x in zip(weights, xs)) + y <= 11)
        m.add_constr(xs[0] + xs[1] >= 1)
        m.add_constr(xs[2] + xs[3] + y == 2)
        m.maximize(lin_sum(v * x for v, x in zip(values, xs)) + 0.5 * y)
        form = m.to_matrix_form()
        ref = m.solve(backend="scipy")

        def refuse(self):
            raise AssertionError("dense constraint matrix built")

        monkeypatch.setattr(MatrixForm, "dense_A", refuse)
        from repro.ilp.branch_and_bound import solve_milp

        out = solve_milp(form, BnBOptions(lp_engine=engine))
        assert out.status == "optimal"
        assert -out.objective - form.obj_constant == pytest.approx(ref.objective)
