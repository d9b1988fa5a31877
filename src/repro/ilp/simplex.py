"""Bounded-variable revised simplex on sparse storage with a reusable basis.

This is the from-scratch LP engine that backs the branch-and-bound MILP
solver in :mod:`repro.ilp.branch_and_bound` (the role CPLEX's LP relaxation
played in the paper's experiments). It implements the revised primal simplex
method with explicit variable bounds, a two-phase cold start, and — the
pieces that make CEGIS-style re-solving cheap — a *warm* start path:

* the rows are held once in equality form, ``[A | slacks | artificials]``,
  as one CSC matrix (:class:`LPRows`, shared by every node LP of a MILP).
  Pricing ``c - A^T y`` and the dual ratio row ``A^T (B^-T e_r)`` are
  sparse matvecs over its CSR transpose, and entering columns are read
  from its ``indptr`` slices, so no dense constraint matrix is ever built;
* the basis is factorized with SuperLU (``scipy.sparse.linalg.splu``; scipy
  is a hard dependency, so there is no pure-numpy fallback) and
  maintained across pivots with product-form *eta* updates; every solve of
  ``B x = b`` (FTRAN) or ``B^T y = c`` (BTRAN) runs against the
  factorization. The factorization is rebuilt every ``_REFACTOR_EVERY``
  pivots to bound eta-file growth and drift;
* :func:`solve_lp` accepts a starting :class:`LPBasis` and re-optimizes from
  it with a bounded-variable **dual simplex** — the textbook move after
  tightening bounds (branch-and-bound children) or appending rows (learned
  interconnection constraints), both of which leave the parent basis dual
  feasible. Warm solves skip phase 1 entirely;
* nonbasic variables rest at a finite bound; the ratio test supports the
  *bound flip* move required for bounded variables;
* Dantzig pricing with an automatic switch to Bland's rule — scaled with
  problem size, see :func:`bland_cutover` — to guarantee termination on
  degenerate instances.

Every fallback is graceful: a stale/singular/dual-infeasible warm basis
degrades to the cold two-phase start, never to a wrong answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from .. import obs

__all__ = [
    "LPStatus", "LPResult", "LPBasis", "LPRows", "NO_SLACK", "solve_lp",
    "bland_cutover",
]

_TOL = 1e-9
_FEAS_TOL = 1e-7
_PIVOT_TOL = 1e-8
_SINGULAR_TOL = 1e-11
_BLAND_BASE = 2000
_BLAND_FACTOR = 10
_MAX_ITER_FACTOR = 200
_REFACTOR_EVERY = 64

#: Sentinel in :attr:`LPBasis.row_status` for rows without a slack column
#: (equality rows) or rows whose basis information is unusable.
NO_SLACK = -1


def bland_cutover(m: int, n: int) -> int:
    """Iteration count after which pricing switches to Bland's rule.

    The cutover scales with problem size: an absolute threshold flips large
    models into (slow, but cycle-proof) Bland pricing almost immediately,
    long before degeneracy is a realistic risk.
    """
    return max(_BLAND_BASE, _BLAND_FACTOR * (m + n))


class LPStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"


# Internal nonbasic status markers (also the LPBasis encoding).
_AT_LOWER = 0
_AT_UPPER = 1
_BASIC = 2


@dataclass
class LPBasis:
    """Layout-independent snapshot of an optimal simplex basis.

    ``var_status[j]`` is the status of structural column ``j`` and
    ``row_status[i]`` the status of row ``i``'s slack column
    (:data:`NO_SLACK` for equality rows). Stored per-variable rather than as
    column indices so it survives the model growing new columns and rows:
    see :func:`repro.ilp.incremental.extend_basis`.
    """

    var_status: np.ndarray
    row_status: np.ndarray

    def copy(self) -> "LPBasis":
        return LPBasis(self.var_status.copy(), self.row_status.copy())


@dataclass
class LPResult:
    status: LPStatus
    objective: float
    x: Optional[np.ndarray]
    iterations: int
    basis: Optional[LPBasis] = None
    #: True when the solve started from an installed basis (phase 1 skipped).
    warm_started: bool = False
    dual_pivots: int = 0

    @property
    def is_optimal(self) -> bool:
        return self.status is LPStatus.OPTIMAL


def solve_lp(
    c: np.ndarray,
    a,
    senses: Sequence[str],
    b: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
    max_iterations: Optional[int] = None,
    warm_basis: Optional[LPBasis] = None,
    want_basis: bool = False,
) -> LPResult:
    """Minimize ``c @ x`` subject to ``A x (senses) b`` and ``lb <= x <= ub``.

    Parameters mirror :class:`repro.ilp.model.MatrixForm`: ``a`` may be the
    CSR ``MatrixForm.A`` or a dense array. Bounds may be infinite; rows may
    mix ``<=``, ``>=`` and ``==``.

    ``warm_basis`` (from a previous :class:`LPResult` with ``want_basis``)
    re-optimizes via dual simplex instead of the two-phase cold start; it is
    safe to pass a basis recorded under different bounds — the standard
    branch-and-bound warm start — or one extended over newly appended
    rows/columns. An unusable basis silently falls back to the cold start.
    Callers solving many LPs over the same rows build one :class:`LPRows`
    and call its :meth:`~LPRows.solve` instead.
    """
    if not sparse.issparse(a):
        a = np.asarray(a, dtype=float)
        if a.size == 0:
            a = a.reshape(len(b), len(c))
    return LPRows(a, senses).solve(
        c, b, lb, ub, max_iterations=max_iterations,
        warm_basis=warm_basis, want_basis=want_basis,
    )


class LPRows:
    """The rows ``A x (senses) b`` of an LP in equality form, built once.

    ``[A | slacks | artificials]`` is held as one CSC matrix: one slack
    column per inequality row (``+1`` for ``<=``, ``-1`` for ``>=``) and
    one artificial per row. Only the artificials' signs depend on a solve
    (they follow the sign of its starting residual), so every LP over these
    rows — each branch-and-bound node, whatever its bounds — shares the
    index arrays and copies just the values.
    """

    def __init__(self, a, senses: Sequence[str]) -> None:
        a = sparse.csc_matrix(a, dtype=float)
        self.m, self.n = a.shape
        senses = np.asarray(senses, dtype=object)
        self.slack_rows = np.flatnonzero(senses != "==")
        k = len(self.slack_rows)
        slack_signs = np.where(senses[self.slack_rows] == "<=", 1.0, -1.0)
        slacks = sparse.csc_matrix(
            (slack_signs, (self.slack_rows, np.arange(k))), shape=(self.m, k)
        )
        self.n_eq = self.n + k
        self.a = sparse.hstack(
            [a, slacks, sparse.identity(self.m, format="csc")], format="csc"
        )
        self.a.sum_duplicates()  # _column assigns, so one entry per (i, j)
        # Position in ``a.data`` of each artificial's single entry.
        self._art_slots = self.a.indptr[self.n_eq : self.n_eq + self.m]

    def with_artificial_signs(self, signs: np.ndarray) -> sparse.csc_matrix:
        data = self.a.data.copy()
        data[self._art_slots] = signs
        return sparse.csc_matrix(
            (data, self.a.indices, self.a.indptr), shape=self.a.shape
        )

    def solve(
        self,
        c: np.ndarray,
        b: np.ndarray,
        lb: np.ndarray,
        ub: np.ndarray,
        max_iterations: Optional[int] = None,
        warm_basis: Optional[LPBasis] = None,
        want_basis: bool = False,
    ) -> LPResult:
        """:func:`solve_lp` over these rows."""
        c = np.asarray(c, dtype=float)
        b = np.asarray(b, dtype=float)
        lb = np.asarray(lb, dtype=float)
        ub = np.asarray(ub, dtype=float)
        n, m = self.n, self.m
        if m == 0:
            # Pure bound-constrained minimization.
            x = _bound_only_solution(c, lb, ub)
            if x is None:
                return LPResult(LPStatus.UNBOUNDED, -math.inf, None, 0)
            return LPResult(LPStatus.OPTIMAL, float(c @ x), x, 0)

        n_slack = self.n_eq - n
        lb_full = np.concatenate([lb, np.zeros(n_slack)])
        ub_full = np.concatenate([ub, np.full(n_slack, math.inf)])
        # Slacks and artificials cost nothing in phase 2.
        c_full = np.concatenate([c, np.zeros(n_slack + m)])
        warm_flags = (
            _flags_from_basis(warm_basis, n, m, self.slack_rows)
            if warm_basis is not None
            else None
        )

        solver = _BoundedSimplex(self, b.copy(), lb_full, ub_full, max_iterations)
        status, iterations = solver.solve(c_full, warm_flags=warm_flags)
        _record_lp_observations(solver)
        x, objective, basis = None, math.nan, None
        if status is LPStatus.OPTIMAL:
            x = solver.solution()[:n]
            objective = float(c @ x)
            if want_basis:
                basis = solver.export_basis(n, m, self.slack_rows)
        return LPResult(
            status, objective, x, iterations, basis=basis,
            warm_started=solver.warm_started, dual_pivots=solver.dual_pivots,
        )


def _record_lp_observations(solver: "_BoundedSimplex") -> None:
    if not obs.enabled():
        return
    obs.counter("ilp.simplex.solves").inc()
    if solver.warm_started:
        obs.counter("ilp.simplex.warm_starts").inc()
        obs.counter("ilp.simplex.phase1_skips").inc()
    else:
        obs.counter("ilp.simplex.cold_starts").inc()
    obs.counter("ilp.simplex.refactorizations").inc(solver.refactorizations)
    obs.counter("ilp.simplex.dual_pivots").inc(solver.dual_pivots)
    eta_len = solver.max_eta_len
    if solver.factors is not None:
        eta_len = max(eta_len, solver.factors.eta_len)
    obs.histogram("ilp.simplex.eta_len").observe(eta_len)


def _flags_from_basis(
    basis: LPBasis, n: int, m: int, slack_rows: np.ndarray
) -> Optional[np.ndarray]:
    """Expand an :class:`LPBasis` into per-column flags, or None if stale."""
    if len(basis.var_status) != n or len(basis.row_status) != m:
        return None
    slack_status = basis.row_status[slack_rows]
    if np.any(slack_status == NO_SLACK):
        return None  # basis predates a row and was not extended
    # Equality rows carry no slack; any non-sentinel status there is ignored.
    return np.concatenate([basis.var_status, slack_status]).astype(np.int8)


def _bound_only_solution(
    c: np.ndarray, lb: np.ndarray, ub: np.ndarray
) -> Optional[np.ndarray]:
    x = np.zeros(len(c))
    for j, coeff in enumerate(c):
        if coeff > 0:
            if not math.isfinite(lb[j]):
                return None
            x[j] = lb[j]
        elif coeff < 0:
            if not math.isfinite(ub[j]):
                return None
            x[j] = ub[j]
        else:
            x[j] = lb[j] if math.isfinite(lb[j]) else (ub[j] if math.isfinite(ub[j]) else 0.0)
    return x


class _SingularBasis(Exception):
    pass


class _BasisFactors:
    """SuperLU factors of the basis matrix plus a product-form eta file.

    After a pivot replacing basic position ``pos`` with a column whose FTRAN
    image is ``alpha`` (= B^-1 a_entering), the inverse is updated as
    ``B_new^-1 = E^-1 B_old^-1`` where ``E^-1`` is the identity with column
    ``pos`` replaced by the eta vector. FTRAN applies the LU solve then the
    etas oldest-first; BTRAN applies the transposed etas newest-first then
    the LU back-solve.
    """

    def __init__(self, basis_matrix: sparse.csc_matrix) -> None:
        # Imported here: scipy.sparse.linalg costs ~0.1 s and ~2 MiB, and
        # every process importing repro.engine (pool workers too) imports
        # this module whether or not it ever solves an LP.
        from scipy.sparse.linalg import splu

        try:
            self._lu = splu(basis_matrix)
        except RuntimeError:  # SuperLU: "Factor is exactly singular"
            raise _SingularBasis from None
        diag = np.abs(self._lu.U.diagonal())
        scale = diag.max(initial=0.0)
        if scale == 0.0 or diag.min() < _SINGULAR_TOL * max(1.0, scale):
            raise _SingularBasis
        self.etas: List[Tuple[int, np.ndarray]] = []

    @property
    def eta_len(self) -> int:
        return len(self.etas)

    @property
    def stale(self) -> bool:
        return len(self.etas) >= _REFACTOR_EVERY

    def ftran(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``B x = rhs``."""
        x = self._lu.solve(rhs)
        for pos, eta in self.etas:
            t = x[pos]
            if t != 0.0:
                x += eta * t
                x[pos] = eta[pos] * t
        return x

    def btran(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``B^T y = rhs``; ``rhs`` may hold several right-hand sides."""
        y = np.array(rhs, dtype=float)
        for pos, eta in reversed(self.etas):
            y[pos] = eta @ y
        return self._lu.solve(y, trans="T")

    def update(self, alpha: np.ndarray, pos: int) -> None:
        """Record the pivot replacing basic position ``pos``.

        ``alpha`` is the FTRAN image of the entering column against the
        *current* factors. Raises :class:`_SingularBasis` on a pivot element
        too small to divide by — the caller refactorizes.
        """
        pivot = alpha[pos]
        if abs(pivot) < _PIVOT_TOL:
            raise _SingularBasis
        eta = -alpha / pivot
        eta[pos] = 1.0 / pivot
        self.etas.append((pos, eta))


class _BoundedSimplex:
    """Two-phase revised simplex over ``A x = b, lb <= x <= ub``.

    The columns are laid out as ``[structural+slack | artificial]`` (an
    :class:`LPRows` matrix); the artificial block only participates in cold
    starts and is pinned at zero afterwards (and from the beginning on warm
    starts).
    """

    def __init__(
        self,
        rows: LPRows,
        b: np.ndarray,
        lb: np.ndarray,
        ub: np.ndarray,
        max_iterations: Optional[int],
    ) -> None:
        self.m, self.n = rows.m, rows.n_eq
        self.n_total = self.n + self.m
        self.n_structural = self.n
        self.max_iterations = max_iterations or max(
            5000, _MAX_ITER_FACTOR * (self.m + self.n)
        )
        self.b = b
        self.lb = np.concatenate([lb, np.zeros(self.m)])
        self.ub = np.concatenate([ub, np.full(self.m, math.inf)])
        self.a = rows.a
        residual = self._reset_cold()
        # One artificial per row, signed so its value is |residual| >= 0.
        self.a = rows.with_artificial_signs(np.where(residual >= 0, 1.0, -1.0))
        self.at = self.a.T  # CSR view sharing the CSC arrays
        self.warm_started = False
        self.refactorizations = 0
        self.dual_pivots = 0
        self.max_eta_len = 0
        self._bland_after = bland_cutover(self.m, self.n)

    # -- main driver ---------------------------------------------------------

    def solve(self, c: np.ndarray, warm_flags: Optional[np.ndarray] = None):
        """Phase-2 costs ``c`` cover every column, artificials included."""
        iterations = 0
        if warm_flags is not None and self._install(warm_flags):
            self.warm_started = True
            outcome = self._warm_solve(c)
            if outcome is not None:
                return outcome
            # Warm start went nowhere (stale numerics); restart cold.
            self.warm_started = False
            self.dual_pivots = 0
            self._reset_cold()

        # Phase 1: minimize sum of artificials.
        c1 = np.zeros(self.n_total)
        c1[self.n_structural :] = 1.0
        status, it1 = self._primal(c1)
        iterations += it1
        if status is not LPStatus.OPTIMAL and status is not LPStatus.UNBOUNDED:
            return status, iterations
        phase1_obj = float(c1 @ self._values())
        if phase1_obj > _FEAS_TOL * max(1.0, np.abs(self.b).max(initial=1.0)):
            return LPStatus.INFEASIBLE, iterations
        # Pin artificials at zero so they never re-enter.
        self.ub[self.n_structural :] = 0.0
        self._evict_artificials()

        # Phase 2: real objective on structural columns only.
        status, it2 = self._primal(c)
        return status, iterations + it2

    def solution(self) -> np.ndarray:
        return self._values()[: self.n_structural]

    def export_basis(self, n: int, m: int, slack_rows: np.ndarray) -> Optional[LPBasis]:
        """Snapshot the current basis, or None if an artificial is basic."""
        flags = self.status_flags
        if np.any(flags[self.n_structural :] == _BASIC):
            return None  # degenerate leftover: not a clean structural basis
        var_status = flags[:n].astype(np.int8).copy()
        row_status = np.full(m, NO_SLACK, dtype=np.int8)
        row_status[slack_rows] = flags[n : self.n_structural]
        return LPBasis(var_status, row_status)

    # -- warm start ----------------------------------------------------------

    def _install(self, flags: np.ndarray) -> bool:
        """Adopt an external basis; True on success (factors + xb ready)."""
        if len(flags) != self.n_structural:
            return False
        full = np.concatenate(
            [flags.astype(np.int8), np.full(self.m, _AT_LOWER, dtype=np.int8)]
        )
        basis = np.flatnonzero(full == _BASIC)
        if len(basis) != self.m:
            return False
        # Artificials never participate in a warm solve.
        self.ub[self.n_structural :] = 0.0
        # Normalize nonbasic statuses against the *current* bounds (they may
        # have changed since the basis was recorded: branching tightens them).
        lb, ub = self.lb, self.ub
        nonbasic = full != _BASIC
        at_upper = nonbasic & (full == _AT_UPPER) & ~np.isfinite(ub)
        full[at_upper] = _AT_LOWER
        at_lower = nonbasic & (full == _AT_LOWER) & ~np.isfinite(lb)
        flip = at_lower & np.isfinite(ub)
        full[flip] = _AT_UPPER
        xn = np.where(full == _AT_UPPER, ub, np.where(np.isfinite(lb), lb, 0.0))
        try:
            factors = _BasisFactors(self.a[:, basis])
        except _SingularBasis:
            return False
        self.refactorizations += 1
        self.status_flags = full
        self.basis = basis
        self.xn = xn
        self.factors = factors
        self._recompute_xb()
        return True

    def _reset_cold(self) -> np.ndarray:
        """Install the artificial starting basis; returns the residual.

        Every structural variable starts at a finite bound (0 for free
        ones) and each artificial takes ``|residual|`` of its row. The
        artificials rest at 0 in the residual, so it does not depend on
        their column signs, which follow its sign.
        """
        lb, ub = self.lb[: self.n], self.ub[: self.n]
        xn = np.where(np.isfinite(lb), lb, np.where(np.isfinite(ub), ub, 0.0))
        flags = np.where(
            np.isfinite(lb), _AT_LOWER, np.where(np.isfinite(ub), _AT_UPPER, _AT_LOWER)
        ).astype(np.int8)
        xn = np.concatenate([xn, np.zeros(self.m)])
        residual = self.b - self.a @ xn
        xn[self.n :] = np.abs(residual)
        self.xn = xn
        self.ub[self.n_structural :] = math.inf
        self.status_flags = np.concatenate(
            [flags, np.full(self.m, _BASIC, dtype=np.int8)]
        )
        self.basis = np.arange(self.n, self.n + self.m)
        self.factors: Optional[_BasisFactors] = None
        self.xb: Optional[np.ndarray] = None
        return residual

    def _warm_solve(self, c: np.ndarray):
        """Dual (or primal phase-2) re-optimization from the installed basis.

        Returns ``(status, iterations)``, or None to request a cold restart.
        """
        reduced = self._reduced_costs(c)
        if self._dual_feasible(reduced):
            status, its = self._dual(c)
            if status is LPStatus.OPTIMAL:
                # Polish with primal phase 2 (usually 0 iterations): bound
                # flips during the dual pass can leave tiny residuals.
                status2, its2 = self._primal(c)
                return status2, its + its2
            if status is LPStatus.INFEASIBLE:
                return LPStatus.INFEASIBLE, its
            return None  # iteration cap / numerics: cold restart
        if self._primal_feasible():
            # Basis is primal feasible but not dual feasible (e.g. the
            # objective changed): plain phase 2, still no phase 1.
            return self._primal(c)
        return None

    # -- factorization-backed state ------------------------------------------

    def _refactorize(self) -> None:
        self.factors = _BasisFactors(self.a[:, self.basis])
        self.refactorizations += 1

    def _ensure_factors(self) -> None:
        if self.factors is None or self.factors.stale:
            if self.factors is not None:
                self.max_eta_len = max(self.max_eta_len, self.factors.eta_len)
            self._refactorize()
            self._recompute_xb()

    def _recompute_xb(self) -> None:
        nonbasic_contrib = np.where(self.status_flags == _BASIC, 0.0, self.xn)
        rhs = self.b - self.a @ nonbasic_contrib
        self.xb = self.factors.ftran(rhs)

    def _values(self) -> np.ndarray:
        values = self.xn.copy()
        if self.xb is None:
            self._ensure_factors()
        values[self.basis] = self.xb
        return values

    def _reduced_costs(self, c: np.ndarray) -> np.ndarray:
        y = self.factors.btran(c[self.basis])
        return c - self.at @ y

    def _movable(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nonbasic columns with ``lb < ub``: (at lower, at upper, free) masks."""
        flags, lb, ub = self.status_flags, self.lb, self.ub
        movable = (flags != _BASIC) & (lb != ub)
        free = movable & ~np.isfinite(lb) & ~np.isfinite(ub)
        return movable & (flags == _AT_LOWER), movable & (flags == _AT_UPPER), free

    def _dual_feasible(self, reduced: np.ndarray, tol: float = 1e-7) -> bool:
        at_lower, at_upper, free = self._movable()
        if np.any(np.abs(reduced[free]) > tol):
            return False
        if np.any(reduced[at_lower & ~free] < -tol):
            return False
        return not np.any(reduced[at_upper] > tol)

    def _primal_feasible(self, tol: float = _FEAS_TOL) -> bool:
        basis = self.basis
        lo = self.lb[basis]
        hi = self.ub[basis]
        return bool(
            np.all(self.xb >= lo - tol) and np.all(self.xb <= hi + tol)
        )

    def _evict_artificials(self) -> None:
        """Pivot basic artificials (at value ~0) out of the basis when possible.

        Row ``pos`` of ``B^-1 A`` prices every column in one sparse matvec;
        the first nonbasic structural column with a usable pivot element
        enters at a zero step.
        """
        changed = False
        for pos in range(self.m):
            if self.basis[pos] < self.n_structural:
                continue
            try:
                self._ensure_factors()
            except _SingularBasis:
                break
            row = self.at @ self.factors.btran(_unit(self.m, pos))
            usable = (np.abs(row[: self.n_structural]) > 1e-7) & (
                self.status_flags[: self.n_structural] != _BASIC
            )
            if not usable.any():
                continue
            entering = int(np.argmax(usable))
            try:
                self.factors.update(self.factors.ftran(self._column(entering)), pos)
            except _SingularBasis:
                self.factors = None
            self._pivot(entering=entering, leaving_pos=pos, t=0.0, entering_to=None)
            changed = True
        if changed:
            self.factors = None
            self.xb = None

    def _column(self, j: int) -> np.ndarray:
        """Column ``j`` of the tableau, dense, from its CSC slice."""
        a = self.a
        lo, hi = a.indptr[j], a.indptr[j + 1]
        col = np.zeros(self.m)
        col[a.indices[lo:hi]] = a.data[lo:hi]
        return col

    # -- primal simplex ------------------------------------------------------

    def _primal(self, c: np.ndarray):
        iteration = 0
        while iteration < self.max_iterations:
            try:
                self._ensure_factors()
                reduced = self._reduced_costs(c)
            except _SingularBasis:
                return LPStatus.INFEASIBLE, iteration

            use_bland = iteration > self._bland_after
            entering = self._price(reduced, use_bland)
            if entering is None:
                return LPStatus.OPTIMAL, iteration

            if not math.isfinite(self.lb[entering]) and not math.isfinite(
                self.ub[entering]
            ):
                # Free nonbasic variable: move against its reduced cost.
                direction = -1.0 if reduced[entering] > 0 else 1.0
            else:
                direction = 1.0 if self.status_flags[entering] == _AT_LOWER else -1.0
            col = self.factors.ftran(self._column(entering)) * direction

            best_t, leaving_pos, leaving_to = self._ratio_test(
                entering, col, use_bland
            )
            if leaving_pos is None and not math.isfinite(best_t):
                return LPStatus.UNBOUNDED, iteration

            best_t = max(best_t, 0.0)
            if leaving_pos is None:
                # Bound flip: entering variable jumps to its other bound.
                self.status_flags[entering] = (
                    _AT_UPPER if self.status_flags[entering] == _AT_LOWER else _AT_LOWER
                )
                self.xn[entering] = (
                    self.ub[entering]
                    if self.status_flags[entering] == _AT_UPPER
                    else self.lb[entering]
                )
                self.xb -= best_t * col
            else:
                entering_value = self.xn[entering] + best_t * direction
                self.xb -= best_t * col
                self.xb[leaving_pos] = entering_value
                try:
                    self.factors.update(col * direction, leaving_pos)
                except _SingularBasis:
                    self.factors = None  # refactorize next round
                self._pivot(entering, leaving_pos, best_t * direction, leaving_to)
            iteration += 1
        return LPStatus.ITERATION_LIMIT, iteration

    def _ratio_test(self, entering: int, col: np.ndarray, use_bland: bool):
        """Max step for the entering variable; vectorized over basic rows."""
        basis = self.basis
        xb = self.xb
        t = np.full(self.m, math.inf)
        to = np.full(self.m, _AT_LOWER, dtype=np.int8)

        pos_rows = col > _TOL
        if np.any(pos_rows):
            bound = self.lb[basis[pos_rows]]
            ok = np.isfinite(bound)
            idx = np.flatnonzero(pos_rows)[ok]
            t[idx] = np.maximum(0.0, (xb[idx] - bound[ok]) / col[idx])
        neg_rows = col < -_TOL
        if np.any(neg_rows):
            bound = self.ub[basis[neg_rows]]
            ok = np.isfinite(bound)
            idx = np.flatnonzero(neg_rows)[ok]
            t[idx] = np.maximum(0.0, (bound[ok] - xb[idx]) / (-col[idx]))
            to[idx] = _AT_UPPER

        limit = self.ub[entering] - self.lb[entering]
        row_min = t.min(initial=math.inf)
        if row_min >= limit:
            # Bound flip (or unbounded when the limit is infinite too).
            return limit, None, None
        ties = np.flatnonzero(t <= row_min + _TOL)
        if use_bland:
            # Bland: smallest leaving variable index for termination.
            pos = int(ties[np.argmin(basis[ties])])
        else:
            # Stability: largest pivot magnitude among the tied rows.
            pos = int(ties[np.argmax(np.abs(col[ties]))])
        return float(t[pos]), pos, int(to[pos])

    def _price(self, reduced: np.ndarray, use_bland: bool) -> Optional[int]:
        """Pick the entering variable (Dantzig, or Bland when anti-cycling)."""
        at_lower, at_upper, free = self._movable()
        score = np.zeros(self.n_total)
        if np.any(free):
            score[free] = np.abs(reduced[free])
        low = at_lower & ~free
        score[low] = -reduced[low]
        score[at_upper] = reduced[at_upper]
        candidates = score > _TOL
        if not np.any(candidates):
            return None
        if use_bland:
            return int(np.argmax(candidates))  # first candidate index
        return int(np.argmax(score))

    # -- dual simplex --------------------------------------------------------

    def _dual(self, c: np.ndarray):
        """Bounded-variable dual simplex from a dual-feasible basis.

        Pivots until the basics are back inside their bounds (OPTIMAL), no
        entering column exists (primal INFEASIBLE), or the iteration cap
        trips (caller falls back to a cold start).
        """
        iteration = 0
        while iteration < self.max_iterations:
            try:
                self._ensure_factors()
            except _SingularBasis:
                return LPStatus.ITERATION_LIMIT, iteration
            basis = self.basis
            lo = self.lb[basis]
            hi = self.ub[basis]
            below = np.where(np.isfinite(lo), lo - self.xb, -math.inf)
            above = np.where(np.isfinite(hi), self.xb - hi, -math.inf)
            viol = np.maximum(below, above)
            r = int(np.argmax(viol))
            if viol[r] <= _FEAS_TOL:
                return LPStatus.OPTIMAL, iteration
            to_lower = below[r] >= above[r]

            # One BTRAN and one sparse product for both c_B and e_r.
            rhs = np.zeros((self.m, 2))
            rhs[:, 0] = c[self.basis]
            rhs[r, 1] = 1.0
            priced = self.at @ self.factors.btran(rhs)
            reduced = c - priced[:, 0]
            alpha = priced[:, 1]

            entering = self._dual_ratio_test(reduced, alpha, to_lower)
            if entering is None:
                return LPStatus.INFEASIBLE, iteration

            alpha_q = self.factors.ftran(self._column(entering))
            bound_r = lo[r] if to_lower else hi[r]
            step = (self.xb[r] - bound_r) / alpha[entering]
            self.xb -= step * alpha_q
            self.xb[r] = self.xn[entering] + step
            try:
                self.factors.update(alpha_q, r)
            except _SingularBasis:
                self.factors = None
            self._pivot(
                entering, r, step, _AT_LOWER if to_lower else _AT_UPPER
            )
            iteration += 1
            self.dual_pivots += 1
        return LPStatus.ITERATION_LIMIT, iteration

    def _dual_ratio_test(
        self, reduced: np.ndarray, alpha: np.ndarray, to_lower: bool
    ) -> Optional[int]:
        """Entering column keeping the reduced costs dual feasible."""
        at_lower, at_upper, free = self._movable()
        # Leaving variable sits below its lower bound (to_lower): its row
        # value must increase, so entering-at-lower needs alpha < 0 and
        # entering-at-upper needs alpha > 0; mirrored when above the upper.
        if to_lower:
            ok_low = at_lower & (alpha < -_PIVOT_TOL)
            ok_up = at_upper & (alpha > _PIVOT_TOL)
        else:
            ok_low = at_lower & (alpha > _PIVOT_TOL)
            ok_up = at_upper & (alpha < -_PIVOT_TOL)
        ok_free = free & (np.abs(alpha) > _PIVOT_TOL)
        candidates = ok_low | ok_up | ok_free
        if not np.any(candidates):
            return None
        idx = np.flatnonzero(candidates)
        ratios = np.abs(reduced[idx]) / np.abs(alpha[idx])
        best = ratios.min()
        ties = idx[ratios <= best + _TOL]
        # Prefer the largest pivot among the tied ratios for stability.
        return int(ties[np.argmax(np.abs(alpha[ties]))])

    # -- pivot bookkeeping ---------------------------------------------------

    def _pivot(
        self,
        entering: int,
        leaving_pos: int,
        t: float,
        entering_to: Optional[int],
    ) -> None:
        """Swap ``entering`` into the basis at row ``leaving_pos``.

        ``t`` is the signed step of the entering variable from its resting
        bound; ``entering_to`` is the bound status the *leaving* variable
        lands on (None when evicting a zero-valued artificial in place).
        """
        leaving = self.basis[leaving_pos]
        start = self.xn[entering]
        self.basis[leaving_pos] = entering
        self.status_flags[entering] = _BASIC
        self.xn[entering] = start + t
        if entering_to is None:
            # Artificial eviction at degenerate step: leaving var rests at 0.
            self.status_flags[leaving] = _AT_LOWER
            self.xn[leaving] = self.lb[leaving] if math.isfinite(self.lb[leaving]) else 0.0
        else:
            self.status_flags[leaving] = entering_to
            self.xn[leaving] = (
                self.lb[leaving] if entering_to == _AT_LOWER else self.ub[leaving]
            )


def _unit(size: int, index: int) -> np.ndarray:
    vec = np.zeros(size)
    vec[index] = 1.0
    return vec
