"""Mixed-integer linear programming model container.

:class:`Model` plays the role that YALMIP played in the paper's ARCHEX
prototype: it collects decision variables, linear constraints and an
objective, and exports them in a sparse matrix form consumed by the solvers
in :mod:`repro.ilp.branch_and_bound` and :mod:`repro.ilp.scipy_backend`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional

import numpy as np
from scipy import sparse

from .constraint import Constraint
from .expr import ExprLike, LinExpr, Var, as_expr

__all__ = ["Model", "MatrixForm"]


@dataclass
class MatrixForm:
    """Matrix export of a model.

    Rows are ordered as in the model; ``senses[i]`` is the row's comparison
    against ``b[i]``. The objective is ``c @ x + obj_constant`` to be
    *minimized* (maximization is normalized away at export time).

    ``A`` is a scipy CSR sparse matrix — the eager encodings (ILP-AR,
    ILP-TSE) reach hundreds of thousands of rows where a dense matrix
    would not fit in memory. Every solver consumes it sparse, the
    from-scratch simplex included; :meth:`dense_A` densifies on demand
    for callers that want a dense view (small models only).
    """

    c: np.ndarray
    obj_constant: float
    A: "sparse.csr_matrix"
    senses: List[str]
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integrality: np.ndarray  # bool per column
    variables: List[Var] = field(default_factory=list)

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    @property
    def num_constrs(self) -> int:
        return len(self.senses)

    def dense_A(self) -> np.ndarray:
        return self.A.toarray() if sparse.issparse(self.A) else np.asarray(self.A)


class Model:
    """A mixed-integer linear program under construction.

    Examples
    --------
    >>> m = Model("toy")
    >>> x = m.add_binary("x")
    >>> y = m.add_binary("y")
    >>> _ = m.add_constr(x + y >= 1, name="cover")
    >>> m.minimize(2 * x + 3 * y)
    >>> result = m.solve()
    >>> result.objective
    2.0
    """

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self.variables: List[Var] = []
        self.constraints: List[Constraint] = []
        self._names: Dict[str, Var] = {}
        self._objective: LinExpr = LinExpr()
        self._sense: str = "min"
        self._auto_var = 0
        self._auto_con = 0

    # -- variables ----------------------------------------------------------

    def add_var(
        self,
        name: Optional[str] = None,
        lb: float = 0.0,
        ub: float = math.inf,
        is_integer: bool = False,
    ) -> Var:
        """Create and register a decision variable."""
        if name is None:
            name = f"_v{self._auto_var}"
            self._auto_var += 1
            while name in self._names:
                name = f"_v{self._auto_var}"
                self._auto_var += 1
        if name in self._names:
            raise ValueError(f"duplicate variable name {name!r}")
        var = Var(name, lb=lb, ub=ub, is_integer=is_integer, index=len(self.variables))
        self.variables.append(var)
        self._names[name] = var
        return var

    def add_binary(self, name: Optional[str] = None) -> Var:
        """Create a 0-1 decision variable (the paper's edge/indicator vars)."""
        return self.add_var(name, lb=0.0, ub=1.0, is_integer=True)

    def add_integer(self, name: Optional[str] = None, lb: float = 0.0, ub: float = math.inf) -> Var:
        return self.add_var(name, lb=lb, ub=ub, is_integer=True)

    def add_continuous(
        self, name: Optional[str] = None, lb: float = 0.0, ub: float = math.inf
    ) -> Var:
        return self.add_var(name, lb=lb, ub=ub, is_integer=False)

    def var_by_name(self, name: str) -> Var:
        return self._names[name]

    # -- constraints ----------------------------------------------------------

    def add_constr(self, constraint: Constraint, name: str = "", tag: str = "") -> Constraint:
        """Register a constraint built via expression comparison operators."""
        if not isinstance(constraint, Constraint):
            raise TypeError(
                "add_constr expects a Constraint (did the comparison return a bool?)"
            )
        if name:
            constraint.name = name
        elif not constraint.name:
            constraint.name = f"c{self._auto_con}"
            self._auto_con += 1
        if tag:
            constraint.tag = tag
        self.constraints.append(constraint)
        return constraint

    def add_constrs(self, constraints: Iterable[Constraint], tag: str = "") -> List[Constraint]:
        return [self.add_constr(c, tag=tag) for c in constraints]

    # -- objective ----------------------------------------------------------

    def minimize(self, expr: ExprLike) -> None:
        self._objective = as_expr(expr)
        self._sense = "min"

    def maximize(self, expr: ExprLike) -> None:
        self._objective = as_expr(expr)
        self._sense = "max"

    @property
    def objective(self) -> LinExpr:
        return self._objective

    @property
    def sense(self) -> str:
        return self._sense

    # -- introspection ----------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    @property
    def num_constrs(self) -> int:
        return len(self.constraints)

    @property
    def num_integer_vars(self) -> int:
        return sum(1 for v in self.variables if v.is_integer)

    def stats(self) -> Dict[str, int]:
        """Model-size statistics (used by the Table III benchmark)."""
        nnz = sum(len(c.expr) for c in self.constraints)
        return {
            "variables": self.num_vars,
            "integer_variables": self.num_integer_vars,
            "constraints": self.num_constrs,
            "nonzeros": nnz,
        }

    def violated_constraints(
        self, assignment: Mapping[Var, float], tol: float = 1e-6
    ) -> List[Constraint]:
        """Constraints the assignment violates; empty when feasible."""
        return [c for c in self.constraints if not c.is_satisfied(assignment, tol)]

    # -- export ----------------------------------------------------------

    def _reusable_base(self, base: Optional[MatrixForm]) -> bool:
        """True when ``base`` is a prefix export of this model.

        Variables and constraints are append-only, so a previous export
        stays valid for its first ``num_vars`` columns / ``num_constrs``
        rows; identity checks on the boundary variables guard against a
        form exported from a different model.
        """
        if base is None:
            return False
        if base.num_vars > self.num_vars or base.num_constrs > self.num_constrs:
            return False
        if base.num_vars == 0:
            return self.num_vars == 0 or base.num_constrs == 0
        return (
            base.variables[0] is self.variables[0]
            and base.variables[base.num_vars - 1] is self.variables[base.num_vars - 1]
        )

    def to_matrix_form(self, base: Optional[MatrixForm] = None) -> MatrixForm:
        """Export to the matrix form the solvers consume.

        Maximization is converted to minimization by negating the objective;
        :class:`repro.ilp.solver.SolveResult` undoes the sign flip.

        ``base`` — a previous export of *this* model — makes the export
        incremental: rows already encoded there are reused (the CSR block is
        widened to the new column count without copying its arrays) and only
        constraints added since are walked. This is what keeps per-iteration
        SOLVEILP cost proportional to the learned constraints, not the whole
        model. Objective, bounds and integrality are always rebuilt — they
        are O(n) vector fills. An incompatible ``base`` (different model, or
        rows removed) falls back to a full export.
        """
        n = self.num_vars
        c = np.zeros(n)
        for var, coeff in self._objective.terms.items():
            c[var.index] += coeff
        obj_constant = self._objective.constant
        if self._sense == "max":
            c = -c
            obj_constant = -obj_constant

        m = self.num_constrs
        first_row = base.num_constrs if self._reusable_base(base) else 0
        rows: List[int] = []
        cols: List[int] = []
        data: List[float] = []
        b_new = np.zeros(m - first_row)
        senses_new: List[str] = []
        for row, con in enumerate(self.constraints[first_row:]):
            for var, coeff in con.expr.terms.items():
                rows.append(row)
                cols.append(var.index)
                data.append(coeff)
            b_new[row] = con.rhs
            senses_new.append(con.sense)
        a_new = sparse.csr_matrix(
            (data, (rows, cols)), shape=(m - first_row, n), dtype=float
        )
        a_new.sum_duplicates()

        if first_row:
            old = base.A
            # Same data/indices/indptr arrays, wider shape: column indices
            # are stable because variables are append-only.
            widened = sparse.csr_matrix(
                (old.data, old.indices, old.indptr), shape=(first_row, n)
            )
            a = sparse.vstack([widened, a_new], format="csr")
            b = np.concatenate([base.b, b_new])
            senses = list(base.senses) + senses_new
        else:
            a = a_new
            b = b_new
            senses = senses_new

        lb = np.array([v.lb for v in self.variables])
        ub = np.array([v.ub for v in self.variables])
        integrality = np.array([v.is_integer for v in self.variables], dtype=bool)
        return MatrixForm(
            c=c,
            obj_constant=obj_constant,
            A=a,
            senses=senses,
            b=b,
            lb=lb,
            ub=ub,
            integrality=integrality,
            variables=list(self.variables),
        )

    # -- solving ----------------------------------------------------------

    def solve(self, backend: str = "auto", **options):
        """Solve the model; see :func:`repro.ilp.solver.solve`."""
        from .solver import solve

        return solve(self, backend=backend, **options)

    def __repr__(self) -> str:
        return (
            f"Model({self.name!r}, vars={self.num_vars}, "
            f"constrs={self.num_constrs}, sense={self._sense})"
        )
