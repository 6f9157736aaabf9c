"""Linear programming over first-order constraint schemata.

An embedded two-phase simplex handles the ground LPs; constraint schemata
pair case statements whose values are affine expressions in the LP
variables, and constraint generation walks consistent cross-partitions to
find maximally violated ground inequalities instead of enumerating the
whole cross product.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence

import numpy as np

from .cases import CaseStatement
from .logic import ConsistencyChecker, conj

VIOLATION_TOL = 1e-6
FEASIBILITY_TOL = 1e-7
_PIVOT_TOL = 1e-9
MAX_GENERATION_ITERS = 1000  # LP solves in one constraint generation


class FOLPError(Exception):
    pass


class LPNumericalError(FOLPError):
    pass


# ---------------------------------------------------------------------------
# affine expressions


@dataclass(frozen=True)
class LinExpr:
    """Affine expression over named LP variables."""

    coeffs: tuple = ()  # ((var, coeff), ...) sorted by variable
    const: float = 0.0

    @staticmethod
    def of(mapping: Optional[Mapping[str, float]] = None, const: float = 0.0) -> "LinExpr":
        items = tuple(
            (v, float(k)) for v, k in sorted((mapping or {}).items()) if float(k) != 0.0
        )
        return LinExpr(items, float(const))

    def evaluate(self, weights: Mapping[str, float]) -> float:
        return self.const + sum(k * weights[v] for v, k in self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, float)):
            return LinExpr(self.coeffs, self.const + float(other))
        if isinstance(other, LinExpr):
            acc = dict(self.coeffs)
            for v, k in other.coeffs:
                acc[v] = acc.get(v, 0.0) + k
            return LinExpr.of(acc, self.const + other.const)
        return NotImplemented

    __radd__ = __add__

    def __mul__(self, k):
        if not isinstance(k, (int, float)):
            return NotImplemented
        return LinExpr.of({v: c * k for v, c in self.coeffs}, self.const * k)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        return self + (-other if isinstance(other, LinExpr) else -float(other))


def _as_expr(value) -> LinExpr:
    return value if isinstance(value, LinExpr) else LinExpr(const=float(value))


def affine_case(c: CaseStatement, var: Optional[str], scale: float = 1.0) -> CaseStatement:
    """Replace numeric values t by t·scale·var (or the constant t·scale)."""
    parts = []
    for p in c.partitions:
        t = float(p.value)
        expr = LinExpr.of({var: t * scale}) if var is not None else LinExpr(const=t * scale)
        parts.append(replace(p, value=expr))
    return CaseStatement(tuple(parts), c.partitioned)


# ---------------------------------------------------------------------------
# ground LP model


@dataclass(frozen=True)
class LinearConstraint:
    coeffs: tuple  # ((var, coeff), ...)
    relation: str  # "<=", ">=", or "="
    rhs: float

    def __post_init__(self):
        if self.relation not in ("<=", ">=", "="):
            raise FOLPError(f"unknown relation {self.relation!r}")
        for _, k in self.coeffs:
            if not np.isfinite(k):
                raise FOLPError("non-finite constraint coefficient")
        if not np.isfinite(self.rhs):
            raise FOLPError("non-finite right-hand side")


@dataclass(frozen=True)
class LPModel:
    variables: tuple
    objective: tuple  # ((var, coeff), ...), minimized
    constraints: tuple

    def __post_init__(self):
        declared = set(self.variables)
        if len(declared) != len(self.variables):
            raise FOLPError("duplicate LP variable")
        for v, k in self.objective:
            if v not in declared:
                raise FOLPError(f"objective references undeclared variable {v}")
            if not np.isfinite(k):
                raise FOLPError("non-finite objective coefficient")
        for con in self.constraints:
            for v, _ in con.coeffs:
                if v not in declared:
                    raise FOLPError(f"constraint references undeclared variable {v}")


@dataclass(frozen=True)
class LPSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    assignment: Optional[dict] = None
    objective: Optional[float] = None
    ray: Optional[dict] = None  # improving direction when unbounded


def _flip(rel: str) -> str:
    return {"<=": ">=", ">=": "<=", "=": "="}[rel]


class _Tableau:
    """Dense full-tableau simplex with Dantzig/Bland pivoting."""

    def __init__(self, T: np.ndarray, b: np.ndarray, basis: list):
        self.T = T
        self.b = b
        self.basis = basis
        self.degenerate = 0

    def run(self, cost: np.ndarray, banned: frozenset) -> Optional[int]:
        """Minimize cost over the tableau; returns entering column if unbounded."""
        while True:
            cb = cost[self.basis]
            red = cb @ self.T - cost
            if banned:
                red[list(banned)] = -np.inf
            bland = self.degenerate >= 50
            j = self._entering(red, bland)
            if j is None:
                return None
            r = self._leaving(j, bland)
            if r is None:
                return j
            if self.b[r] <= _PIVOT_TOL:
                self.degenerate += 1
            else:
                self.degenerate = 0
            self._pivot(r, j)

    def _entering(self, red: np.ndarray, bland: bool) -> Optional[int]:
        if bland:
            for j, v in enumerate(red):
                if v > _PIVOT_TOL:
                    return j
            return None
        j = int(np.argmax(red))
        return j if red[j] > _PIVOT_TOL else None

    def _leaving(self, j: int, bland: bool) -> Optional[int]:
        best = None
        best_ratio = None
        col = self.T[:, j]
        for i in range(len(self.b)):
            if col[i] > _PIVOT_TOL:
                ratio = self.b[i] / col[i]
                if best_ratio is None or ratio < best_ratio - 1e-12:
                    best, best_ratio = i, ratio
                elif abs(ratio - best_ratio) <= 1e-12:
                    if bland and self.basis[i] < self.basis[best]:
                        best = i
        return best

    def _pivot(self, r: int, j: int):
        piv = self.T[r, j]
        self.T[r] /= piv
        self.b[r] /= piv
        for i in range(len(self.b)):
            if i != r:
                f = self.T[i, j]
                if f != 0.0:
                    self.T[i] -= f * self.T[r]
                    self.b[i] -= f * self.b[r]
        self.basis[r] = j


def solve_lp(m: LPModel) -> LPSolution:
    """Two-phase dense simplex; deterministic, feasibility tolerance 1e-7."""
    n = len(m.variables)
    vidx = {v: i for i, v in enumerate(m.variables)}
    cx = np.zeros(n)
    for v, k in m.objective:
        cx[vidx[v]] += k

    rows = []
    for con in m.constraints:
        a = np.zeros(n)
        for v, k in con.coeffs:
            a[vidx[v]] += k
        rel, rhs = con.relation, float(con.rhs)
        if rhs < 0.0:
            a, rhs, rel = -a, -rhs, _flip(rel)
        rows.append((a, rel, rhs))

    mr = len(rows)
    # columns: x+ (n), x- (n), one slack/surplus per inequality, artificials
    n_slack = sum(1 for _, rel, _ in rows if rel != "=")
    width = 2 * n + n_slack
    art_rows = [i for i, (_, rel, _) in enumerate(rows) if rel != "<="]
    total = width + len(art_rows)
    T = np.zeros((mr, total))
    b = np.zeros(mr)
    basis = [-1] * mr
    sl = 2 * n
    for i, (a, rel, rhs) in enumerate(rows):
        T[i, :n] = a
        T[i, n : 2 * n] = -a
        b[i] = rhs
        if rel == "<=":
            T[i, sl] = 1.0
            basis[i] = sl
            sl += 1
        elif rel == ">=":
            T[i, sl] = -1.0
            sl += 1
    art = width
    art_cols = []
    for i in art_rows:
        T[i, art] = 1.0
        basis[i] = art
        art_cols.append(art)
        art += 1

    tab = _Tableau(T, b, basis)
    if art_cols:
        cost1 = np.zeros(total)
        cost1[art_cols] = 1.0
        tab.run(cost1, frozenset())
        if cost1[tab.basis] @ tab.b > FEASIBILITY_TOL:
            return LPSolution(status="infeasible")
        # drive leftover zero-level artificials out of the basis
        for r in range(mr):
            if tab.basis[r] in art_cols:
                for j in range(width):
                    if abs(tab.T[r, j]) > _PIVOT_TOL:
                        tab._pivot(r, j)
                        break

    cost2 = np.zeros(total)
    cost2[:n] = cx
    cost2[n : 2 * n] = -cx
    entering = tab.run(cost2, frozenset(art_cols))
    if entering is not None:
        direction = np.zeros(total)
        direction[entering] = 1.0
        for i, bi in enumerate(tab.basis):
            direction[bi] = -tab.T[i, entering]
        dx = direction[:n] - direction[n : 2 * n]
        ray = {v: float(dx[i]) for v, i in vidx.items() if abs(dx[i]) > 1e-12}
        return LPSolution(status="unbounded", ray=ray)

    y = np.zeros(total)
    for i, bi in enumerate(tab.basis):
        y[bi] = tab.b[i]
    x = y[:n] - y[n : 2 * n]
    assignment = {v: float(x[i]) for v, i in vidx.items()}

    for con in m.constraints:
        lhs = sum(k * assignment[v] for v, k in con.coeffs)
        slack = con.rhs - lhs
        bad = (
            (con.relation == "<=" and slack < -FEASIBILITY_TOL * (1 + abs(con.rhs)))
            or (con.relation == ">=" and slack > FEASIBILITY_TOL * (1 + abs(con.rhs)))
            or (con.relation == "=" and abs(slack) > FEASIBILITY_TOL * (1 + abs(con.rhs)))
        )
        if bad:
            raise LPNumericalError(f"solution violates {con} by {slack}")

    objective = float(cx @ x)
    return LPSolution(status="optimal", assignment=assignment, objective=objective)


# ---------------------------------------------------------------------------
# first-order constraint schemata


@dataclass(frozen=True)
class ConstraintSchema:
    """0 ≥ case_1 ⊕ … ⊕ case_k for every state, values affine in the variables.

    `certified` lists indices of orthogonal indicator cases: exactly two
    partitions, the positive formula first, positives pairwise disjoint at
    the bound.  `_selections` walks the cross product: the seed row tries each
    certified case's negative partition first, and the violation search visits
    each positive with all other certified cases negative (plus the all-negative
    selection) instead of the full cross product.
    """

    schema_id: str
    cases: tuple
    certified: tuple = ()

    def __post_init__(self):
        for i in self.certified:
            if not (0 <= i < len(self.cases)):
                raise FOLPError(f"certified index {i} out of range")
            if len(self.cases[i].partitions) != 2:
                raise FOLPError("certified cases must be indicator pairs")


@dataclass(frozen=True)
class FirstOrderLP:
    variables: tuple
    objective: tuple  # ((var, coeff), ...), minimized
    schemata: tuple

    def __post_init__(self):
        declared = set(self.variables)
        for v, _ in self.objective:
            if v not in declared:
                raise FOLPError(f"objective references undeclared variable {v}")


@dataclass(frozen=True)
class ViolatedConstraint:
    schema_id: str
    selection: tuple  # partition index per schema case
    expr: LinExpr  # inequality expr ≤ 0
    violation: float


def _selections(
    schema: ConstraintSchema,
    checker: ConsistencyChecker,
    levels: Sequence,
    sel: list,
    formulas: tuple,
    expr: LinExpr,
):
    """Consistent completions of a partial selection, depth first, with their summed exprs.

    `levels` lists the (case index, partition order) pairs still to choose.  Each
    choice is written into `sel` in place, so read it before resuming the walk.
    """
    if not levels:
        yield expr
        return
    (i, order), rest = levels[0], levels[1:]
    parts = schema.cases[i].partitions
    for pi in order:
        fs = formulas + (parts[pi].formula,)
        if checker.is_consistent(conj(fs)):
            sel[i] = pi
            yield from _selections(schema, checker, rest, sel, fs, expr + _as_expr(parts[pi].value))


def search_schema(
    schema: ConstraintSchema,
    weights: Mapping[str, float],
    checker: ConsistencyChecker,
) -> Optional[ViolatedConstraint]:
    """Most-violated selection of one schema from `_selections`, or None within `VIOLATION_TOL`."""
    cert = tuple(schema.certified)
    others = tuple((i, range(len(c.partitions))) for i, c in enumerate(schema.cases) if i not in cert)
    best = None
    # all-negative, then each positive in turn: the only consistent certified
    # patterns, each checked as one conjunction before the walk extends it
    for positive in (None,) + cert:
        sel = [None] * len(schema.cases)
        for i in cert:
            sel[i] = 0 if i == positive else 1
        prefix = [schema.cases[i].partitions[sel[i]] for i in cert]
        formulas = tuple(p.formula for p in prefix)
        if formulas and not checker.is_consistent(conj(formulas)):
            continue
        expr = sum((_as_expr(p.value) for p in prefix), LinExpr())
        for full in _selections(schema, checker, others, sel, formulas, expr):
            value = full.evaluate(weights)
            if best is None or value > best.violation + 1e-15:
                best = ViolatedConstraint(schema.schema_id, tuple(sel), full, value)
    return None if best is None or best.violation <= VIOLATION_TOL else best


def search_schemata(
    schemata: Sequence,
    weights: Mapping[str, float],
    checker: ConsistencyChecker,
) -> list:
    """Per-schema (violation, wall-ms) results, schema order preserved."""
    out = []
    for schema in schemata:
        t0 = time.perf_counter()
        vc = search_schema(schema, weights, checker)
        out.append((vc, (time.perf_counter() - t0) * 1000.0))
    return out


# ---------------------------------------------------------------------------
# constraint generation


@dataclass(frozen=True)
class GenerationRow:
    iteration: int
    schema_id: str
    violation: float
    num_constraints: int
    lp_objective: float
    wall_ms: float


@dataclass(frozen=True)
class FOLPResult:
    assignment: dict
    objective: float
    stats: tuple
    constraints: tuple
    iterations: int


def _expr_row(expr: LinExpr) -> LinearConstraint:
    return LinearConstraint(expr.coeffs, "<=", -expr.const)


def seed_rows(folp: FirstOrderLP, checker: ConsistencyChecker) -> tuple:
    """(schema_id, selection, expr): each schema's first selection from `_selections`."""
    out = []
    for schema in folp.schemata:
        levels = tuple(
            (i, range(len(c.partitions))[:: -1 if i in schema.certified else 1])
            for i, c in enumerate(schema.cases)
        )
        sel = [None] * len(schema.cases)
        expr = next(_selections(schema, checker, levels, sel, (), LinExpr()), None)
        if expr is not None:
            out.append((schema.schema_id, tuple(sel), expr))
    return tuple(out)


def solve_first_order_lp(folp: FirstOrderLP, checker: ConsistencyChecker) -> FOLPResult:
    """Constraint generation: LP-solve, add maximally violated rows, repeat."""
    seen: set = set()
    rows: list = []
    stats: list = []
    for sid, sel, expr in seed_rows(folp, checker):
        key = (sid, sel)
        if key not in seen:
            seen.add(key)
            rows.append(_expr_row(expr))

    for it in range(1, MAX_GENERATION_ITERS + 1):
        sol = solve_lp(LPModel(folp.variables, folp.objective, tuple(rows)))
        if sol.status == "infeasible":
            raise FOLPError("generated LP is infeasible")
        if sol.status == "unbounded":
            scale = 1e4 / max(1.0, max(abs(r) for r in sol.ray.values()))
            weights = {v: scale * sol.ray.get(v, 0.0) for v in folp.variables}
            lp_objective = float("-inf")
        else:
            weights = sol.assignment
            lp_objective = sol.objective
        added = 0
        stalled = False
        found = search_schemata(folp.schemata, weights, checker)
        for schema, (vc, wall) in zip(folp.schemata, found):
            stats.append(
                GenerationRow(it, schema.schema_id, vc.violation if vc else 0.0, len(rows), lp_objective, wall)
            )
            if vc is None:
                continue
            key = (schema.schema_id, vc.selection)
            if key in seen:
                stalled = True
                continue
            seen.add(key)
            rows.append(_expr_row(vc.expr))
            added += 1
        if added == 0:
            if sol.status == "unbounded":
                direction = ", ".join(f"{v}={r:g}" for v, r in sorted(sol.ray.items()))
                raise FOLPError(f"LP unbounded along {direction} and no constraint cuts the ray")
            if stalled:
                raise LPNumericalError("violated constraint already present; tolerance conflict")
            return FOLPResult(sol.assignment, sol.objective, tuple(stats), tuple(rows), it)
    raise FOLPError(f"constraint generation exceeded {MAX_GENERATION_ITERS} iterations")
