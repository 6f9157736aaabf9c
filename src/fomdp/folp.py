"""Linear programming over first-order constraint schemata.

A two-phase simplex in plain Python solves the ground LPs, whose rows all
read `coeffs · x <= rhs`; constraint schemata pair case statements whose
values are affine expressions in the LP variables, and constraint generation
walks consistent cross-partitions to find maximally violated ground
inequalities instead of enumerating the whole cross product.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Mapping, Optional, Sequence

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
    """One row `coeffs · x <= rhs`."""

    coeffs: tuple  # ((var, coeff), ...)
    rhs: float

    def __post_init__(self):
        for _, k in self.coeffs:
            if not math.isfinite(k):
                raise FOLPError("non-finite constraint coefficient")
        if not math.isfinite(self.rhs):
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
            if not math.isfinite(k):
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


def _dot(xs, ys) -> float:
    """Sum of products, left to right (`sum` compensates from Python 3.12 on)."""
    acc = 0.0
    for x, y in zip(xs, ys):
        acc += x * y
    return acc


class _Tableau:
    """Dense full-tableau simplex with Dantzig/Bland pivoting, rows as lists."""

    def __init__(self, T: list, b: list, basis: list):
        self.T = T
        self.b = b
        self.basis = basis
        self.degenerate = 0

    def run(self, cost: list, banned: frozenset) -> Optional[int]:
        """Minimize cost over the tableau; returns entering column if unbounded."""
        while True:
            red = [0.0] * len(cost)  # `_dot(cb, column)` by rows; a zero basic cost adds ±0.0, a no-op from +0.0
            for i, row in zip(self.basis, self.T):
                if cost[i]:
                    red = [r + cost[i] * x for r, x in zip(red, row)]
            red = [r - c for r, c in zip(red, cost)]
            for j in banned:
                red[j] = -math.inf
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

    def _entering(self, red: list, bland: bool) -> Optional[int]:
        if bland:
            for j, v in enumerate(red):
                if v > _PIVOT_TOL:
                    return j
            return None
        j = max(range(len(red)), key=red.__getitem__)  # the first maximum
        return j if red[j] > _PIVOT_TOL else None

    def _leaving(self, j: int, bland: bool) -> Optional[int]:
        best = None
        best_ratio = None
        for i, row in enumerate(self.T):
            if row[j] > _PIVOT_TOL:
                ratio = self.b[i] / row[j]
                if best_ratio is None or ratio < best_ratio - 1e-12:
                    best, best_ratio = i, ratio
                elif abs(ratio - best_ratio) <= 1e-12:
                    if bland and self.basis[i] < self.basis[best]:
                        best = i
        return best

    def _pivot(self, r: int, j: int):
        piv = self.T[r][j]
        pivot_row = self.T[r] = [x / piv for x in self.T[r]]
        self.b[r] /= piv
        for i, row in enumerate(self.T):
            if i != r:
                f = row[j]
                if f != 0.0:
                    self.T[i] = [x - f * y for x, y in zip(row, pivot_row)]
                    self.b[i] -= f * self.b[r]
        self.basis[r] = j


def solve_lp(m: LPModel) -> LPSolution:
    """Two-phase dense simplex over `<=` rows; deterministic, feasibility tolerance 1e-7.

    A row with a negative right-hand side is negated into a surplus row, which
    starts phase 1 with an artificial basic variable.
    """
    n = len(m.variables)
    vidx = {v: i for i, v in enumerate(m.variables)}
    cx = [0.0] * n
    for v, k in m.objective:
        cx[vidx[v]] += k

    rows = []
    for con in m.constraints:
        a = [0.0] * n
        for v, k in con.coeffs:
            a[vidx[v]] += k
        rhs = float(con.rhs)
        surplus = rhs < 0.0
        if surplus:
            a, rhs = [-k for k in a], -rhs
        rows.append((a, surplus, rhs))

    mr = len(rows)
    # columns: x+ (n), x- (n), one slack/surplus per row, artificials
    width = 2 * n + mr
    art_rows = [i for i, (_, surplus, _) in enumerate(rows) if surplus]
    total = width + len(art_rows)
    T = []
    b = []
    basis = []
    for i, (a, surplus, rhs) in enumerate(rows):
        row = a + [-k for k in a] + [0.0] * (total - 2 * n)
        row[2 * n + i] = -1.0 if surplus else 1.0
        T.append(row)
        b.append(rhs)
        basis.append(-1 if surplus else 2 * n + i)
    art_cols = list(range(width, total))
    for i, art in zip(art_rows, art_cols):
        T[i][art] = 1.0
        basis[i] = art

    tab = _Tableau(T, b, basis)
    if art_cols:
        cost1 = [0.0] * width + [1.0] * len(art_cols)
        tab.run(cost1, frozenset())
        if _dot([cost1[i] for i in tab.basis], tab.b) > FEASIBILITY_TOL:
            return LPSolution(status="infeasible")
        # drive leftover zero-level artificials out of the basis
        for r in range(mr):
            if tab.basis[r] in art_cols:
                for j in range(width):
                    if abs(tab.T[r][j]) > _PIVOT_TOL:
                        tab._pivot(r, j)
                        break

    cost2 = cx + [-k for k in cx] + [0.0] * (total - 2 * n)
    entering = tab.run(cost2, frozenset(art_cols))
    if entering is not None:
        direction = [0.0] * total
        direction[entering] = 1.0
        for i, bi in enumerate(tab.basis):
            direction[bi] = -tab.T[i][entering]
        dx = [direction[i] - direction[n + i] for i in range(n)]
        ray = {v: dx[i] for v, i in vidx.items() if abs(dx[i]) > 1e-12}
        return LPSolution(status="unbounded", ray=ray)

    y = [0.0] * total
    for i, bi in enumerate(tab.basis):
        y[bi] = tab.b[i]
    x = [y[i] - y[n + i] for i in range(n)]
    assignment = {v: x[i] for v, i in vidx.items()}

    for con in m.constraints:
        lhs = sum(k * assignment[v] for v, k in con.coeffs)
        slack = con.rhs - lhs
        if slack < -FEASIBILITY_TOL * (1 + abs(con.rhs)):
            raise LPNumericalError(f"solution violates {con} by {slack}")

    return LPSolution(status="optimal", assignment=assignment, objective=_dot(cx, x))


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
    selection) instead of the full cross product, and skips any prefix whose
    value bound cannot reach `max(best, VIOLATION_TOL)` (exact; see `search_schema`).
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
    prune=None,
):
    """Consistent completions of a partial selection, depth first, with their summed exprs.

    `levels` lists the (case index, partition order) pairs still to choose.  Each
    choice is written into `sel` in place, so read it before resuming the walk.
    A partition is skipped unchecked when `prune(summed expr, levels left)` is true.
    """
    if not levels:
        yield expr
        return
    (i, order), rest = levels[0], levels[1:]
    parts = schema.cases[i].partitions
    for pi in order:
        e = expr + _as_expr(parts[pi].value)
        fs = formulas + (parts[pi].formula,)
        if not (prune and prune(e, rest)) and checker.is_consistent(conj(fs)):
            sel[i] = pi
            yield from _selections(schema, checker, rest, sel, fs, e, prune)


def search_schema(
    schema: ConstraintSchema,
    weights: Mapping[str, float],
    checker: ConsistencyChecker,
    pruned: Optional[list] = None,
) -> Optional[ViolatedConstraint]:
    """Most-violated selection of one schema from `_selections`, or None within `VIOLATION_TOL`.

    A prefix is skipped unchecked, counted in `pruned[0]`, when its value plus the
    largest value of each case left is below `max(best, VIOLATION_TOL)` by more
    than a margin.  Exact: no completion beats the best (by the 1e-15 a
    replacement needs) or passes the tolerance (at or below it nothing is
    returned); a sub-tolerance best it might have set lies the margin, a million
    1e-15 steps, under the tolerance.  The margin outweighs the rounding of
    per-case sums: it scales with the size of every term, which can dwarf the
    sum under ray weights (1e4).
    """
    cert = tuple(schema.certified)
    others = tuple((i, range(len(c.partitions))) for i, c in enumerate(schema.cases) if i not in cert)
    exprs = [[_as_expr(p.value) for p in c.partitions] for c in schema.cases]
    # tails[k]: the most that the last k cases of `others` can add
    tails = list(accumulate((max(e.evaluate(weights) for e in exprs[i]) for i, _ in reversed(others)), initial=0.0))
    size = sum(max(abs(e.const) + sum(abs(k * weights[v]) for v, k in e.coeffs) for e in es) for es in exprs)
    pruned, best = [0] if pruned is None else pruned, None

    def prune(expr, rest):
        floor = max(best.violation, VIOLATION_TOL) if best else VIOLATION_TOL
        skip = expr.evaluate(weights) + tails[len(rest)] < floor - 1e-9 * (1.0 + size)
        pruned[0] += skip
        return skip

    # all-negative, then each positive in turn: the only consistent certified
    # patterns, each checked as one conjunction before the walk extends it
    for positive in (None,) + cert:
        sel = [None] * len(schema.cases)
        for i in cert:
            sel[i] = 0 if i == positive else 1
        prefix = [schema.cases[i].partitions[sel[i]] for i in cert]
        formulas = tuple(p.formula for p in prefix)
        expr = sum((_as_expr(p.value) for p in prefix), LinExpr())
        if prune(expr, others) or formulas and not checker.is_consistent(conj(formulas)):
            continue
        for full in _selections(schema, checker, others, sel, formulas, expr, prune):
            value = full.evaluate(weights)
            if best is None or value > best.violation + 1e-15:
                best = ViolatedConstraint(schema.schema_id, tuple(sel), full, value)
    return None if best is None or best.violation <= VIOLATION_TOL else best


def search_schemata(
    schemata: Sequence,
    weights: Mapping[str, float],
    checker: ConsistencyChecker,
) -> list:
    """Per-schema (violation, wall-ms, prefixes pruned) results, schema order preserved."""
    out = []
    for schema in schemata:
        t0 = time.perf_counter()
        pruned = [0]
        vc = search_schema(schema, weights, checker, pruned)
        out.append((vc, (time.perf_counter() - t0) * 1000.0, pruned[0]))
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
    pruned: int  # prefixes the violation search skipped by its value bound


@dataclass(frozen=True)
class FOLPResult:
    assignment: dict
    objective: float
    stats: tuple
    constraints: tuple
    iterations: int


def _expr_row(expr: LinExpr) -> LinearConstraint:
    return LinearConstraint(expr.coeffs, -expr.const)


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
        for schema, (vc, wall, pruned) in zip(folp.schemata, found):
            stats.append(
                GenerationRow(it, schema.schema_id, vc.violation if vc else 0.0, len(rows), lp_objective, wall, pruned)
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
