"""Weight solvers and policy extraction for linear value functions.

Two routes to the weights: a value-bound LP over per-action backup schemata
(constraint generation picks the ground constraints), and approximate policy
iteration, which alternates greedy policy extraction with a minimal-residual
reweighting LP restricted to the current policy's regions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Sequence

from .cases import CaseStatement, Partition, cross_sum, exists_case, max_case
from .folp import (
    ConstraintSchema,
    FirstOrderLP,
    LinExpr,
    affine_case,
    solve_first_order_lp,
)
from .logic import TRUE, ConsistencyChecker, conj, normalize
from .model import FOMDPModel, LinearValueFunction, backup_linear
from .query import StateIndex, compile_program


class SolverError(Exception):
    pass


_PHI = "phi"


def _wvar(i: int) -> str:
    return f"w{i}"


def weight_map(weights: Sequence[float]) -> dict:
    """Weight vector as the LP variable assignment the schemata expect."""
    return {_wvar(i): float(w) for i, w in enumerate(weights)}


# ---------------------------------------------------------------------------
# policies


@dataclass(frozen=True)
class PolicyCase:
    """Decision-list policy: disjoint tagged regions with witness bodies.

    Every partition names its action template in the tag and keeps the open
    formula over the action parameters whose witnesses realize the region's
    value; `cell_exprs` maps (tag, witness body) back to the affine backup
    expression the region came from.  Regions and witness bodies compile to
    one program on the first decision: solvers build many policies, decide
    with none, and a region can take milliseconds to compile.
    """

    case: CaseStatement
    cell_exprs: tuple = ()
    # per partition, in order: (tag, region query, witness query)
    plans: list = field(default_factory=list, init=False, compare=False, repr=False)

    def __post_init__(self):
        for p in self.case.partitions:
            if p.tag is None or p.bind_body is None:
                raise SolverError("policy partitions need an action tag and a witness body")

    def actions(self) -> tuple:
        return tuple(sorted({p.tag for p in self.case.partitions}))

    def decide(self, state) -> tuple:
        """(action name, object binding) at a ground state.

        Exactly one region must hold; the binding is the lexicographically
        least witness of its open body over the state's object pools.
        """
        if not self.plans:
            parts = self.case.partitions
            plans = compile_program([(p.formula, ()) for p in parts] + [(p.bind_body, p.bind_vars) for p in parts])
            self.plans.extend(zip([p.tag for p in parts], plans, plans[len(parts) :]))
        index, memo = StateIndex(state), {}
        hits = [(tag, witness) for tag, region, witness in self.plans if region(index, (), memo)]
        if len(hits) != 1:
            raise SolverError(f"{len(hits)} policy regions hold at the state (expected 1)")
        tag, witness = hits[0]
        witnesses = witness(index, (), memo)
        if not witnesses:
            raise SolverError("satisfied policy region has no parameter witness")
        return tag, witnesses[0]


def loss_bound(phi: float, gamma: float) -> float:
    """Sup-norm loss guaranteed by a fixed-point residual under discounting."""
    if not 0.0 <= gamma < 1.0:
        raise SolverError(f"discount must lie in [0, 1), got {gamma}")
    if phi < 0.0:
        raise SolverError(f"residual must be nonnegative, got {phi}")
    return 2.0 * gamma * phi / (1.0 - gamma)


# ---------------------------------------------------------------------------
# schema construction


def _certified_indices(bases: Sequence[CaseStatement], checker: ConsistencyChecker) -> tuple:
    """Basis indices safe for the orthogonal-indicator search shortcut.

    A basis qualifies with exactly two partitions, nonzero-value positive
    first, zero-value complement second, and a positive region provably
    disjoint from every already-accepted one; a disjointness check that
    exhausts its work budget (verdict None) disqualifies, since the shortcut
    must never be assumed.
    """
    kept: list = []
    for i, b in enumerate(bases):
        if len(b.partitions) != 2 or not b.partitioned:
            continue
        pos, neg = b.partitions
        if pos.value == 0.0 or neg.value != 0.0:
            continue
        disjoint = all(
            checker.check(conj((bases[j].partitions[0].formula, pos.formula))) is False
            for j in kept
        )
        if disjoint:
            kept.append(i)
    return tuple(kept)


def _backup_cases(model: FOMDPModel, lvf: LinearValueFunction, name: str) -> tuple:
    """Reward plus per-basis regression cases for one action, values affine."""
    bu = backup_linear(model, lvf, model.action(name))
    cases = [affine_case(bu.reward, None)]
    cases.extend(affine_case(f, _wvar(i)) for i, f in enumerate(bu.fodtrs))
    return tuple(cases)


def _minus_bases(lvf: LinearValueFunction) -> tuple:
    return tuple(affine_case(b, _wvar(i), -1.0) for i, b in enumerate(lvf.bases))


def foalp_lp(model: FOMDPModel, lvf: LinearValueFunction) -> FirstOrderLP:
    """Value-bound LP: minimize size-weighted sums subject to 0 >= backup - value.

    One schema per action template over the parameterized backup cells; the
    per-parameter constraints imply the same bound as maximizing over the
    parameters first.
    """
    variables = tuple(_wvar(i) for i in range(len(lvf.bases)))
    objective = tuple(
        (_wvar(i), sum(p.value for p in b.partitions) / len(b.partitions))
        for i, b in enumerate(lvf.bases)
    )
    minus = _minus_bases(lvf)
    cert = _certified_indices(lvf.bases, model.checker)
    schemata = []
    for name in model.action_names():
        cases = _backup_cases(model, lvf, name)
        offset = len(cases)
        schemata.append(
            ConstraintSchema(name, cases + minus, tuple(offset + i for i in cert))
        )
    return FirstOrderLP(variables, objective, tuple(schemata))


def _action_cells(model: FOMDPModel, lvf: LinearValueFunction, name: str) -> CaseStatement:
    """Existentially closed backup cells of one action, values affine.

    Each cell keeps the open pre-quantification formula; equal-valued cells
    are deliberately not merged so every partition still names exactly one
    affine expression.
    """
    flat = cross_sum(_backup_cases(model, lvf, name), model.checker)
    tagged = CaseStatement(
        tuple(replace(p, tag=name) for p in flat.partitions), flat.partitioned
    )
    return exists_case(model.action(name).params, tagged, model.checker)


def _cell_key(p: Partition) -> tuple:
    return (p.tag, p.bind_body)


def _collect_exprs(partitions, exprs: dict):
    """Record each cell's affine value under its (tag, witness body) key."""
    for p in partitions:
        key = _cell_key(p)
        if key in exprs and exprs[key] != p.value:
            raise SolverError("distinct backup cells share a witness body")
        exprs[key] = p.value


# ---------------------------------------------------------------------------
# weight solving


def foalp_solve(model: FOMDPModel, lvf: LinearValueFunction) -> tuple:
    """Basis weights bounding every action's backup from above.

    Minimizes sum_i w_i * (mean partition value of basis i) subject to
    0 >= backup_A - value for every action, state, and parameter choice.
    """
    res = solve_first_order_lp(foalp_lp(model, lvf), model.checker)
    return tuple(res.assignment[_wvar(i)] for i in range(len(lvf.bases)))


# ---------------------------------------------------------------------------
# policy extraction


def _policy_from_cells(action_cells, weights: Mapping[str, float], checker: ConsistencyChecker) -> PolicyCase:
    exprs: dict = {}
    parts: list = []
    for closed in action_cells:
        _collect_exprs(closed.partitions, exprs)
        parts.extend(
            replace(p, value=float(p.value.evaluate(weights))) for p in closed.partitions
        )
    best = max_case(CaseStatement(tuple(parts), False), checker)
    return PolicyCase(best, tuple(exprs.items()))


def extract_policy(model: FOMDPModel, lvf: LinearValueFunction) -> PolicyCase:
    """Greedy policy of a weighted value function.

    Backup cells from every action template are pooled in template-name
    order and maximized; value ties fall to the alphabetically first
    template, then to canonical formula order.  Each region keeps its tag
    and witness body for binding extraction.
    """
    cells = [_action_cells(model, lvf, name) for name in model.action_names()]
    return _policy_from_cells(cells, weight_map(lvf.weights), model.checker)


# ---------------------------------------------------------------------------
# approximate policy iteration


@dataclass(frozen=True)
class IterationRow:
    iteration: int
    phi: float
    converged: bool
    wall_ms: float
    regions_in: int  # policy partitions into `max_case`
    regions_out: int  # and out of it


@dataclass(frozen=True)
class SolveReport:
    """Per-iteration weights and residuals of a policy-iteration run.

    `weights` has one vector per reweighting; `phis` the matching residual
    bounds (each >= 0); `loss` is the sup-norm guarantee at convergence and
    None otherwise.
    """

    weights: tuple
    phis: tuple
    converged: bool
    loss: Optional[float]
    stats: tuple

    def final_weights(self) -> tuple:
        return self.weights[-1]

    def csv_lines(self) -> tuple:
        out = ["iter,phi,converged,wall_ms"]
        for r in self.stats:
            out.append(f"{r.iteration},{r.phi:.12g},{int(r.converged)},{r.wall_ms:.3f}")
        return tuple(out)


def _api_lp(lvf: LinearValueFunction, policy: PolicyCase, checker: ConsistencyChecker) -> FirstOrderLP:
    """Residual LP: minimize phi subject to phi >= |Q_pi - value| regionwise.

    Each policy region contributes both signs of its cell's backup
    expression minus the candidate value, anywhere the region holds.
    """
    variables = tuple(_wvar(i) for i in range(len(lvf.bases))) + (_PHI,)
    exprs = dict(policy.cell_exprs)
    cert = _certified_indices(lvf.bases, checker)
    slack = CaseStatement((Partition(TRUE, LinExpr.of({_PHI: -1.0})),), True)
    schemata = []
    for name in policy.actions():
        kept = tuple(p for p in policy.case.partitions if p.tag == name)
        for label, sign in ((".hi", 1.0), (".lo", -1.0)):
            head = CaseStatement(
                tuple(replace(p, value=exprs[_cell_key(p)] * sign) for p in kept), False
            )
            tail = tuple(affine_case(b, _wvar(i), -sign) for i, b in enumerate(lvf.bases))
            schemata.append(
                ConstraintSchema(
                    name + label, (head,) + tail + (slack,), tuple(1 + i for i in cert)
                )
            )
    return FirstOrderLP(variables, ((_PHI, 1.0),), tuple(schemata))


def _policy_key(policy: PolicyCase) -> tuple:
    return tuple(
        (normalize(p.formula), p.tag, round(p.value, 9)) for p in policy.case.partitions
    )


def foapi_solve(model: FOMDPModel, lvf: LinearValueFunction, max_iters: int) -> SolveReport:
    """Alternate greedy extraction with minimal-residual reweighting.

    Convergence is a repeated policy (normalized region formulas, tags, and
    values rounded to 1e-9); hitting the iteration cap reports
    converged=False rather than raising.
    """
    if max_iters < 1:
        raise SolverError(f"max_iters must be at least 1, got {max_iters}")
    chk = model.checker
    cells = [_action_cells(model, lvf, name) for name in model.action_names()]
    weights = tuple(float(w) for w in lvf.weights)
    trajectory: list = []
    phis: list = []
    rows: list = []
    previous = None
    converged = False
    for it in range(1, max_iters + 1):
        t0 = time.perf_counter()
        policy = _policy_from_cells(cells, weight_map(weights), chk)
        if not policy.case.partitions:
            raise SolverError("extracted policy is empty")
        key = _policy_key(policy)
        regions = (sum(len(c.partitions) for c in cells), len(policy.case.partitions))
        if key == previous:
            converged = True
            rows.append(IterationRow(it, phis[-1], True, (time.perf_counter() - t0) * 1000.0, *regions))
            break
        previous = key
        res = solve_first_order_lp(_api_lp(lvf, policy, chk), chk)
        weights = tuple(res.assignment[_wvar(i)] for i in range(len(lvf.bases)))
        phi = float(res.assignment[_PHI])
        if phi < 0.0:
            if phi < -1e-9:
                raise SolverError(f"negative residual {phi} from the reweighting LP")
            phi = 0.0
        trajectory.append(weights)
        phis.append(phi)
        rows.append(IterationRow(it, phi, False, (time.perf_counter() - t0) * 1000.0, *regions))
    loss = loss_bound(phis[-1], model.discount) if converged else None
    return SolveReport(tuple(trajectory), tuple(phis), converged, loss, tuple(rows))
