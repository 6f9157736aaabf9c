"""Regression-grown orthogonal basis functions for linear value fitting.

New basis functions come from one-step reachability: every region already
holding value is regressed through each action template, and the slice of
state space that can newly reach it becomes an indicator pair.  Conjoining
the negations of all previously accepted regions keeps positive regions
pairwise disjoint, which the weight solvers exploit; disjointness is still
verified at the bound before a candidate is certified.  Bases whose fitted
weight stays small are retired into a ledger and never regenerated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from .cases import CaseStatement, constant_case, indicator_case
from .folp import FOLPError, LPNumericalError
from .logic import (
    TRUE,
    ActTerm,
    ConsistencyChecker,
    Formula,
    Not,
    conj,
    disj,
    exists_chain,
    normalize,
    simplify_bdd,
)
from .model import FOMDPModel, LinearValueFunction
from .sitcalc import regress
from .solvers import SolverError, foalp_solve, foapi_solve


class BasisGenError(Exception):
    """Generation failed; the partial basis travels with the error."""

    def __init__(self, message: str, lvf=None, report=None):
        super().__init__(message)
        self.lvf = lvf
        self.report = report


@dataclass(frozen=True)
class BasisGenConfig:
    """Growth-loop knobs.

    `tau` is the value a region must retain to stay interesting; a basis
    whose fitted weight magnitude drops below it is retired.  `api_iters`
    caps the inner policy iteration when `solver` is "foapi".
    """

    iters: int = 7
    tau: float = 0.01
    solver: str = "foalp"
    api_iters: int = 50

    def __post_init__(self):
        if self.iters < 1:
            raise BasisGenError(f"iteration limit must be at least 1, got {self.iters}")
        if self.api_iters < 1:
            raise BasisGenError(f"policy iteration limit must be at least 1, got {self.api_iters}")
        if self.tau < 0.0:
            raise BasisGenError(f"value threshold must be nonnegative, got {self.tau}")
        if self.solver not in ("foalp", "foapi"):
            raise BasisGenError(f"solver must be 'foalp' or 'foapi', got {self.solver!r}")


@dataclass
class DiscardLedger:
    """Normalized formulas barred from becoming basis functions again."""

    formulas: set = field(default_factory=set)

    def add(self, f: Formula):
        self.formulas.add(normalize(f))

    def __contains__(self, f: Formula) -> bool:
        return normalize(f) in self.formulas

    def __len__(self) -> int:
        return len(self.formulas)


# ---------------------------------------------------------------------------
# candidate derivation


def candidate_regressions(
    model: FOMDPModel,
    lvf: LinearValueFunction,
    ledger: Optional[DiscardLedger] = None,
) -> list:
    """One-step reachability candidates from every positive-value region.

    For each basis partition with positive value and each action template,
    the candidate covers the states outside the region that some outcome of
    the template carries into it: ¬φ ∧ ∃x⃗.∨_j Regr(φ, n_j(x⃗)), normalized.
    Candidates that are not provably consistent at the bound, already
    ledgered, or equivalent at the bound to an existing positive region or
    an earlier candidate are dropped.
    """
    chk = model.checker
    heads = [p.formula for b in lvf.bases for p in b.partitions if p.value > 0.0]
    out: list = []
    for b in lvf.bases:
        for p in b.partitions:
            if p.value <= 0.0:
                continue
            for name in model.action_names():
                action = model.action(name)
                x = action.param_vars()
                reach = disj(
                    simplify_bdd(regress(p.formula, ActTerm(ch.name, x), model.ssas, model.fluent_names()), chk)
                    for ch in action.choices
                )
                raw = conj((Not(p.formula), exists_chain(action.params, reach)))
                cand = normalize(simplify_bdd(normalize(raw), chk))
                if ledger is not None and cand in ledger:
                    continue
                if chk.check(cand) is not True:
                    continue
                if any(chk.equivalent(cand, h) for h in heads):
                    continue
                if any(chk.equivalent(cand, c) for c in out):
                    continue
                out.append(cand)
    return out


# ---------------------------------------------------------------------------
# the growth loop


@dataclass(frozen=True)
class BasisRow:
    iteration: int
    num_basis: int
    num_discarded: int
    solver_objective: float
    wall_ms: float


@dataclass(frozen=True)
class BasisReport:
    """Per-iteration growth trace.

    `num_basis` counts bases retained after the iteration's retirement pass;
    `num_discarded` counts candidates retired so far, whether for failing
    disjointness or for a low fitted weight.  `certified` indexes the bases
    of the returned value function whose positive regions are pairwise
    disjoint at the bound.  `solver_objective` is the fitted LP objective
    under "foalp" and the final residual under "foapi".
    """

    rows: tuple
    certified: tuple
    ledger: DiscardLedger

    def csv_lines(self) -> tuple:
        out = ["iter,num_basis,num_discarded,solver_objective,wall_ms"]
        for r in self.rows:
            out.append(
                f"{r.iteration},{r.num_basis},{r.num_discarded},"
                f"{r.solver_objective:.12g},{r.wall_ms:.3f}"
            )
        return tuple(out)


@dataclass
class _Entry:
    case: CaseStatement
    head: Formula
    core: Optional[Formula]  # pre-conjunction form, the ledger key on discard
    certified: bool
    weight: float = 0.0


def _seed_entries(model: FOMDPModel, chk: ConsistencyChecker) -> list:
    """The always-on offset that keeps the value-bound LP feasible, then the reward's positive regions."""
    entries = [_Entry(constant_case(1.0), TRUE, None, False)]
    seen: list = []
    family: list = []
    for key in sorted(model.rewards):
        for p in model.rewards[key].partitions:
            if p.value <= 0.0:
                continue
            head = normalize(p.formula)
            if any(head == s or chk.equivalent(head, s) for s in seen):
                continue
            seen.append(head)
            certified = all(chk.check(conj((head, g))) is False for g in family)
            if certified:
                family.append(head)
            entries.append(_Entry(indicator_case(head, 1.0, chk), head, None, certified))
    return entries


def generate_basis(model: FOMDPModel, config: BasisGenConfig) -> tuple:
    """Grow an orthogonal basis by regressing valuable regions.

    Starts from the reward seeds, then alternates: derive reachability
    candidates, conjoin the negations of every certified region, verify
    pairwise disjointness, fit weights with the configured solver, and
    retire bases whose weight magnitude falls below the discard threshold.
    Stops at the iteration limit or as soon as nothing new was added, making
    at most `config.iters` solver calls.  Solver failures surface as
    BasisGenError carrying the partial result.  Its checks share one session.
    """
    chk = model.checker
    with chk.session():
        ledger = DiscardLedger()
        rows: list = []
        entries = _seed_entries(model, chk)
        discarded = 0

        def current() -> LinearValueFunction:
            return LinearValueFunction(
                tuple(e.weight for e in entries), tuple(e.case for e in entries)
            )

        def result() -> tuple:
            cert = tuple(i for i, e in enumerate(entries) if e.certified)
            return current(), BasisReport(tuple(rows), cert, ledger)

        def fit(iteration: int):
            nonlocal discarded
            t0 = time.perf_counter()
            lvf = current()
            try:
                if config.solver == "foalp":
                    weights = foalp_solve(model, lvf)
                    objective = sum(
                        w * sum(p.value for p in e.case.partitions) / len(e.case.partitions)
                        for w, e in zip(weights, entries)
                    )
                else:
                    report = foapi_solve(model, lvf, config.api_iters)
                    weights = report.final_weights()
                    objective = report.phis[-1]
            except (SolverError, FOLPError, LPNumericalError) as exc:
                partial, report = result()
                raise BasisGenError(
                    f"weight solve failed at iteration {iteration}: {exc}", partial, report
                ) from exc
            for e, w in zip(entries, weights):
                e.weight = float(w)
            keep = []
            for e in entries:
                if abs(e.weight) < config.tau:
                    ledger.add(e.head)
                    if e.core is not None:
                        ledger.add(e.core)
                    discarded += 1
                else:
                    keep.append(e)
            entries[:] = keep
            rows.append(
                BasisRow(
                    iteration, len(entries), discarded, objective,
                    (time.perf_counter() - t0) * 1000.0,
                )
            )

        fit(1)
        for it in range(2, config.iters + 1):
            added = 0
            for core in candidate_regressions(model, current(), ledger):
                family = [e.head for e in entries if e.certified]
                full = normalize(
                    simplify_bdd(normalize(conj([core] + [Not(h) for h in family])), chk)
                )
                disjoint = chk.check(full) is True and all(
                    chk.check(conj((full, h))) is False for h in family
                )
                if full in ledger or not disjoint:
                    ledger.add(core)
                    discarded += 1
                    continue
                entries.append(_Entry(indicator_case(full, 1.0, chk), full, core, True))
                added += 1
            if added == 0:
                break
            fit(it)
        return result()
