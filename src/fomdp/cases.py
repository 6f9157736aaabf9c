"""Case statements: finite lists of ⟨formula, value⟩ partitions and their algebra.

A case statement maps states to reals by attaching a value to each formula.
When `partitioned` is set the formulas are mutually exclusive and exhaustive
and the case denotes a total function; otherwise it is a bag of candidate
values (union semantics) from which `max_case` recovers a function.  All
operators prune partitions whose formulas are unsatisfiable within the
configured bound (`max_case` drops those its shared BDD proves empty before
asking the checker) and simplify the survivors, which is what keeps symbolic
dynamic programming tractable.

Partitions may carry two pieces of bookkeeping used by policies: an action
tag, and an open "binding body" over action-parameter variables recording,
for partitions produced by existential quantification, which instantiations
witness the partition.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .logic import (
    And,
    ConsistencyChecker,
    FALSE,
    Formula,
    GroundState,
    Not,
    Obj,
    Or,
    TRUE,
    disjoint_regions,
    exists_chain,
    format_formula,
    implicit_close,
    normalize,
    parse_formula,
    simplify_bdd,
    sort_key,
    substitute,
    survey,
)
from .query import StateIndex, compile_program


class CaseError(Exception):
    pass


class PartitionViolation(CaseError):
    """A supposedly partitioned case had zero or several satisfied partitions."""

    def __init__(self, message: str, satisfied: tuple = ()):
        super().__init__(message)
        self.satisfied = satisfied


@dataclass(frozen=True)
class Partition:
    formula: Formula
    value: float
    tag: Optional[str] = None
    bind_vars: tuple = ()  # typed (name, type) action parameters
    bind_body: Optional[Formula] = None  # open witness formula over bind_vars

    def pretty(self) -> str:
        tag = f" @{self.tag}" if self.tag else ""
        return f"{format_formula(self.formula)} : {self.value:g}{tag}"


@dataclass(frozen=True)
class CaseStatement:
    partitions: tuple
    partitioned: bool = False

    def __len__(self):
        return len(self.partitions)

    def values(self) -> tuple:
        return tuple(p.value for p in self.partitions)

    def formulas(self) -> tuple:
        return tuple(p.formula for p in self.partitions)

    def pretty(self) -> str:
        body = " ; ".join(p.pretty() for p in self.partitions)
        mark = "!" if self.partitioned else ""
        return "{" + mark + " " + body + " }"


def _satisfiable(f: Formula, checker: ConsistencyChecker) -> bool:
    """A normalized formula is not provably inconsistent at the bound; TRUE and FALSE need no check.

    A consistency check that exhausts its work budget keeps the formula
    (pruning must never be unsound).
    """
    return f == TRUE or (f != FALSE and checker.is_consistent(f))


def build_case(
    parts: Iterable[Partition],
    checker: ConsistencyChecker,
    partitioned: bool = False,
) -> CaseStatement:
    """Construct a case, simplifying formulas and pruning inconsistent ones.

    Every formula is normalized and simplified (`simplify_bdd`, through
    `checker`'s atom tables), so callers hand in raw formulas.  The
    partitioned flag is the caller's assertion; dropping unsatisfiable
    partitions cannot break it.
    """
    kept = []
    for p in parts:
        f = simplify_bdd(normalize(p.formula), checker)
        if _satisfiable(f, checker):
            kept.append(replace(p, formula=f))
    return CaseStatement(tuple(kept), partitioned)


def case_of(pairs: Sequence, checker: ConsistencyChecker, partitioned: bool = True) -> CaseStatement:
    """Case from (formula, value) pairs."""
    return build_case((Partition(f, float(v)) for f, v in pairs), checker, partitioned)


def indicator_case(formula: Formula, value: float, checker: ConsistencyChecker) -> CaseStatement:
    """The partitioned case {φ : value ; ¬φ : 0}."""
    return build_case(
        [Partition(formula, value), Partition(normalize(Not(formula)), 0.0)], checker, True
    )


def constant_case(value: float) -> CaseStatement:
    return CaseStatement((Partition(TRUE, float(value)),), partitioned=True)


_OPS: Mapping[str, Callable[[float, float], float]] = {
    "add": lambda a, b: a + b,
    "subtract": lambda a, b: a - b,
    "multiply": lambda a, b: a * b,
}


def combine(
    op: str,
    c1: CaseStatement,
    c2: CaseStatement,
    checker: ConsistencyChecker,
) -> CaseStatement:
    """Cross-product of partitions with op applied to values.

    Pairs whose conjunction is inconsistent at the bound are discarded; the
    result is partitioned iff both inputs were.  Tags and binding bookkeeping
    follow the first operand when it has them, the second otherwise.
    """
    if op not in _OPS:
        raise CaseError(f"unknown case operator {op!r}")
    fn = _OPS[op]
    out = []
    for p in c1.partitions:
        for q in c2.partitions:
            tag = p.tag if p.tag is not None else q.tag
            if p.bind_body is not None:
                bv, bb = p.bind_vars, p.bind_body
            else:
                bv, bb = q.bind_vars, q.bind_body
            out.append(
                Partition(And((p.formula, q.formula)), fn(p.value, q.value), tag, bv, bb)
            )
    return build_case(out, checker, c1.partitioned and c2.partitioned)


def cross_sum(cases: Sequence[CaseStatement], checker: ConsistencyChecker) -> CaseStatement:
    """⊕ over a list; the empty sum is {true: 0}."""
    out = None
    for c in cases:
        out = c if out is None else combine("add", out, c, checker)
    return out if out is not None else constant_case(0.0)


def scale_case(c: CaseStatement, k: float) -> CaseStatement:
    """Multiply every value by a scalar; structure untouched."""
    return CaseStatement(tuple(replace(p, value=p.value * k) for p in c.partitions), c.partitioned)


def merge_equal_values(c: CaseStatement, checker: ConsistencyChecker) -> CaseStatement:
    """Disjoin the partitions of each (value, tag, bindings) key, keys in first-seen order.

    Sound for both partitioned and union semantics; used to control growth
    in long ⊕ chains.  The merged formulas are simplified through
    `checker`'s atom tables.
    """
    groups: dict = {}
    order = []
    for p in c.partitions:
        key = (p.value, p.tag, p.bind_vars, None if p.bind_body is None else normalize(p.bind_body))
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(p)
    out = []
    for key in order:
        ps = groups[key]
        if len(ps) == 1:
            out.append(ps[0])
        else:
            merged = simplify_bdd(normalize(Or(tuple(p.formula for p in ps))), checker)
            out.append(replace(ps[0], formula=merged))
    return CaseStatement(tuple(out), c.partitioned)


def exists_case(variables: Sequence, c: CaseStatement, checker: ConsistencyChecker) -> CaseStatement:
    """∃x⃗ applied to every partition formula; values unchanged.

    Disjointness may be lost, so the partitioned flag is cleared (quantifying
    over an empty variable list keeps it).  The open pre-quantification
    formula, simplified, becomes each partition's binding body over x⃗, so
    policies can later enumerate witnessing instantiations.  The closed
    formulas go to `build_case` raw, which simplifies them.
    """
    variables = tuple((v, t) for v, t in variables)
    out = []
    for p in c.partitions:
        open_body = simplify_bdd(normalize(p.formula), checker)
        out.append(Partition(exists_chain(variables, p.formula), p.value, p.tag, variables, open_body))
    return build_case(out, checker, c.partitioned if not variables else False)


def max_case(c: CaseStatement, checker: ConsistencyChecker) -> CaseStatement:
    """Pointwise maximum of a union-semantics case.

    Partitions are ordered by value descending (ties by tag, then canonical
    formula order; untagged partitions sort as before).  Region k, "φ_k holds
    and nothing better does", is φ_k ∧ ¬(φ_1 ∨ … ∨ φ_{k-1}) in one BDD shared
    by the call, with the earlier formulas as a running cover
    (`logic.disjoint_regions`).  A region the BDD proves empty is dropped
    without the checker, the rest are normalized and pruned as in
    `build_case` but not simplified again: the BDD already reduced them.
    Past the BDD's atom or read-back limit a region is the normalised
    conjunction.  The output is marked partitioned when the formulas cover
    every state at the bound.
    """
    ordered = sorted(c.partitions, key=lambda p: (-p.value, p.tag or "", sort_key(p.formula)))
    covers = checker.is_valid(Or(tuple(p.formula for p in ordered))) if ordered else False
    regions = zip(ordered, disjoint_regions([p.formula for p in ordered], checker))
    parts = (replace(p, formula=normalize(f)) for p, f in regions)
    return CaseStatement(tuple(p for p in parts if _satisfiable(p.formula, checker)), covers)


def eval_case(
    c: CaseStatement,
    state: GroundState,
    binding: Optional[Mapping[str, str]] = None,
    signature: Optional[Mapping[str, Sequence]] = None,
) -> float:
    """Value of the unique satisfied partition of a partitioned case.

    Remaining free variables are read existentially (types inferred from the
    signature when available), all partitions in one compiled program.  Zero
    or multiple satisfied partitions raise PartitionViolation naming the
    offenders.
    """
    if not c.partitioned:
        raise CaseError("eval_case requires a partitioned case")
    sub = {v: Obj(o) for v, o in (binding or {}).items()}
    closed = [implicit_close(substitute(p.formula, sub), survey(p.formula, signature or {})[0]) for p in c.partitions]
    index, memo = StateIndex(state), {}
    hits = [i for i, plan in enumerate(compile_program([(f, ()) for f in closed])) if plan(index, (), memo)]
    if len(hits) != 1:
        shown = ", ".join(format_formula(c.partitions[i].formula) for i in hits) or "none"
        raise PartitionViolation(
            f"{len(hits)} partitions satisfied (expected exactly 1): {shown}", tuple(hits)
        )
    return c.partitions[hits[0]].value


def verify_partitioned(c: CaseStatement, checker: ConsistencyChecker) -> bool:
    """Pairwise-exclusive and exhaustive at the bound?"""
    for i, p in enumerate(c.partitions):
        for q in c.partitions[i + 1 :]:
            if checker.check(And((p.formula, q.formula))) is not False:
                return False
    if not c.partitions:
        return False
    return checker.is_valid(Or(tuple(p.formula for p in c.partitions)))


# ---------------------------------------------------------------------------
# text form


def parse_partitions(
    text: str,
    objects: Iterable[str] = (),
    act_names: Iterable[str] = (),
    signature: Optional[Mapping[str, Sequence]] = None,
) -> list:
    """Parse `{ formula : number ; ... }` into unpruned partitions."""
    s = text.strip()
    if not (s.startswith("{") and s.endswith("}")):
        raise CaseError(f"case literal must be braced: {text!r}")
    body = s[1:-1].strip()
    parts = []
    if body:
        for chunk in body.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            if ":" not in chunk:
                raise CaseError(f"case entry missing ':': {chunk!r}")
            ftext, _, vtext = chunk.rpartition(":")
            f = parse_formula(ftext.strip(), objects, act_names, signature)
            try:
                v = float(vtext.strip())
            except ValueError as e:
                raise CaseError(f"bad case value {vtext.strip()!r}") from e
            parts.append(Partition(f, v))
    return parts


def parse_case(
    text: str,
    checker: ConsistencyChecker,
    objects: Iterable[str] = (),
    act_names: Iterable[str] = (),
    signature: Optional[Mapping[str, Sequence]] = None,
    partitioned: bool = True,
) -> CaseStatement:
    """Parse `{ formula : number ; ... }` into a case statement."""
    return build_case(parse_partitions(text, objects, act_names, signature), checker, partitioned)
