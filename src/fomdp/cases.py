"""Case statements: finite lists of ⟨formula, value⟩ partitions and their algebra.

A case statement maps states to reals by attaching a value to each formula.
When `partitioned` is set the formulas are mutually exclusive and exhaustive
and the case denotes a total function; otherwise it is a bag of candidate
values (union semantics) from which `max_case` recovers a function.  All
operators prune partitions whose formulas are unsatisfiable within the
configured bound and simplify the survivors, which is what keeps symbolic
dynamic programming tractable.  An operator called without a checker makes
a fresh untyped `ConsistencyChecker()` for that call; callers holding a
model pass its typed checker instead.

Partitions may carry two pieces of bookkeeping used by policies: an action
tag, and an open "binding body" over action-parameter variables recording,
for partitions produced by existential quantification, which instantiations
witness the partition.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .logic import (
    ActTerm,
    And,
    ConsistencyChecker,
    Exists,
    FALSE,
    Formula,
    GroundState,
    Not,
    Or,
    TRUE,
    eval_in_state,
    exists_chain,
    format_formula,
    free_vars,
    infer_types,
    normalize,
    parse_formula,
    simplify_bdd,
    sort_key,
)
from .sitcalc import SuccessorStateAxiom, regress


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


def build_case(
    parts: Iterable[Partition],
    partitioned: bool = False,
    checker: Optional[ConsistencyChecker] = None,
    simplify: bool = True,
) -> CaseStatement:
    """Construct a case, simplifying formulas and pruning inconsistent ones.

    Timed-out consistency checks keep the partition (pruning must never be
    unsound).  The partitioned flag is the caller's assertion; dropping
    unsatisfiable partitions cannot break it.
    """
    chk = checker or ConsistencyChecker()
    kept = []
    for p in parts:
        f = simplify_bdd(normalize(p.formula)) if simplify else normalize(p.formula)
        if f == FALSE:
            continue
        if f != TRUE and not chk.is_consistent(f):
            continue
        kept.append(replace(p, formula=f))
    return CaseStatement(tuple(kept), partitioned)


def case_of(pairs: Sequence, partitioned: bool = True, checker=None) -> CaseStatement:
    """Case from (formula, value) pairs."""
    return build_case((Partition(f, float(v)) for f, v in pairs), partitioned, checker)


def indicator_case(formula: Formula, value: float, checker: ConsistencyChecker) -> CaseStatement:
    """The partitioned case {φ : value ; ¬φ : 0}."""
    return build_case(
        [Partition(formula, value), Partition(normalize(Not(formula)), 0.0)], True, checker
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
    checker: Optional[ConsistencyChecker] = None,
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
    return build_case(out, c1.partitioned and c2.partitioned, checker)


def cross_sum(cases: Sequence[CaseStatement], checker=None) -> CaseStatement:
    """⊕ over a list; the empty sum is {true: 0}."""
    out = None
    for c in cases:
        out = c if out is None else combine("add", out, c, checker)
    return out if out is not None else constant_case(0.0)


def scale_case(c: CaseStatement, k: float) -> CaseStatement:
    """Multiply every value by a scalar; structure untouched."""
    return CaseStatement(tuple(replace(p, value=p.value * k) for p in c.partitions), c.partitioned)


def merge_equal_values(c: CaseStatement) -> CaseStatement:
    """Disjoin adjacent-in-sort partitions sharing value, tag, and bindings.

    Sound for both partitioned and union semantics; used to control growth
    in long ⊕ chains.
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
            merged = simplify_bdd(normalize(Or(tuple(p.formula for p in ps))))
            out.append(replace(ps[0], formula=merged))
    return CaseStatement(tuple(out), c.partitioned)


def exists_case(
    variables: Sequence,
    c: CaseStatement,
    checker: Optional[ConsistencyChecker] = None,
    keep_bindings: bool = False,
) -> CaseStatement:
    """∃x⃗ applied to every partition formula; values unchanged.

    Disjointness may be lost, so the partitioned flag is cleared (quantifying
    over an empty variable list keeps it).  With keep_bindings the open
    pre-quantification formula is retained on each partition so policies can
    later enumerate witnessing instantiations.
    """
    variables = tuple((v, t) for v, t in variables)
    out = []
    for p in c.partitions:
        open_body = simplify_bdd(normalize(p.formula))
        closed = simplify_bdd(normalize(exists_chain(variables, p.formula)))
        if keep_bindings:
            out.append(Partition(closed, p.value, p.tag, variables, open_body))
        else:
            out.append(Partition(closed, p.value, p.tag, p.bind_vars, p.bind_body))
    return build_case(out, c.partitioned if not variables else False, checker, simplify=False)


def regress_case(
    c: CaseStatement,
    act: ActTerm,
    ssas: Mapping[str, SuccessorStateAxiom],
    fluents: Optional[Iterable[str]] = None,
    checker: Optional[ConsistencyChecker] = None,
) -> CaseStatement:
    """Per-partition regression through a deterministic action.

    Values and tags survive; binding bookkeeping refers to the pre-regression
    state language and is dropped.  A partition regressing to an inconsistent
    formula is pruned, so e.g. an unreachable branch disappears.
    """
    out = [
        Partition(regress(p.formula, act, ssas, fluents), p.value, p.tag)
        for p in c.partitions
    ]
    return build_case(out, c.partitioned, checker, simplify=False)


def max_case(c: CaseStatement, checker: Optional[ConsistencyChecker] = None) -> CaseStatement:
    """Pointwise maximum of a union-semantics case.

    Partitions are ordered by value descending (ties by tag, then canonical
    formula order; untagged partitions sort as before) and each formula is
    conjoined with the negations of all earlier formulas, so the k-th output
    region is "φ_k holds and nothing better does".  The output is marked
    partitioned when the input formulas cover every state at the bound.
    """
    chk = checker or ConsistencyChecker()
    ordered = sorted(c.partitions, key=lambda p: (-p.value, p.tag or "", sort_key(p.formula)))
    out = []
    prefix: list = []
    for p in ordered:
        refined = And(tuple([p.formula] + prefix)) if prefix else p.formula
        out.append(replace(p, formula=refined))
        prefix.append(Not(p.formula))
    covers = chk.is_valid(Or(tuple(p.formula for p in ordered))) if ordered else False
    return build_case(out, covers, chk)


def union_case(c1: CaseStatement, c2: CaseStatement) -> CaseStatement:
    """Concatenation under union semantics; the flag is cleared.

    Union with an empty case is the identity and preserves the operand as-is.
    """
    if not c2.partitions:
        return c1
    if not c1.partitions:
        return c2
    return CaseStatement(c1.partitions + c2.partitions, False)


def eval_case(
    c: CaseStatement,
    state: GroundState,
    binding: Optional[Mapping[str, str]] = None,
    signature: Optional[Mapping[str, Sequence]] = None,
) -> float:
    """Value of the unique satisfied partition of a partitioned case.

    Remaining free variables are read existentially (types inferred from the
    signature when available).  Zero or multiple satisfied partitions raise
    PartitionViolation naming the offenders.
    """
    if not c.partitioned:
        raise CaseError("eval_case requires a partitioned case")
    hits = []
    for i, p in enumerate(c.partitions):
        f = p.formula
        unbound = {v for v in free_vars(f) if not (binding and v in binding)}
        if unbound:
            types = infer_types(f, signature or {})
            g = f
            for v in sorted(unbound):
                g = Exists(v, types.get(v), g)
            f = g
        if eval_in_state(f, state, binding):
            hits.append(i)
    if len(hits) != 1:
        shown = ", ".join(format_formula(c.partitions[i].formula) for i in hits) or "none"
        raise PartitionViolation(
            f"{len(hits)} partitions satisfied (expected exactly 1): {shown}", tuple(hits)
        )
    return c.partitions[hits[0]].value


def eval_max(
    c: CaseStatement,
    state: GroundState,
    binding: Optional[Mapping[str, str]] = None,
    signature: Optional[Mapping[str, Sequence]] = None,
) -> float:
    """Maximum value over satisfied partitions (union semantics)."""
    best = None
    for p in c.partitions:
        f = p.formula
        unbound = {v for v in free_vars(f) if not (binding and v in binding)}
        if unbound:
            types = infer_types(f, signature or {})
            for v in sorted(unbound):
                f = Exists(v, types.get(v), f)
        if eval_in_state(f, state, binding):
            if best is None or p.value > best:
                best = p.value
    if best is None:
        raise PartitionViolation("no partition satisfied", ())
    return best


def verify_partitioned(c: CaseStatement, checker: Optional[ConsistencyChecker] = None) -> bool:
    """Pairwise-exclusive and exhaustive at the bound?"""
    chk = checker or ConsistencyChecker()
    for i, p in enumerate(c.partitions):
        for q in c.partitions[i + 1 :]:
            if chk.check(And((p.formula, q.formula))) is not False:
                return False
    if not c.partitions:
        return False
    return chk.is_valid(Or(tuple(p.formula for p in c.partitions)))


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
    objects: Iterable[str] = (),
    act_names: Iterable[str] = (),
    signature: Optional[Mapping[str, Sequence]] = None,
    partitioned: bool = True,
    checker: Optional[ConsistencyChecker] = None,
) -> CaseStatement:
    """Parse `{ formula : number ; ... }` into a case statement."""
    return build_case(parse_partitions(text, objects, act_names, signature), partitioned, checker)
