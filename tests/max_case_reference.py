"""Reference policy extraction: the per-region `max_case` that the shared BDD replaced.

Region k is built as the conjunction of φ_k with the negations of every
earlier formula, and `build_case` normalises, pushes quantifiers through,
BDD-simplifies, reads back and checks each region on its own.  `max_case`
must return as many regions as this, with the same tags, values, bindings
and partitioned flag, and each region checker-equivalent to the one here;
past the BDD's atom or read-back limit, exactly the region here.
"""

from dataclasses import replace

from fomdp.cases import CaseStatement, build_case
from fomdp.logic import And, ConsistencyChecker, Not, Or, sort_key


def reference_max_case(c: CaseStatement, chk: ConsistencyChecker) -> CaseStatement:
    ordered = sorted(c.partitions, key=lambda p: (-p.value, p.tag or "", sort_key(p.formula)))
    out = []
    prefix: list = []
    for p in ordered:
        refined = And(tuple([p.formula] + prefix)) if prefix else p.formula
        out.append(replace(p, formula=refined))
        prefix.append(Not(p.formula))
    covers = chk.is_valid(Or(tuple(p.formula for p in ordered))) if ordered else False
    return build_case(out, chk, covers)


def assert_same_regions(got: CaseStatement, want: CaseStatement, checker: ConsistencyChecker):
    """Same flag, regions, tags, values and bindings; each region checker-equivalent."""
    assert got.partitioned == want.partitioned and len(got) == len(want)
    for p, q in zip(got.partitions, want.partitions):
        assert (p.value, p.tag, p.bind_vars, p.bind_body) == (q.value, q.tag, q.bind_vars, q.bind_body)
        assert checker.equivalent(p.formula, q.formula), (p.pretty(), q.pretty())
