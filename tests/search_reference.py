"""Reference violation search: `folp.search_schema` without its value bound.

Every certified pattern (all negative, then each positive in turn) is
extended by every selection of the other cases in index order, and each full
selection whose conjunction is consistent is summed and evaluated.  The
visiting order, the order of the sums and the update rule (replace the best
only when beaten by more than 1e-15) are the search's, so a bounded search
must return the same selection, the same expr and the same float.
"""

import itertools

from fomdp.folp import VIOLATION_TOL, LinExpr, ViolatedConstraint
from fomdp.logic import conj


def reference_search(schema, weights, checker):
    cert = tuple(schema.certified)
    others = [i for i in range(len(schema.cases)) if i not in cert]
    best = None
    for positive in (None,) + cert:
        sel = {i: 0 if i == positive else 1 for i in cert}
        for choice in itertools.product(*(range(len(schema.cases[i].partitions)) for i in others)):
            sel.update(zip(others, choice))
            parts = [schema.cases[i].partitions[sel[i]] for i in cert + tuple(others)]
            if not checker.is_consistent(conj(tuple(p.formula for p in parts))):
                continue
            expr = sum((p.value for p in parts), LinExpr())
            value = expr.evaluate(weights)
            if best is None or value > best.violation + 1e-15:
                selection = tuple(sel[i] for i in range(len(schema.cases)))
                best = ViolatedConstraint(schema.schema_id, selection, expr, value)
    return None if best is None or best.violation <= VIOLATION_TOL else best
