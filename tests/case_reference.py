"""Reference evaluation of union-semantics cases, the oracle of the `max_case` tests.

`eval_max` reads a case as the largest value among the partitions whose
formula holds, free variables read existentially (typed from the signature
when one is given), each formula interpreted by `state_reference`.
"""

from typing import Mapping, Optional, Sequence

from fomdp.cases import CaseStatement
from fomdp.logic import GroundState, implicit_close, survey
from state_reference import eval_in_state


def eval_max(c: CaseStatement, state: GroundState, signature: Optional[Mapping[str, Sequence]] = None) -> float:
    """Maximum value over the satisfied partitions; ValueError when none is satisfied."""

    def holds(f) -> bool:
        return eval_in_state(implicit_close(f, survey(f, signature or {})[0]), state)

    return max(p.value for p in c.partitions if holds(p.formula))
