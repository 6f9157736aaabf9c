"""Layer spans recorded from outside the program.

The tracer wraps the public functions of the `fomdp` modules while it is
installed: every module attribute that is the original function object is
swapped for a wrapper, so names imported elsewhere (`from .logic import
normalize`) are traced too, and `ConsistencyChecker.check` is wrapped on
the class.  A wrapper records one span per outermost call: recursive
re-entry into the same function (e.g. `eval_in_state`) runs unwrapped
inside the outer span.  A layer's self time is its span time minus the
time covered by its child spans.  Spans are folded into per-layer totals
as they close; nothing inside the program is changed or instrumented.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from dataclasses import dataclass, field

MODULES = ("domains", "logic", "cases", "sitcalc", "model", "folp", "solvers", "basisgen", "unidecomp")


def _checker_before(args, kwargs):
    return len(args[0]._cache)


def _checker_after(before, args, kwargs, result):
    return {"unique": int(len(args[0]._cache) > before or result is None), "timeouts": int(result is None)}


def _parts_out(before, args, kwargs, result):
    return {"parts_out": len(result.partitions)}


def _lp_rows(before, args, kwargs, result):
    model = args[0] if args else kwargs["m"]
    return {"rows": len(model.constraints)}


def _fo_iterations(before, args, kwargs, result):
    return {"iterations": result.iterations}


def _policy_iters(before, args, kwargs, result):
    return {"policy_iters": len(result.stats)}


def _basis_growth(before, args, kwargs, result):
    lvf, report = result
    return {"bases": len(lvf.bases), "discarded": report.rows[-1].num_discarded if report.rows else 0}


def _candidates(before, args, kwargs, result):
    return {"candidates": len(result)}


@dataclass(frozen=True)
class Layer:
    """One traced function: `<module>.<function>` plus optional counters.

    `before(args, kwargs)` runs ahead of the call and its value is handed to
    `after(before, args, kwargs, result)`, which returns counter increments.
    Both run inside the span, so their (small) cost is charged to it.
    `setup` marks layers reported per set-up rather than per operation.
    """

    name: str
    counters: tuple = ()
    before: object = None
    after: object = None
    setup: bool = False


LAYERS = (
    Layer("domains.parse_domain", setup=True),
    Layer("logic.check", ("unique", "timeouts"), _checker_before, _checker_after),
    Layer("logic.normalize"),
    Layer("logic.simplify_bdd"),
    Layer("logic.satisfying_bindings"),
    Layer("logic.eval_in_state"),
    Layer("cases.build_case", ("parts_out",), None, _parts_out),
    Layer("cases.cross_sum", ("parts_out",), None, _parts_out),
    Layer("cases.exists_case", ("parts_out",), None, _parts_out),
    Layer("cases.max_case", ("parts_out",), None, _parts_out),
    Layer("sitcalc.regress"),
    Layer("sitcalc.apply_action"),
    Layer("model.fodtr"),
    Layer("model.backup_linear"),
    Layer("folp.solve_lp", ("rows",), None, _lp_rows),
    Layer("folp.search_schemata"),
    Layer("folp.seed_rows"),
    Layer("folp.solve_first_order_lp", ("iterations",), None, _fo_iterations),
    Layer("solvers.foalp_solve"),
    Layer("solvers.foapi_solve", ("policy_iters",), None, _policy_iters),
    Layer("basisgen.generate_basis", ("bases", "discarded"), None, _basis_growth),
    Layer("basisgen.candidate_regressions", ("candidates",), None, _candidates),
    Layer("unidecomp.build_generic_q", setup=True),
    Layer("unidecomp.select_action"),
    Layer("unidecomp.score_actions"),
    Layer("unidecomp.substitute_goal"),
    Layer("unidecomp.goal_satisfied"),
)


@dataclass
class LayerTotals:
    calls: float = 0
    self_s: float = 0.0
    total_s: float = 0.0  # span time, children included
    counters: dict = field(default_factory=dict)

    def scaled(self, k: float) -> "LayerTotals":
        counters = {c: v * k for c, v in self.counters.items()}
        return LayerTotals(self.calls * k, self.self_s * k, self.total_s * k, counters)


def _modules():
    return {m: importlib.import_module(f"fomdp.{m}") for m in MODULES}


class Tracer:
    """Per-layer call counts, self time and counters, folded span by span.

    `recording(bucket)` traces a block into one bucket; callers use separate
    buckets to keep set-up and timed operations apart.
    """

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.totals: dict = {}
        self._stack: list = []  # child seconds of each open span
        self._active: set = set()
        self._patches = None  # (owner, attribute, original, wrapper)

    def new_bucket(self) -> dict:
        return {layer.name: LayerTotals() for layer in self.layers}

    def _wrap(self, layer: Layer, fn):
        name = layer.name
        stack, active = self._stack, self._active
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if name in active:
                return fn(*args, **kwargs)
            before = layer.before(args, kwargs) if layer.before else None
            frame = [0.0]
            stack.append(frame)
            active.add(name)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                extra = layer.after(before, args, kwargs, result) if layer.after else None
            finally:
                dt = clock() - t0
                active.discard(name)
                stack.pop()
                if stack:
                    stack[-1][0] += dt
            totals = self.totals[name]
            totals.calls += 1
            totals.self_s += dt - frame[0]
            totals.total_s += dt
            if extra:
                for k, v in extra.items():
                    totals.counters[k] = totals.counters.get(k, 0) + v
            return result

        return traced

    def _plan(self) -> list:
        """Every attribute through which the program reaches a traced layer."""
        mods = _modules()
        plan = []
        for layer in self.layers:
            if layer.name == "logic.check":
                owner = mods["logic"].ConsistencyChecker
                orig = owner.__dict__["check"]
                plan.append((owner, "check", orig, self._wrap(layer, orig)))
                continue
            mod_name, fn_name = layer.name.split(".")
            orig = getattr(mods[mod_name], fn_name)
            wrapper = self._wrap(layer, orig)
            plan += [
                (mod, attr, orig, wrapper)
                for mod in mods.values()
                for attr, value in vars(mod).items()
                if value is orig
            ]
        return plan

    @contextlib.contextmanager
    def recording(self, bucket: dict):
        """Trace the block into `bucket`."""
        if self._patches is None:
            self._patches = self._plan()
        self.totals = bucket
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, orig, _ in reversed(self._patches):
                setattr(owner, attr, orig)


class VerdictWatch:
    """Counts `ConsistencyChecker.check` verdicts of None (wall-clock timeouts).

    Installed for the whole run, traced or not: a timeout is read as
    "consistent", so a result that saw one depends on machine load.
    """

    def __init__(self):
        self.timeouts = 0
        self._owner = None
        self._orig = None

    def __enter__(self):
        owner = _modules()["logic"].ConsistencyChecker
        orig = owner.__dict__["check"]

        def check(checker, f):
            verdict = orig(checker, f)
            if verdict is None:
                self.timeouts += 1
            return verdict

        owner.check = check
        self._owner, self._orig = owner, orig
        return self

    def __exit__(self, *exc):
        self._owner.check = self._orig
        return False
