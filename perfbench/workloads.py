"""The three benchmark workloads.

Each workload runs in one process as a closed loop: one client issues an
operation, waits for its result, then issues the next.  The program only
sees inputs generated here from the seed.  A traced run alternates
untraced and traced operations, so the tracing overhead is read off within
the run.
"""

from __future__ import annotations

import contextlib
import itertools
import random
import time
from dataclasses import dataclass, field, replace

from fomdp import basisgen, domains, sitcalc, unidecomp
from fomdp.logic import ActTerm, ConsistencyChecker, Universe, make_state

import ground

ORACLE_TOL = 1e-6


class BenchmarkError(Exception):
    """The run cannot produce a result."""


@dataclass
class Run:
    """Everything one run measures, before it becomes metrics."""

    seed: int
    seconds: float
    watch: object  # VerdictWatch, installed for the whole run
    tracer: object = None  # Tracer on a traced run
    setup_s: list = field(default_factory=list)
    objectives: list = field(default_factory=list)
    op_s: list = field(default_factory=list)  # untraced operation latencies
    traced_op_s: list = field(default_factory=list)
    loop_s: float = 0.0  # wall time of the measuring loop
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    setup_bucket: dict = None
    op_bucket: dict = None
    traced_setups: int = 0

    def __post_init__(self):
        if self.tracer is not None:
            self.setup_bucket = self.tracer.new_bucket()
            self.op_bucket = self.tracer.new_bucket()

    def fail(self, message: str, ops: int = 1):
        self.failed += ops
        self.problems.append(message)

    def traced(self, bucket: dict, on: bool):
        """Install the tracer into `bucket` for the block when `on`."""
        if self.tracer is None or not on:
            return contextlib.nullcontext()
        return self.tracer.recording(bucket)

    def alternate(self, k: int) -> bool:
        """On a traced run, odd-numbered operations are traced."""
        return self.tracer is not None and k % 2 == 1

    def loop_done(self, t_start: float) -> bool:
        """Time is up and every kind of operation has a sample (or one failed)."""
        if time.perf_counter() - t_start < self.seconds:
            return False
        if self.failed:
            return True
        return bool(self.op_s) and (self.tracer is None or bool(self.traced_op_s))


def _fresh_generic(fixture: str):
    """Load a fixture, swap in its single generic goal, hand it an empty checker.

    Loading validates the model through its checker, which leaves a few
    verdicts cached; a new checker makes every solve start cold.
    """
    model, _ = domains.load_fixture(fixture)
    g = unidecomp.make_generic_goal(model)
    return replace(g, checker=ConsistencyChecker(g.bound, g.signature()))


def _timed_solve(run: Run, model, solver: str):
    """One cold `generate_basis`: (lvf, report, seconds, timed-out checks)."""
    cached = len(model.checker._cache)
    if cached:
        raise BenchmarkError(f"checker holds {cached} verdicts before a cold solve")
    before = run.watch.timeouts
    config = basisgen.BasisGenConfig(iters=2, solver=solver)
    t0 = time.perf_counter()
    lvf, report = basisgen.generate_basis(model, config)
    dt = time.perf_counter() - t0
    return lvf, report, dt, run.watch.timeouts - before


# ---------------------------------------------------------------------------
# cold solves


class SolveWorkload:
    """Repeated cold `generate_basis(make_generic_goal(model), iters=2)`.

    Every repetition loads the fixture fresh, checks the checker is empty,
    and times the solve.  All solves of a run must return the same value
    function, so one ground-oracle check covers them all.  Set-up time is
    sampled by loads made before any solve, so collecting a solve's garbage
    does not land in it.
    """

    setup_samples = 20

    def __init__(self, fixture: str, solver: str):
        self.fixture = fixture
        self.solver = solver

    def run(self, run: Run):
        if run.tracer is None:
            for _ in range(self.setup_samples):
                t0 = time.perf_counter()
                _fresh_generic(self.fixture)
                run.setup_s.append(time.perf_counter() - t0)
        first = None
        k = 0
        t_start = time.perf_counter()
        while not run.loop_done(t_start):
            traced = run.alternate(k)
            k += 1
            with run.traced(run.setup_bucket, traced):
                model = _fresh_generic(self.fixture)
            run.traced_setups += traced
            run.attempted += 1
            try:
                with run.traced(run.op_bucket, traced):
                    lvf, report, dt, timeouts = _timed_solve(run, model, self.solver)
            except BenchmarkError:
                raise
            except Exception as exc:  # keep measuring; the failure is counted
                run.fail(f"solve raised {type(exc).__name__}: {exc}")
                continue
            (run.traced_op_s if traced else run.op_s).append(dt)
            run.objectives.append(report.rows[-1].solver_objective)
            if timeouts:
                run.fail(f"{timeouts} consistency checks timed out during a solve")
            if first is None:
                first = lvf, report
            elif lvf != first[0]:
                run.fail("two cold solves of the same input returned different value functions")
        run.loop_s = time.perf_counter() - t_start
        if first is None:
            return
        try:
            passed = self.oracle(run, *first)
        except ground.OracleError as exc:
            run.problems.append(f"ground oracle: {exc}")
            passed = False
        if not passed:
            run.fail("the solved value function failed its ground oracle", run.attempted - run.failed)


class FoalpBoxWorkload(SolveWorkload):
    """FOALP on boxworld; the oracle checks V ≥ every ground one-step backup."""

    def __init__(self):
        super().__init__("boxworld_mini", "foalp")

    def oracle(self, run: Run, lvf, report) -> bool:
        rng = random.Random(run.seed)
        cities = ["c_star", "city1"] + (["city2"] if rng.random() < 0.5 else [])
        trucks = ["truck1"] + (["truck2"] if rng.random() < 0.5 else [])
        boxes = ["b_star", "box1"]
        world = ground.BoxWorld(boxes, trucks, cities)
        atoms = {("Dst", "b_star", "c_star"), ("Dst", "box1", rng.choice(cities))}
        atoms |= {("snow", c) for c in cities if rng.random() < 0.5}
        atoms |= {("TAt", t, rng.choice(cities)) for t in trucks}
        for b in boxes:
            atoms.add(("On", b, rng.choice(trucks)) if rng.random() < 0.3 else ("BIn", b, rng.choice(cities)))
        states = ground.reachable(world, frozenset(atoms))
        value = ground.LinearValue(lvf, world.pools, {})
        gap = ground.upper_bound_gap(world, states, ("b_star", "c_star"), value)
        run.notes.update(oracle_states=len(states), oracle_max_backup_minus_v=gap)
        return gap <= ORACLE_TOL


class FoapiBlocksWorkload(SolveWorkload):
    """FOAPI on blocksworld; the oracle checks |V* − V| ≤ 2γφ/(1−γ)."""

    def __init__(self):
        super().__init__("blocksworld_mini", "foapi")

    def oracle(self, run: Run, lvf, report) -> bool:
        rng = random.Random(run.seed)
        blocks = ["x_star", "y_star", "block1"]
        world = ground.BlocksWorld(blocks)
        atoms = {("GoalOn", "x_star", "y_star")}
        order = blocks[:]
        rng.shuffle(order)
        for below, above in zip(order, order[1:]):
            if rng.random() < 0.5:
                atoms.add(("On", above, below))
        states = ground.reachable(world, frozenset(atoms))
        goal = ("x_star", "y_star")
        v_star = ground.value_iteration(world, states, goal)
        value = ground.LinearValue(lvf, world.pools, {})
        err = max(abs(v_star[s] - value(s)) for s in states)
        phi = report.rows[-1].solver_objective
        bound = 2.0 * ground.DISCOUNT * phi / (1.0 - ground.DISCOUNT)
        run.notes.update(oracle_states=len(states), oracle_max_abs_v_err=err, oracle_loss_bound=bound)
        return err <= bound + ORACLE_TOL


# ---------------------------------------------------------------------------
# decision serving


@dataclass(frozen=True)
class Episode:
    pools: dict
    init: frozenset
    goals: tuple  # (box, destination city)
    outcome_seed: int


def make_episodes(seed: int) -> list:
    """Two boxworld instances per shape: boxes 3–8 × trucks 1–2 × cities 3–4.

    Snow, destinations and starting places are drawn from the seed.  Every
    box starts away from its destination, on a truck or in a city; the first
    box always rides a truck so some goal is within reach of the two-step
    value function.  Two instances per shape halve how much the decision
    times depend on the seed's draws.
    """
    rng = random.Random(seed)
    out = []
    for nb, nt, nc, _ in itertools.product(range(3, 9), (1, 2), (3, 4), range(2)):
        boxes = [f"box{i}" for i in range(1, nb + 1)]
        trucks = [f"truck{i}" for i in range(1, nt + 1)]
        cities = [f"city{i}" for i in range(1, nc + 1)]
        atoms = {("snow", c) for c in cities if rng.random() < 0.5}
        atoms |= {("TAt", t, rng.choice(cities)) for t in trucks}
        goals = []
        for i, b in enumerate(boxes):
            dst = rng.choice(cities)
            atoms.add(("Dst", b, dst))
            goals.append((b, dst))
            if i == 0 or rng.random() < 0.5:
                atoms.add(("On", b, rng.choice(trucks)))
            else:
                atoms.add(("BIn", b, rng.choice([c for c in cities if c != dst])))
        pools = {"Box": tuple(boxes), "Truck": tuple(trucks), "City": tuple(cities)}
        out.append(Episode(pools, frozenset(atoms), tuple(goals), rng.getrandbits(32)))
    return out


class Session:
    """One episode being played, restarted from its first state when it ends."""

    def __init__(self, episode: Episode, decision_cap: int):
        self.episode = episode
        self.cap = decision_cap
        self.universe = Universe.of(episode.pools)
        self.world = ground.BoxWorld(episode.pools["Box"], episode.pools["Truck"], episode.pools["City"])
        self.plays = 0
        self.first_play = None  # (action, score) trajectory of the first play
        self.goals_met = 0  # at the end of the first play
        self.restart()

    def restart(self):
        self.rng = random.Random(self.episode.outcome_seed)
        self.atoms = self.episode.init
        self.trajectory = []

    def over(self) -> bool:
        return len(self.trajectory) >= self.cap or all(
            self.world.goal_holds(self.atoms, g) for g in self.episode.goals
        )

    def replay_ok(self) -> bool:
        """A replay so far matches the first play's decisions."""
        return self.trajectory == self.first_play[: len(self.trajectory)]


class ServeBoxWorkload:
    """Closed-loop generic-goal decisions on seeded boxworld instances.

    Set-up solves the generic goal with FOAPI (iters=2) and builds the
    per-template Q cases.  One client serves one session per episode, round
    robin, one decision at a time, so the mix of shapes stays even whenever
    time runs out.  A decision is `select_action` (timed), an outcome drawn
    with the episode's own RNG, and `apply_action` to advance.  An episode
    ends when every goal holds or at the decision cap, then replays from its
    start.  Every first play completes; it fixes goal_frac and the oracle
    sample, and replays must repeat its decisions exactly.
    """

    setups = 3
    decision_cap = 5
    sample_rate = 0.1  # share of first-play decisions checked by the oracle
    sample_cap = 24

    def setup(self, run: Run, traced: bool):
        with run.traced(run.setup_bucket, traced):
            t0 = time.perf_counter()
            model = _fresh_generic("boxworld_mini")
            lvf, report, _, timeouts = _timed_solve(run, model, "foapi")
            qset = unidecomp.build_generic_q(model, lvf)
            total = time.perf_counter() - t0
        run.attempted += 1
        if timeouts:
            run.fail(f"{timeouts} consistency checks timed out during the set-up solve")
        if not traced:
            run.setup_s.append(total)
        run.objectives.append(report.rows[-1].solver_objective)
        return model, lvf, qset

    def run(self, run: Run):
        if run.tracer is None:
            built = [self.setup(run, False) for _ in range(self.setups)]
            if any(b[1:] != built[0][1:] for b in built):
                run.fail("repeated set-ups built different value functions or Q cases")
            model, lvf, qset = built[-1]
        else:
            model, lvf, qset = self.setup(run, True)
            run.traced_setups = 1
        sessions = [Session(ep, self.decision_cap) for ep in make_episodes(run.seed)]
        sampler = random.Random(run.seed + 1)
        samples: list = []
        signature = model.signature()
        t_start = time.perf_counter()
        for k in itertools.count():
            if all(s.plays for s in sessions) and run.loop_done(t_start):
                break
            s = sessions[k % len(sessions)]
            if s.over():
                self.end_play(run, s)
            traced = run.alternate(k)
            run.attempted += 1
            state = make_state(s.atoms, s.universe)
            try:
                with run.traced(run.op_bucket, traced):
                    t0 = time.perf_counter()
                    act, score = unidecomp.select_action(qset, s.episode.goals, state)
                    dt = time.perf_counter() - t0
                    name, args = act.name, tuple(o.name for o in act.args)
                    outcome, nxt = _sample(s.world.outcomes(s.atoms, name, args), s.rng)
                    moved = sitcalc.apply_action(ActTerm(outcome, act.args), state, model.ssas, signature)
            except Exception as exc:  # keep serving; the failure is counted
                run.fail(f"decision raised {type(exc).__name__}: {exc}")
                s.trajectory.append(None)
                continue
            (run.traced_op_s if traced else run.op_s).append(dt)
            s.trajectory.append((name, args, score))
            if moved.atoms != nxt:
                run.fail(f"apply_action disagrees with the ground simulator after {outcome}{args}")
            if not s.plays and len(samples) < self.sample_cap and sampler.random() < self.sample_rate:
                samples.append((s.world, s.atoms, s.episode.goals, name, args, score))
            s.atoms = nxt
        run.loop_s = time.perf_counter() - t_start
        for s in sessions:
            if not s.replay_ok():
                run.fail("a replayed episode took different decisions than its first play")
        met = sum(s.goals_met for s in sessions)
        tried = sum(len(s.episode.goals) for s in sessions)
        run.notes.update(episodes=len(sessions), goal_frac=met / tried, oracle_decisions=len(samples))
        worst = 0.0
        for world, atoms, goals, name, args, score in samples:
            try:
                err = self.oracle(world, atoms, goals, name, args, score, lvf)
            except ground.OracleError as exc:
                run.fail(f"decision {name}{args}: ground oracle: {exc}")
                continue
            worst = max(worst, err)
            if err > ORACLE_TOL:
                run.fail(f"decision {name}{args} is off its ground lookahead by {err:.3g}")
        run.notes["oracle_worst_err"] = worst

    @staticmethod
    def end_play(run: Run, s: Session):
        if not s.plays:
            s.first_play = s.trajectory
            s.goals_met = sum(s.world.goal_holds(s.atoms, g) for g in s.episode.goals)
        elif not s.replay_ok():
            run.fail("a replayed episode took different decisions than its first play")
        s.plays += 1
        s.restart()

    @staticmethod
    def oracle(world, atoms, goals, name, args, score, lvf) -> float:
        """How far the chosen action is from the best ground lookahead average."""
        values = {
            g: ground.LinearValue(lvf, world.pools, {"b_star": g[0], "c_star": g[1]})
            for g in goals
        }
        scores = ground.decision_scores(world, atoms, goals, values)
        return max(abs(scores[(name, args)] - score), max(scores.values()) - score)


def _sample(outcomes: list, rng: random.Random):
    """(outcome name, successor) drawn by probability."""
    r = rng.random()
    for outcome, p, nxt in outcomes:
        r -= p
        if r < 0.0:
            return outcome, nxt
    return outcomes[-1][0], outcomes[-1][2]


WORKLOADS = {
    "solve-foalp-box": FoalpBoxWorkload,
    "solve-foapi-blocks": FoapiBlocksWorkload,
    "serve-box": ServeBoxWorkload,
}
