"""gridnav benchmark: one workload, one seed, timed in rounds.

    python3 perfbench/run.py --workload lake-slam --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one process each

Run from the repository root; gridnav is imported from ``src/``.  The
workloads drive the public API (``learn_solver``, ``learn_controller``,
``fixture_map``, ``with_endpoints``, ``run_single``) in one process and one
thread:

- lake-slam     solver, fsc-bt, fsc-bt-slam and fsc-re-slam, each on 12
                seeded start/end rolls of its own on each of the five
                20x20 lake fixtures, drawn by distance strata;
- learn         one run is ``learn_controller(learn_solver())``, the
                observation matrices in a seeded order.

The whole schedule of runs is repeated in rounds, in a new seeded order each
round, for about ``--seconds``; each run's time is its best over the rounds.
``--trace 0`` installs nothing and reports the end-to-end metrics.
``--trace 1`` runs each instance untraced and traced and reports the
per-layer metrics from the tracer (``tracing.py``) and the tracing overhead.
Every run is checked: it must be ``solved`` and its labels must play back to
the goal, and at the default seed its outcome, steps and labels must match
``golden.json``.  A failed check makes the command exit with status 1.  The
last line of standard output is one JSON object; a fuller record, with the
run environment and sample counts, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
GOLDEN = os.path.join(HERE, "golden.json")

perf_counter = time.perf_counter

DEFAULT_SEED = 0
SETUPS = 9          # set-ups per run, spread over the pass; setup_s is their median
WARMUP_RUNS = 3     # schedule entries run once before timing starts
MIN_ROUNDS = 3      # every untraced time is the best of at least three runs

# fsc-re is not run: without SLAM it circles on the lakes until its step
# budget runs out on most rolls.
SOLVER, FSC_BT, FSC_BT_SLAM, FSC_RE_SLAM = "solver", "fsc-bt", "fsc-bt-slam", "fsc-re-slam"
AGENTS = (SOLVER, FSC_BT, FSC_BT_SLAM, FSC_RE_SLAM)
FSC_AGENTS = AGENTS[1:]
SLAM_AGENTS = (FSC_BT_SLAM, FSC_RE_SLAM)
LEARN = "learn"

# Start/end rolls per 20x20 lake fixture.  Each run's time is the best of its
# runs over the pass, and that best is steady only when every run is made a
# few dozen times, so a round of the schedule has to take about a second:
# 12 rolls a fixture for each of the four agents make 240 runs.  The rolls
# are drawn by distance strata (lake_rolls), which keeps the run-time mix
# nearly the same from seed to seed: with 12 plain random rolls shared by
# the agents, run_ms.p50 spread 0.15 over ten seeds with the host's drift
# shared out, and with stratified rolls 0.06 to 0.09.  Rolls of its own make
# each agent's runs independent samples.
LAKE_ROLLS = 12
LEARN_ORDERS = 100  # seeded orders of the observation matrices

WORKLOADS = {
    "lake-slam": AGENTS,
    "learn": (LEARN,),
}

E2E_UNITS = {
    "setup_s": "s",
    "runs_per_s": "1/s",
    "run_ms.p50": "ms",
    "run_ms.p90": "ms",
    "peak_rss_mb": "MB",
}


class CheckFailed(Exception):
    pass


def derived_seed(seed: int, part: str) -> int:
    """The generator seed for one part of a workload; generators never see
    the workload seed itself."""
    digest = hashlib.sha256(f"{seed}/{part}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def short_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def import_gridnav():
    """Import gridnav afresh from this checkout's ``src``: earlier imports
    are dropped so that import time is part of every set-up."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == "gridnav" or n.startswith("gridnav.")]:
        del sys.modules[name]
    gridnav = importlib.import_module("gridnav")
    if os.path.dirname(os.path.abspath(gridnav.__file__)) != os.path.join(SRC, "gridnav"):
        raise ImportError(f"gridnav was imported from {gridnav.__file__}, not from {SRC}")
    return gridnav


_LAKE_ROLLS: dict[tuple, list] = {}


def lake_rolls(gridnav, seed: int, rolls: int, agents):
    """[(fixture, start, end, agent)]: for each agent, ``rolls`` start/end
    pairs of its own on each lake fixture, cells as (x, y).  A fixture's
    ordered pairs of distinct passable cells, sorted by Manhattan distance,
    are cut into ``rolls`` equal shares, and one pair is drawn from each
    share for each agent.  Pairs are found
    by rank from per-start distance counts, so that no list of all pairs
    adds to the process's peak memory.  The rolls are the workload's
    inputs, not part of gridnav's set-up: they are drawn once per process,
    and set_up draws them before any set-up is timed."""
    key = (seed, rolls, agents)
    if key not in _LAKE_ROLLS:
        rng = random.Random(derived_seed(seed, "lake"))
        chosen = []
        for fixture in gridnav.lake_fixture_names():
            cells = sorted((c.x, c.y) for c in gridnav.fixture_map(fixture).passable_cells())

            def distance(a, b):
                return abs(a[0] - b[0]) + abs(a[1] - b[1])

            per_start = [Counter(distance(a, b) for b in cells if b != a) for a in cells]
            per_distance = sum(per_start, Counter())
            pairs = sum(per_distance.values())
            for agent, k in ((agent, k) for agent in agents for k in range(rolls)):
                rank = rng.randrange(k * pairs // rolls, (k + 1) * pairs // rolls)
                for d in sorted(per_distance):
                    if rank < per_distance[d]:
                        break
                    rank -= per_distance[d]
                for start, counts in zip(cells, per_start):
                    if rank < counts[d]:
                        break
                    rank -= counts[d]
                end = [b for b in cells if b != start and distance(start, b) == d][rank]
                chosen.append((fixture, start, end, agent))
        _LAKE_ROLLS[key] = chosen
    return _LAKE_ROLLS[key]


def build_schedule(gridnav, workload: str, seed: int, tiny: bool):
    """[(instance name, input, agent)] for the workload at this seed."""
    agents = WORKLOADS[workload]
    if workload == "lake-slam":
        fixtures = {name: gridnav.fixture_map(name) for name in gridnav.lake_fixture_names()}
        return [(f"{fixture}:{start}:{end}",
                 gridnav.with_endpoints(fixtures[fixture], gridnav.Coord(*start),
                                        gridnav.Coord(*end)), agent)
                for fixture, start, end, agent
                in lake_rolls(gridnav, seed, 1 if tiny else LAKE_ROLLS, agents)]
    matrices = gridnav.observation_matrices()
    rng = random.Random(derived_seed(seed, "learn"))
    return [(f"order-{k:02d}", tuple(rng.sample(matrices, len(matrices))), LEARN)
            for k in range(2 if tiny else LEARN_ORDERS)]


class Bench:
    """One set-up of a workload: the imported package, the learned programs,
    the run schedule, and the output checks."""

    def __init__(self, workload: str, seed: int, tiny: bool):
        self.workload, self.seed, self.tiny = workload, seed, tiny
        started = perf_counter()
        self.gridnav = import_gridnav()
        wb = self.gridnav.workbench
        self.solver = wb.learn_solver()
        self.controller = wb.learn_controller(self.solver)
        self.schedule = build_schedule(self.gridnav, workload, seed, tiny)
        self.setup_s = perf_counter() - started
        self.golden_programs = None  # digests of the solver and controller texts
        self.expected = None         # golden per-run digests, at the default seed
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, entry):
        """Run one schedule entry; returns (seconds, output).  Only the call
        into gridnav is timed."""
        _, item, agent = entry
        wb = self.gridnav.workbench
        if agent == LEARN:
            started = perf_counter()
            solver = wb.learn_solver()
            controller = wb.learn_controller(solver, item)
            elapsed = perf_counter() - started
            return elapsed, (solver, controller)
        started = perf_counter()
        out = wb.run_single(agent, item, solver=self.solver, controller=self.controller)
        return perf_counter() - started, out

    def check(self, entry, out) -> None:
        """Count the run and check its output: solved, plays back to the
        goal, the same as every earlier run of the entry, and at the default
        seed the same as the golden record."""
        name, _, agent = entry
        key = f"{name}|{agent}"
        try:
            if agent == LEARN:
                solver, controller = out
                texts = (solver.to_text(), controller.to_text())
                if self.golden_programs and [short_digest(t) for t in texts] != self.golden_programs:
                    raise CheckFailed("learned programs differ from the golden ones")
                digest = short_digest(key + "|" + "".join(texts))
            else:
                if not out.solved:
                    raise CheckFailed(f"outcome {out.outcome}")
                if not self.gridnav.playback(out.grid, out.labels)[0]:
                    raise CheckFailed("labels do not play back to the goal")
                digest = short_digest(f"{key}|{out.outcome}|{out.steps}|{','.join(out.labels)}")
            if self.digests.setdefault(key, digest) != digest:
                raise CheckFailed("output differs from an earlier run of the same instance")
            if self.expected is not None and self.expected.get(key) != digest:
                raise CheckFailed("output differs from golden.json")
        except CheckFailed as err:
            self.failed += 1
            self.failures.append(f"{key}: {err}")
        self.attempted += 1

    def run_checked(self, entry):
        elapsed, out = self.run(entry)
        self.check(entry, out)
        return elapsed, out

    def finish_checks(self) -> None:
        """Every golden run must have been made."""
        if self.expected is not None:
            for key in sorted(set(self.expected) - set(self.digests)):
                self.failed += 1
                self.failures.append(f"{key}: no run made")


def set_up(workload: str, seed: int, tiny: bool) -> Bench:
    """Set up once and arm the Bench with the golden record.  The learned
    solver and controller must match the golden programs at every seed."""
    if workload == "lake-slam":
        lake_rolls(import_gridnav(), seed, 1 if tiny else LAKE_ROLLS, WORKLOADS[workload])
    bench = Bench(workload, seed, tiny)
    with open(GOLDEN) as f:
        golden = json.load(f)
    bench.golden_programs = golden["programs"]
    programs = [short_digest(p.to_text()) for p in (bench.solver, bench.controller)]
    if programs != bench.golden_programs:
        bench.failed += 1
        bench.failures.append("set-up: learned programs differ from the golden ones")
    bench.attempted += 1
    if seed == DEFAULT_SEED and not tiny:
        bench.expected = golden["runs"][workload]
    return bench


def usable_cpus() -> list[int]:
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:
        return []


def loop_ms(steps: int) -> float:
    """Time of a fixed pure-Python loop, in milliseconds."""
    started = perf_counter()
    acc = 0
    for i in range(steps):
        acc += i * i % 7
    return (perf_counter() - started) * 1000


class Pass:
    """What one timed pass measured: (agent, best time) per schedule entry,
    untraced and traced, and per label the traced runs and executor moves."""

    def __init__(self, schedule):
        self.agents = [entry[2] for entry in schedule]
        self.best = {False: [float("inf")] * len(schedule),
                     True: [float("inf")] * len(schedule)}
        self.traced_runs = {agent: 0 for agent in AGENTS + (LEARN,)}
        self.moves = {agent: 0 for agent in AGENTS}
        self.rounds = 0

    def times(self, traced: bool = False):
        return list(zip(self.agents, self.best[traced]))


def timed_pass(bench: Bench, seconds: float, tracer=None, setup_times=None) -> Pass:
    """Run the schedule in rounds, each in a new seeded order, until
    ``seconds`` of rounds have passed and at least MIN_ROUNDS whole rounds
    were run; the last round may stop part way.

    The host's speed changes in phases of seconds to minutes, so each
    entry's time is the best of its runs, which are spread over the pass.
    With a tracer, each instance's runs are made once untraced and once
    traced, switching which goes first.  With ``setup_times``, SETUPS
    set-ups in all are timed, spread evenly over the pass between rounds;
    their time is not counted in ``seconds``."""
    schedule = bench.schedule
    for entry in schedule[:WARMUP_RUNS]:
        bench.run_checked(entry)
    measured = Pass(schedule)
    groups = {}
    for i, entry in enumerate(schedule):
        groups.setdefault(entry[0], []).append(i)
    order = list(groups.values())
    modes = (False, True) if tracer else (False,)
    rng = random.Random(derived_seed(bench.seed, "order"))
    deadline = perf_counter() + seconds

    def set_up_again():
        nonlocal deadline
        begun = perf_counter()
        setup_times.append(Bench(bench.workload, bench.seed, bench.tiny).setup_s)
        gc.collect()  # the dropped package's reference cycles, so peak RSS does not vary
        deadline += perf_counter() - begun

    while measured.rounds < MIN_ROUNDS or perf_counter() < deadline:
        rounds_time = perf_counter() - (deadline - seconds)
        if (setup_times is not None and len(setup_times) < SETUPS
                and rounds_time >= len(setup_times) * seconds / SETUPS):
            set_up_again()
        rng.shuffle(order)
        measured.rounds += 1
        for g, indices in enumerate(order):
            if measured.rounds > MIN_ROUNDS and perf_counter() >= deadline:
                break
            for traced in (modes if g % 2 == 0 else modes[::-1]):
                if traced:
                    tracer.install()
                try:
                    for i in indices:
                        agent = schedule[i][2]
                        if traced:
                            tracer.begin_run(sum(measured.traced_runs.values()), agent)
                            measured.traced_runs[agent] += 1
                        elapsed, out = bench.run_checked(schedule[i])
                        measured.best[traced][i] = min(measured.best[traced][i], elapsed)
                        if traced and agent in FSC_AGENTS:
                            measured.moves[agent] += len(out.result.path) - 1
                finally:
                    if traced:
                        tracer.uninstall()
    while setup_times is not None and len(setup_times) < SETUPS:
        set_up_again()
    return measured


def agent_rates(runs):
    """Runs per second of each agent over its own runs' time."""
    rates = {}
    for agent in AGENTS:
        times = [t for a, t in runs if a == agent]
        rates[agent] = len(times) / sum(times) if times else 0.0
    return rates


def end_to_end(setup_times, runs):
    latencies_ms = [t * 1000 for _, t in runs]
    n = len(runs)
    metrics = {
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "runs_per_s": (n / (sum(latencies_ms) / 1000), n),
        "run_ms.p50": (statistics.median(latencies_ms), n),
        "run_ms.p90": (statistics.quantiles(latencies_ms, n=10)[-1], n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    return {name: {"value": value, "unit": E2E_UNITS[name], "samples": samples}
            for name, (value, samples) in metrics.items()}


def per_layer(tracer, measured: Pass):
    """The per-layer metrics: name -> (value, unit, samples).  A layer that
    does no work on the workload reports 0."""
    from tracing import CHILD, END, SIZE, START

    def ratio(num, den):
        return num / den if den else 0.0

    def duration(s):
        return s[END] - s[START]

    runs = measured.traced_runs
    moves = measured.moves
    plain, traced = measured.times(False), measured.times(True)
    m = {}

    lake_instances = tracer.spans_named("grid.with_endpoints")
    lake_time = sum(map(duration, tracer.spans_named("grid.fixture_map") + lake_instances))
    m["grid.lake_instances.ms"] = (ratio(lake_time * 1e3, len(lake_instances)), "ms/instance",
                                   len(lake_instances))

    solves = tracer.spans_named("solver.solve")
    n_solves = len(solves)
    solve_time = sum(map(duration, solves))
    actions = tracer.spans_named("model.instantiate_actions")
    in_solve = tracer.spans_named("model.instantiate_actions", "solver.solve")
    m["model.instantiate_actions.us_per_action"] = (
        ratio(sum(map(duration, actions)) * 1e6, sum(s[SIZE] for s in actions)),
        "us/action", len(actions))
    m["model.instantiate_actions.share"] = (
        ratio(sum(map(duration, in_solve)), solve_time), "ratio", n_solves)
    m["model.ground_actions"] = (ratio(sum(s[SIZE] for s in in_solve), n_solves),
                                 "count/solve", n_solves)
    m["model.successors.calls"] = (
        ratio(tracer.stat(SOLVER, "model.successors").calls, n_solves), "count/solve", n_solves)
    m["solver.search.self_ms"] = (
        ratio(sum(duration(s) - s[CHILD] for s in solves) * 1e3, n_solves), "ms/solve", n_solves)
    m["solver.plan_len"] = (ratio(sum(s[SIZE] for s in solves), n_solves), "count/solve",
                            n_solves)
    behaviours = tracer.spans_named("solver.generate_behaviours")
    m["solver.generate_behaviours.ms"] = (
        ratio(sum(map(duration, behaviours)) * 1e3, len(behaviours)), "ms/call", len(behaviours))

    for metric, parent in (("mil.learn.solver_ms", "workbench.learn_solver"),
                           ("mil.learn.controller_ms", "workbench.learn_controller")):
        spans = tracer.spans_named("mil.learn", parent)
        m[metric] = (ratio(sum(map(duration, spans)) * 1e3, len(spans)), "ms/call", len(spans))
    backgrounds = tracer.spans_named("mil.tuple_background")
    m["mil.tuple_background.ms"] = (
        ratio(sum(map(duration, backgrounds)) * 1e3, len(backgrounds)), "ms/call",
        len(backgrounds))
    proofs = tracer.spans_named("mil.prove")
    m["mil.prove.calls"] = (ratio(len(proofs), runs[LEARN]), "count/run", runs[LEARN])
    m["mil.prove.us_per_call"] = (ratio(sum(map(duration, proofs)) * 1e6, len(proofs)),
                                  "us/call", len(proofs))

    for agent in FSC_AGENTS:
        n = runs[agent]

        def st(name):
            return tracer.stat(agent, name)

        for short, name in (("lookup", "fsc.lookup"), ("observe", "fsc.observe")):
            m[f"{agent}.{name}.calls"] = (ratio(st(name).calls, n), "count/run", n)
            m[f"{agent}.{name}.us_per_call"] = (
                ratio(st(name).total * 1e6, st(name).calls), "us/call", st(name).calls)
        if agent in SLAM_AGENTS:
            m[f"{agent}.slam.update.us_per_call"] = (
                ratio(st("slam.update").total * 1e6, st("slam.update").calls), "us/call",
                st("slam.update").calls)
            m[f"{agent}.slam.permits.calls"] = (ratio(st("slam.permits").calls, n), "count/run", n)
            m[f"{agent}.slam.veto_ratio"] = (
                ratio(st("slam.permits").flagged, st("slam.permits").calls), "ratio",
                st("slam.permits").calls)
        step = st("executors.step")
        m[f"{agent}.executors.moves_per_run"] = (ratio(moves[agent], n), "count/run", n)
        m[f"{agent}.executors.step.calls"] = (ratio(step.calls, n), "count/run", n)
        m[f"{agent}.executors.step.rejected_ratio"] = (ratio(step.flagged, step.calls), "ratio",
                                                        step.calls)
        m[f"{agent}.executors.step.self_us"] = (ratio(step.self * 1e6, step.calls), "us/call",
                                                step.calls)
        m[f"{agent}.executors.restore.calls"] = (ratio(st("executors.restore").calls, n),
                                                 "count/run", n)
        m[f"{agent}.executors.loop.us_per_move"] = (
            ratio(st("executors.execute").self * 1e6, moves[agent]), "us/move", moves[agent])

    singles = tracer.spans_named("workbench.run_single")
    m["workbench.run_single.self_us"] = (
        ratio(sum(duration(s) - s[CHILD] for s in singles) * 1e6, len(singles)), "us/run",
        len(singles))
    m["trace.overhead_frac"] = (
        ratio(sum(t for _, t in traced), sum(t for _, t in plain)) - 1, "ratio", len(traced))
    for agent, rate in agent_rates(plain).items():
        m[f"{agent}.runs_per_s"] = (rate, "1/s", sum(1 for a, _ in plain if a == agent))
    return {name: {"value": value, "unit": unit, "samples": samples}
            for name, (value, unit, samples) in m.items()}


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """Digest of every file under src/gridnav, so results name the code
    they measured even outside a git checkout."""
    h = hashlib.sha256()
    package = os.path.join(SRC, "gridnav")
    for dirpath, dirnames, filenames in sorted(os.walk(package)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            path = os.path.join(dirpath, filename)
            h.update(os.path.relpath(path, package).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read() + b"\0")
    return h.hexdigest()[:16]


def calibration_ms() -> float:
    """Median time of a fixed pure-Python loop.  Context for host-speed
    drift only: no metric is scaled by it."""
    return statistics.median(loop_ms(200_000) for _ in range(5))


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(usable_cpus()) or os.cpu_count(),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "calibration_ms": calibration_ms(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Set up and measure one workload; returns the result record.  ``tiny``
    shrinks the inputs for the benchmark's own self-test."""
    from tracing import Tracer

    extra = {}
    bench = set_up(workload, seed, tiny)
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced_schedule = build_schedule(bench.gridnav, workload, seed, tiny)
        finally:
            tracer.uninstall()
        if traced_schedule != bench.schedule:
            bench.failed += 1
            bench.failures.append("instances built under tracing differ")
        measured = timed_pass(bench, seconds, tracer=tracer)
        metrics = per_layer(tracer, measured)
        extra["tracer"] = tracer
    else:
        setup_times = [bench.setup_s]
        measured = timed_pass(bench, seconds, setup_times=setup_times)
        metrics = end_to_end(setup_times, measured.times())
    bench.finish_checks()
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "fail_frac": bench.failed / bench.attempted,
        "failures": bench.failures[:20],
        "rounds": measured.rounds,
        "metrics": metrics,
        **extra,
    }


def write_golden() -> None:
    """Rewrite golden.json from one pass over each workload's default-seed
    schedule.  Only for a change that is meant to change outputs:

        python3 -c 'import sys; sys.path[:0] = ["perfbench"]; import run; run.write_golden()'
    """
    runs = {}
    for workload in WORKLOADS:
        bench = Bench(workload, DEFAULT_SEED, tiny=False)
        for entry in bench.schedule:
            bench.run_checked(entry)
        if bench.failed:
            raise CheckFailed("; ".join(bench.failures[:5]))
        runs[workload] = bench.digests
    programs = [short_digest(bench.solver.to_text()), short_digest(bench.controller.to_text())]
    with open(GOLDEN, "w") as f:
        json.dump({"programs": programs, "runs": runs}, f, indent=0, sort_keys=True)
        f.write("\n")


def declared_metrics() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def print_table(metrics, declared) -> None:
    print(f"{'metric':<44} {'value':>14} {'unit':<12} {'samples':>8}  better")
    for name, m in metrics.items():
        better = declared.get(name, {}).get("better", "-")
        print(f"{name:<44} {m['value']:>14.6g} {m['unit']:<12} {m['samples']:>8}  {better}")


def run_all(args) -> int:
    """Run every workload, each in its own process so that peak_rss_mb is
    its own, and print their tables.  The last line joins their results,
    metric names prefixed with the workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print(f"== {workload}")
        print("\n".join(line for line in lines[:-1] if not line.startswith("env ")))
        if proc.returncode != 0 or not lines:
            print(proc.stderr.strip())
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{workload}:{name}": m
                                    for name, m in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        import_gridnav()
    except ImportError as err:
        print(f"cannot import gridnav from {SRC}: {err}", file=sys.stderr)
        return 2
    declared = declared_metrics()
    env = environment(args)
    print("env " + json.dumps(env))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))

    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = result.pop("tracer", None)
    if tracer is not None:
        spans_path = os.path.join(OUT, stem + ".spans.jsonl")
        tracer.write_spans(spans_path)
        print(f"spans: {len(tracer.spans)} written to {os.path.relpath(spans_path, ROOT)}")
    with open(os.path.join(OUT, stem + ".json"), "w") as f:
        json.dump({"env": env, **result}, f, indent=1)

    print_table(result["metrics"], declared)
    print(f"{'fail_frac':<44} {result['fail_frac']:>14.6g} {'ratio':<12} "
          f"{result['attempted']:>8}  lower")
    for failure in result["failures"]:
        print("FAILED " + failure)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
