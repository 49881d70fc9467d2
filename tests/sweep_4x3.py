"""The tier-1 properties of the small instances, swept over every wall/floor
map of width 4 and height 3 with every ordered pair of distinct passable
cells as start and end: 135,168 instances on 4,096 maps.

On each instance it checks that
- the solver's plan is the first SLD refutation of the learned program;
- the solver, fsc-bt, fsc-bt-slam and fsc-re-slam end ``solved`` exactly when
  the end is reachable, and fsc-re ends as ``FSC_RE_OUTCOMES`` allows;
- ``prove`` on the instance's bound example gives the Top program read off
  the tiles.

On each map with at least two passable cells it checks that one ``learn``
call over examples with mixed goals (every ordered pair of passable cells,
start equal to end included, and each cell to the unbound goal) gives the
union of ``prove``'s answers, or names the first unprovable example.

pytest does not collect this file; run it from the repository root:

    PYTHONPATH=src python tests/sweep_4x3.py

It prints the instance count, the time taken and every failing instance or
map with the checks it fails, and exits 1 if any check fails.  Instances are
taken as they come: none is filtered out.
"""

from __future__ import annotations

import sys
import time

from gridnav import (
    SOLVED,
    ActionBackground,
    learn_controller,
    learn_solver,
    run_single,
    serialize_map,
)

from test_equivalence import sld_plan, violations
from test_top_program import (
    batched_learn_mismatches,
    bound_instances,
    maps_of,
    mixed_goal_examples,
    prove_bound,
    tiles_top_program,
)

INSTANCES = 135_168


def failed_checks(grid, solver, controller) -> list:
    bad = violations(grid, solver, controller)
    run = run_single("solver", grid, solver=solver)
    if (run.labels if run.outcome == SOLVED else None) != sld_plan(grid, solver):
        bad.append(("sld", run.outcome))
    if prove_bound(grid) != tiles_top_program(grid):
        bad.append(("prove", "differs from the tiles"))
    return bad


def main() -> int:
    began = time.perf_counter()
    solver = learn_solver()
    controller = learn_controller(solver)
    instances = 0
    failures = []
    for grid in bound_instances(maps_of(4, 3)):
        instances += 1
        if bad := failed_checks(grid, solver, controller):
            failures.append((grid, bad))
    for grid in maps_of(4, 3):
        if len(grid.passable_cells()) < 2:
            continue
        examples = mixed_goal_examples(grid)
        if bad := batched_learn_mismatches(examples, ActionBackground(grid)):
            failures.append((grid, bad))
    print(f"{instances} instances, {len(failures)} failing, "
          f"{time.perf_counter() - began:.1f} s")
    for grid, bad in failures:
        print(serialize_map(grid), end="")
        print(f"  fails: {bad}\n")
    if instances != INSTANCES:
        print(f"expected {INSTANCES} instances")
        return 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
