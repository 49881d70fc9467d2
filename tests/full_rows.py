"""The ``--full`` experiment rows at seed 0, pinned by sha256.

One digest per row: the per-instance CSV (``ExperimentReport.to_csv``) of
each agent's ``--full`` maze row (100 mazes of 101x101) and ``--full`` lake
row (250 rolls of the five 20x20 lake fixtures).  Any change to an
instance set, an outcome or a step count of the paper's table shows here.
The desk maze rows are pinned in tier-1 (``tests/test_workbench.py``).

pytest does not collect this file; it takes under a minute.  Run it from the
repository root:

    PYTHONPATH=src python tests/full_rows.py

It prints each row's digest, whether it matches and the row's seconds, then
the process's peak RSS, and exits 1 if any row differs.  No benchmark
workload runs mazes, so the maze rows' seconds are where a cost to the
maze planner shows.
"""

from __future__ import annotations

import hashlib
import resource
import sys
import time

from gridnav import AGENTS, ExperimentSpec, learn_controller, learn_solver, run_experiment

# (environment, agent) -> sha256 of the row's per-instance CSV at seed 0.
ROW_DIGESTS = {
    ("maze", "solver"):
        "0be00e605af4f36d5eaffd595157787191da202b66b141c89130702f429de433",
    ("maze", "fsc-bt"):
        "96bd090423c19b54ec5bd62beeb040a0844931ad99d0124a6e24282363c63c56",
    ("maze", "fsc-re"):
        "9b2151b3b32eb19e5f15c2f6f9849517cbb514cbfb4ec31cd328f21858739b48",
    ("maze", "fsc-bt-slam"):
        "006d1b2286239a5cb8ed6fa984bb9d8a6c39699462396039dd4f7f6d978c3e32",
    ("maze", "fsc-re-slam"):
        "0af664fb2c7e2a582d8b57e5482f5ac95a61a1ff4abb0312be263f9d544b6e57",
    ("lake", "solver"):
        "64887a8dcada90b57d9455fc18454ea769baef308ad23b823b20591123f8a2d5",
    ("lake", "fsc-bt"):
        "efb2f5e691968ce220397ef44d907ec22a7017a936e814847b28404d809d6a6d",
    ("lake", "fsc-re"):
        "2b26949d40cd49ed3cc9b577d43aed0e0420c12818c3582a547c34cd13fecff9",
    ("lake", "fsc-bt-slam"):
        "bcb2de0d6f77f532725c7c3a200dcb26dde1bea5012e5751abb661e1f4202f19",
    ("lake", "fsc-re-slam"):
        "90efb9b64fc5d69c3fba37d39bc8842ca3d9f242e7f5b2f5acb072084803b2bf",
}


def full_specs() -> list[ExperimentSpec]:
    return ([ExperimentSpec.desk_maze(agent, 0, full=True) for agent in AGENTS]
            + [ExperimentSpec.desk_lake(agent, 0, full=True) for agent in AGENTS])


def row_digest(spec: ExperimentSpec, solver, controller) -> str:
    report = run_experiment(spec, solver=solver, controller=controller)
    return hashlib.sha256(report.to_csv().encode()).hexdigest()


def main() -> int:
    began = time.perf_counter()
    solver = learn_solver()
    controller = learn_controller(solver)
    failed = 0
    for spec in full_specs():
        row_began = time.perf_counter()
        digest = row_digest(spec, solver, controller)
        seconds = time.perf_counter() - row_began
        ok = ROW_DIGESTS.get((spec.environment, spec.agent)) == digest
        failed += not ok
        print(f"{spec.environment:<5} {spec.agent:<12} {digest} {'ok' if ok else 'DIFFERS'}"
              f" {seconds:.1f} s")
    # ru_maxrss is in KiB on Linux.
    print(f"peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB")
    print(f"{len(full_specs())} rows, {failed} differing, {time.perf_counter() - began:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
