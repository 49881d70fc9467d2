"""Self-test of the gridnav benchmark on tiny inputs.

    python3 perfbench/selftest.py

Runs every workload on tiny lake and learner inputs, untraced and
traced, and checks that:

- every metric BENCHMARK.json names is emitted in its section, with its
  declared unit, a finite value and a direction, and every per-layer metric
  maps to end-to-end metrics in layers.json;
- no run fails its output check;
- the traced run shows the layer split: on lake-slam the mil counts are 0
  (the programs are learned at set-up, outside the timed pass), on learn
  the fsc, slam and executors counts are 0;
- after a traced run every wrapped module attribute is the original object
  again, and the wrappers covered the names callers bind with ``from ...
  import``;
- an untraced run installs no wrapper.

Prints one line per check and exits 1 if any failed.
"""

from __future__ import annotations

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402

# Bindings the tracer must replace: callers import these with ``from ... import``.
REQUIRED_BINDINGS = (
    ("gridnav.executors", "observe"),
    ("gridnav.executors", "slam_update"),
    ("gridnav.executors", "slam_permits"),
    ("gridnav.solver", "instantiate_actions"),
    ("gridnav.workbench", "instantiate_actions"),
    ("gridnav.workbench", "solve"),
    ("gridnav.workbench", "execute"),
    ("gridnav.workbench", "learn"),
    ("gridnav.workbench", "generate_behaviours"),
)

LAYER_SPLIT = {
    "lake-slam": ("mil.",),
    "learn": ("fsc.", "slam.", "executors."),
}


def agent_pattern(name: str) -> str:
    """The layers.json key of a metric: a controller agent's name becomes
    '{agent}'."""
    agent, _, rest = name.partition(".")
    return "{agent}." + rest if agent in run.FSC_AGENTS else name


def is_count(name: str, unit: str) -> bool:
    return unit.startswith("count") or name.endswith(".calls")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layer_map = json.load(f)["metrics"]
    sections = {0: {m["name"]: m for m in spec["end_to_end"]},
                1: {m["name"]: m for m in spec["per_layer"]}}
    e2e_names = set(sections[0])
    problems: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(("ok     " if ok else "FAILED ") + what)
        if not ok:
            problems.append(what)

    for name, m in sections[1].items():
        entry = layer_map.get(agent_pattern(name))
        check(entry is not None, f"layers.json maps {name}")
        if entry:
            targets = [t.replace("{agent}", name.split(".")[0]) for t in entry["moves"]]
            check(all(t in e2e_names or t in sections[1] for t in targets),
                  f"{name} moves declared metrics {targets}")
            check(set(entry["on"]) <= set(run.WORKLOADS), f"{name} names known workloads")
    for m in spec["end_to_end"] + spec["per_layer"]:
        check(m["better"] in ("higher", "lower"), f"{m['name']} has a direction")

    for workload in run.WORKLOADS:
        for trace in (0, 1):
            result = run.measure(workload, seed=1, seconds=0.05, trace=bool(trace), tiny=True)
            label = f"{workload} trace {trace}"
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{label}: {result['attempted']} runs, none failed {result['failures'][:3]}")
            emitted = result["metrics"]
            declared = sections[trace]
            check(set(emitted) == set(declared),
                  f"{label}: emits exactly the declared metrics "
                  f"(missing {sorted(set(declared) - set(emitted))[:5]}, "
                  f"extra {sorted(set(emitted) - set(declared))[:5]})")
            for name, m in emitted.items():
                if name in declared:
                    ok = (m["unit"] == declared[name]["unit"]
                          and isinstance(m["value"], (int, float)) and math.isfinite(m["value"]))
                    if not ok:
                        check(False, f"{label}: {name} = {m} (declared {declared[name]['unit']})")
            if not trace:
                wrapped = _installed_wrappers()
                check(not wrapped, f"{label}: no wrapper installed {wrapped[:3]}")
                continue
            tracer = result["tracer"]
            restored = all(vars(owner)[attr] is original
                           for owner, attr, original in tracer.bound_originals())
            check(restored, f"{label}: every wrapped attribute is the original again")
            bound = {(getattr(owner, "__name__", ""), attr)
                     for owner, attr, _ in tracer.bound_originals()}
            missing = [b for b in REQUIRED_BINDINGS if b not in bound]
            check(not missing, f"{label}: wraps names bound by callers (missing {missing})")
            for prefix in LAYER_SPLIT.get(workload, ()):
                nonzero = [n for n, m in emitted.items()
                           if is_count(n, m["unit"]) and m["value"]
                           and (n.startswith(prefix) or f".{prefix}" in n)]
                check(not nonzero, f"{label}: {prefix}* counts are 0 ({nonzero[:3]})")
            check(emitted["trace.overhead_frac"]["samples"] > 0,
                  f"{label}: trace.overhead_frac measured")

    print(f"{len(problems)} failed" if problems else "all checks passed")
    return 1 if problems else 0


def _installed_wrappers() -> list[str]:
    """Names of gridnav module attributes and class attributes that carry a
    tracer wrapper."""
    found = []
    for module in tracing.gridnav_modules():
        for attr, value in vars(module).items():
            owners = [(attr, value)]
            if isinstance(value, type):
                owners += [(f"{attr}.{a}", v) for a, v in vars(value).items()]
            found += [f"{module.__name__}.{n}" for n, v in owners if hasattr(v, "traced_as")]
    return found


if __name__ == "__main__":
    sys.exit(main())
