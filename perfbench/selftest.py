"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, on tiny versions of every workload at a seed other than the
default:

1. the metric names and units in run.py are those of BENCHMARK.json;
2. an untraced run emits every end-to-end metric and a traced run every
   per-layer metric, each a finite number with its unit, with every output
   correct;
3. corrupting every output file after its command ran (one changed CSV
   cell, ``converged`` set to false) makes every such command count as
   failed, so the output checks are not vacuous;
4. a truncated SVG and a CSV with a missing row are rejected.

Exits 0 when all hold, 1 otherwise, listing what did not.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
import xml.parsers.expat

import checks
import run
import workloads

SEED = 12345  # not the command-line default of 0


def corrupt(command, workdir: str) -> bool:
    """Spoil the command's output file in place; False when it writes none."""
    out = command.expect.get("out")
    if out is None:
        return False
    path = os.path.join(workdir, out)
    if out.endswith(".json"):
        with open(path) as fh:
            document = json.load(fh)
        document["converged"] = False
        with open(path, "w") as fh:
            json.dump(document, fh)
        return True
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[-1].split(",")
    cells[-1] = repr(float(cells[-1]) + 0.25) if cells[-1] else "0.25"
    lines[-1] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return True


def main() -> int:
    problems = []

    def require(condition: bool, message: str) -> None:
        if not condition:
            problems.append(message)

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    require(declared[False] == run.END_TO_END, "end-to-end metrics differ from BENCHMARK.json")
    require(declared[True] == run.PER_LAYER, "per-layer metrics differ from BENCHMARK.json")
    require([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
            "workloads differ from BENCHMARK.json")

    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            result, stamp = run.run_workload(workload, SEED, 0, trace, tiny=True)
            label = f"{workload} trace={int(trace)}"
            require(result["correct"] and result["failed"] == 0,
                    f"{label}: outputs failed their checks: {stamp['failures']}")
            metrics = result["metrics"]
            require(list(metrics) == list(declared[trace]), f"{label}: metric names differ")
            for name, metric in metrics.items():
                require(metric["unit"] == declared[trace].get(name), f"{label}: {name} unit")
                value = metric["value"]
                require(isinstance(value, (int, float)) and math.isfinite(value),
                        f"{label}: {name} = {value!r}")
            require(stamp["seed"] == SEED and stamp["nproc"], f"{label}: stamp incomplete")

        spoiled = []

        def spoil(command, workdir):
            if corrupt(command, workdir):
                spoiled.append(command.kind)

        result, stamp = run.run_workload(workload, SEED, 0, False, tiny=True,
                                         after_command=spoil)
        require(spoiled and result["failed"] == len(spoiled) and not result["correct"],
                f"{workload}: {len(spoiled)} outputs corrupted, {result['failed']} counted "
                "as failed")

    scratch = os.path.join(run.ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        svg = os.path.join(tmp, "cut.svg")
        with open(svg, "w") as fh:
            fh.write('<?xml version="1.0"?>\n<svg xmlns="http://www.w3.org/2000/svg"><rect')
        command = workloads.Command("hom", (), {"out": "none.csv", "svg": "cut.svg"})
        require(bool(checks.check(command, tmp, "")[0]), "missing CSV accepted")
        try:
            truncated = checks.check_svg(svg)
        except xml.parsers.expat.ExpatError:
            truncated = ["parse error"]
        require(bool(truncated), "truncated SVG accepted")
        spec = workloads.build("cli_session", SEED, tiny=True)
        hom = next(c for c in spec.commands if c.kind == "hom")
        table = os.path.join(tmp, hom.expect["out"])
        with open(table, "w") as fh:
            fh.write("tau_s,p\n0,0\n")
        require(bool(checks.check(hom, tmp, "")[0]), "short hom CSV accepted")

    for message in problems:
        print(f"FAIL {message}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
