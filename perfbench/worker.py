"""Long-lived hombeat runner for the warm workloads (analysis, bulk_io).

    python perfbench/worker.py WORKDIR WORKLOAD SEED TINY

Set-up imports hombeat, writes the seeded input traces and runs the warm-up
commands, then prints one JSON line.  Each request line on stdin,
``{"traced": bool}``, runs one pass of the command list through
``hombeat.cli.main`` and is answered with one JSON line of per-command
latencies, exit codes, captured stdout and (traced) spans.  At end of input
the worker prints its peak resident memory and exits.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def run_command(cli, argv) -> tuple[float, int, str]:
    """Latency, exit code and standard output of one in-process command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception:  # a crashing command is one failed operation, not a failed run
            traceback.print_exc()
            code = -1
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue()


def main(argv: list[str]) -> int:
    workdir, workload, seed, tiny = argv[0], argv[1], int(argv[2]), argv[3] == "1"
    import hombeat.cli as cli

    import workloads
    from tracer import Tracer, install

    os.chdir(workdir)
    spec = workloads.build(workload, seed, tiny)
    workloads.write_inputs(spec, ".")
    for warmup in workloads.WARMUP:
        run_command(cli, warmup)
    print(json.dumps({"ready": True}), flush=True)

    tracer = Tracer()
    for line in sys.stdin:
        traced = json.loads(line)["traced"]
        if traced:
            install(tracer)
        reply = {"latency": [], "code": [], "stdout": []}
        try:
            for index, command in enumerate(spec.commands):
                tracer.command = index
                elapsed, code, out = run_command(cli, command.argv)
                reply["latency"].append(elapsed)
                reply["code"].append(code)
                reply["stdout"].append(out)
        finally:
            tracer.uninstall()
        reply["spans"] = tracer.take()
        print(json.dumps(reply), flush=True)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_mb": peak_kib / 1024.0}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
