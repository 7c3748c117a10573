"""Run one pass of a workload in this fresh interpreter and report it as JSON.

Usage: python3 one_pass.py PLAN.json

PLAN.json holds {"trace": bool, "ops": [argv, ...]}.  Each op is one call
of `degdet.cli.main(argv)`, the path a user's command takes, with stdout
and stderr captured.  A fresh interpreter per pass keeps degdet's caches
from carrying over between passes and makes the peak RSS the pass's own.
Every duration is reported as measured and scaled to the reference host
speed (speed.py).
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import traceback
from time import perf_counter

from spans import Tracer
from speed import Probe


def run_op(main, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            # An uncaught error fails the op; the pass goes on with the next one.
            traceback.print_exc()
            code = -1
    end = perf_counter()
    return {"code": code, "start": start, "end": end, "stdout": out.getvalue(), "stderr_tail": err.getvalue()[-2000:]}


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        plan = json.load(handle)
    from degdet import cli

    tracer = None
    if plan["trace"]:
        tracer = Tracer()
        tracer.install()

    probe = Probe()
    probe.start()
    ops = []
    start = perf_counter()
    for argv in plan["ops"]:
        # Looked up per op, so the traced run goes through the wrapped main.
        ops.append(run_op(cli.main, argv))
    end = perf_counter()
    probe.stop()
    for op in ops:
        op_start, op_end = op.pop("start"), op.pop("end")
        op["seconds"] = op_end - op_start
        op["scaled_s"] = probe.scaled(op_start, op_end)

    report = {
        "wall_s": end - start,
        "scaled_wall_s": probe.scaled(start, end),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "degdet_file": cli.__file__,
        "ops": ops,
        "layers": tracer.layers() if tracer else None,
    }
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
