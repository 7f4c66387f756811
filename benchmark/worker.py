"""One workload's own process: a closed loop of one client issuing one
operation at a time, each checked against the reference output.

Usage: python3 worker.py CONFIG.json   (written by run.py; the result is
written to the path the config names)
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time

import tracing
from workloads import front_digest


def _operation(cfg, data):
    """Return (op, check, parse_s): op() performs one operation, check(out)
    turns its output into (digest, size in bytes) outside the timed part."""
    if cfg["kind"] == "goals":
        from msrmp import pareto
        from msrmp.model import parse_model

        t0 = time.perf_counter()
        model = parse_model(data)
        parse_s = time.perf_counter() - t0
        config = pareto.SolveConfig(mode="goals", strategy="upfront")
        order = cfg["order"]
        # pareto.solve is looked up per call so the traced run sees its wrapper
        return (lambda: pareto.solve(model, config),
                lambda front: (front_digest(front, order), 0),
                parse_s)

    from msrmp import cli

    argv = ["solve", cfg["document"], *cfg["argv"], "--out", cfg["output"]]

    def op():
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"msrmp exited with code {code}")

    def check(_):
        with open(cfg["output"], "rb") as fh:
            out = fh.read()
        return hashlib.sha256(out).hexdigest(), len(out)

    return op, check, None


# The traced run cycles through these operations.  A timing operation comes
# first, so that it sees the process's RSS high-water mark grow; an untraced
# one follows it, for the tracing overhead under the same machine conditions;
# two counting operations give the counts and check that they repeat.
TRACED_CYCLE = ("time", "plain", "count", "count")


def run(cfg, targets=tracing.TARGETS):
    with open(cfg["document"], "rb") as fh:
        data = fh.read()
    op, check, parse_s = _operation(cfg, data)
    reference = cfg["reference"]
    ops, timed, counted, absent = [], [], [], set()

    def attempt(kind):
        nonlocal reference
        t0 = time.perf_counter()
        try:
            out = op()
            wall = time.perf_counter() - t0
            digest, size = check(out)
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            wall = time.perf_counter() - t0
            digest, size, error = None, 0, f"{type(exc).__name__}: {exc}"
        if error is None:
            if reference is None:
                reference = digest
            elif digest != reference:
                error = f"output digest {digest} differs from reference {reference}"
        ops.append({"wall_s": wall, "kind": kind, "error": error})
        return size

    start = time.perf_counter()
    seconds, budget = cfg["seconds"], cfg["budget_s"]

    def more(enough):
        """Closed loop: another operation until `enough`, then while the run
        lasts, but none that would likely overrun the budget."""
        if not enough:
            return True
        elapsed = time.perf_counter() - start
        longest = max(o["wall_s"] for o in ops)
        return elapsed < seconds and elapsed + longest < budget

    if not cfg["trace"]:
        while more(len(ops) >= 1):
            attempt("plain")
    else:
        tracers = {"time": tracing.Tracer(False, targets),
                   "count": tracing.Tracer(True, targets)}
        while more(len(ops) >= len(TRACED_CYCLE)):
            kind = TRACED_CYCLE[len(ops) % len(TRACED_CYCLE)]
            if kind == "plain":
                attempt(kind)
                continue
            tracer = tracers[kind]
            tracer.reset()
            with tracer:
                size = attempt(kind)
            values, missing = tracer.metrics()
            absent.update(missing)
            if kind == "time":
                if parse_s is not None:
                    # goals workloads parse once, in set-up, outside the spans
                    values["model.parse_s"] = parse_s
                    absent.discard("model.parse_s")
                timed.append(values)
            else:
                values["cli.output_bytes"] = size
                counted.append(values)

    return {
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "timed": timed,
        "counted": counted,
        "absent": sorted(absent),
    }


def main(argv):
    with open(argv[1]) as fh:
        cfg = json.load(fh)
    result = run(cfg)
    with open(cfg["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
