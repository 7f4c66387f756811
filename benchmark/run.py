"""msrmp benchmark: end-to-end and per-layer figures for three workloads.

    python3 benchmark/run.py --workload goals-t6 --seed 9 --seconds 50 --trace 0
    python3 benchmark/run.py --workload all        # every workload, one table

Each workload runs in a fresh process of its own as a closed loop: one
client, one operation at a time, for --seconds (at least one operation).
Every operation's output is checked against the workload's reference.
--trace 0 reports the end-to-end metrics; --trace 1 is a separate run that
patches spans and counts around the calls into each module and reports the
per-layer metrics.  The last line of stdout is one JSON object.
Run it from the root of a checkout; see RATIONALE.md for the design.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, HERE)
import tracing  # noqa: E402
from workloads import WORKLOADS, goals_document  # noqa: E402

RUN_LIMIT_S = 170      # a run must end within 180 s
# fresh processes timed for setup_s, half before and half after the
# workload process, so the median spans the machine's state over the run
SETUP_PROBES = 24

# set-up time of a fresh process: import the package the operation calls
# into, then read and parse the workload document
PROBE = """\
import time
t0 = time.perf_counter()
import {module}
from msrmp.model import parse_model
with open({document!r}, "rb") as fh:
    parse_model(fh.read())
print(time.perf_counter() - t0)
"""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def machine():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "commit": _commit()}


def _commit():
    """HEAD of the checkout, or "unknown" where it is not a git clone."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _setup_samples(module, document, n, deadline):
    samples = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, "-c", PROBE.format(module=module, document=document)],
            capture_output=True, text=True, env=_env(), cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def measure(wl, seed, seconds, trace, work):
    """Run one workload and return its raw figures."""
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    cfg = {
        "kind": wl.kind,
        "seconds": seconds,
        "trace": bool(trace),
        "reference": wl.reference,
        "output": os.path.join(work, "out.json"),
        "result": os.path.join(work, "result.json"),
        "order": None,
        "argv": list(wl.argv),
    }
    if wl.kind == "goals":
        doc, order = goals_document(wl, seed)
        cfg["document"] = os.path.join(work, "model.json")
        cfg["order"] = order
        with open(cfg["document"], "w") as fh:
            json.dump(doc, fh, indent=2)
        module = "msrmp"
    else:
        cfg["document"] = os.path.join(ROOT, wl.fixture)
        module = "msrmp.cli"

    setup = _setup_samples(module, cfg["document"], SETUP_PROBES // 2, deadline)
    # leave the worker room to finish its last operation, and the probes
    # after it, within the limit
    cfg["budget_s"] = max(1.0, deadline - time.monotonic() - 20)
    config_path = os.path.join(work, "config.json")
    with open(config_path, "w") as fh:
        json.dump(cfg, fh)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), config_path],
        capture_output=True, text=True, env=_env(), cwd=ROOT,
        timeout=max(1.0, deadline - time.monotonic() - 5),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process failed:\n{proc.stderr[-4000:]}")
    with open(cfg["result"]) as fh:
        raw = json.load(fh)
    setup += _setup_samples(module, cfg["document"], SETUP_PROBES // 2, deadline)
    raw["setup_s"] = setup
    return raw


def summarize(wl_name, raw, trace, units):
    """(human-readable lines, the result object for the last line)."""
    ops = raw["ops"]
    failed = [o for o in ops if o["error"]]
    lines = [f"{wl_name}: {len(ops)} operations, closed loop, one client, "
             f"{len(failed)} failed"]
    lines += [f"  failed: {o['error']}" for o in failed[:3]]
    untraced = [o["wall_s"] for o in ops if o["kind"] == "plain"]
    if not trace:
        wall = median(untraced)
        metrics = {
            "wall_s": (wall, "s", f"median of {len(untraced)} operations "
                                  f"(min {min(untraced):.4f}, max {max(untraced):.4f})"),
            "setup_s": (median(raw["setup_s"]), "s",
                        f"median of {len(raw['setup_s'])} fresh processes"),
            "peak_rss_mb": (raw["peak_rss_mb"], "MB", "workload process, 1 sample"),
        }
        lines.append(f"  error_rate   {len(failed) / len(ops):.4f}   "
                     f"{len(failed)} of {len(ops)} operations")
    else:
        timed, counted = raw["timed"], raw["counted"]
        values, absent = tracing.combine(timed, counted, raw["absent"])
        timed_walls = [o["wall_s"] for o in ops if o["kind"] == "time"]
        values["trace.overhead_s"] = median(timed_walls) - median(untraced)

        def note(name):
            if name in counted[0]:
                return f"exact, counting operation 1 of {len(counted)}"
            if name in tracing.PEAKS:
                return f"max over {len(timed)} timing operations"
            if name == "trace.overhead_s":
                return (f"median of {len(timed)} timing minus "
                        f"median of {len(untraced)} untraced operations")
            return f"median of {len(timed)} timing operations"

        metrics = {name: (values[name], units[name], note(name)) for name in values}
        lines += [f"  absent: {name} (its target is gone from the program)"
                  for name in absent]
        lines.append("  exact counts repeat: " + _repeat_check(counted))
    for name, (value, unit, note) in metrics.items():
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        lines.append(f"  {name:<30} {shown} {unit:<6} {note}")
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    return lines, result


def _repeat_check(counted):
    differ = [name for name in tracing.EXACT_COUNTS
              if name in counted[0] and len({op[name] for op in counted}) > 1]
    if differ:
        return f"NO, {', '.join(differ)} differ between counting operations"
    return f"yes, identical over {len(counted)} counting operations"


def per_layer_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_one(wl, seed, seconds, trace, units):
    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=work_root)
    try:
        raw = measure(wl, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(wl.name, raw, trace, units)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=9)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/msrmp/__init__.py", "fixtures/running-example.json",
                           "BENCHMARK.json")
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"benchmark: not a checkout of msrmp, missing {missing}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    units = per_layer_units()

    info = machine()
    print("machine: " + json.dumps(info))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            lines, results[name] = run_one(WORKLOADS[name], args.seed,
                                           args.seconds, args.trace, units)
        except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
            print(f"benchmark: {name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
    if args.workload == "all":
        print(json.dumps({"machine": info, "seed": args.seed, "seconds": args.seconds,
                          "trace": args.trace, "results": results}))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
