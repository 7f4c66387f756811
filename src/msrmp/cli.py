"""Command-line entry point: validate, assess, count, solve, map-back,
bench, plot.

Every command is a thin shell over the library modules.  Output documents are
canonical: fixed key order, decimals at the configured precision alongside
exact fraction strings, so identical runs produce identical bytes.
Machine output goes to stdout (or --out); diagnostics go to stderr.
Exit codes: 0 success, 1 validation or model error, 2 usage error.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
from fractions import Fraction

from . import harness, impact, mapback, pareto, residue
from .model import ModelError, decimal_str, exact_str, parse_model, rat, validate_model


def _num(value, precision):
    return {"decimal": decimal_str(value, precision), "exact": exact_str(value)}


def _load_model(path):
    with open(path, "rb") as fh:
        return parse_model(fh)


def _emit(doc, out_path):
    text = json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_bounds(pairs):
    bounds = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ModelError(f"--min-bound {pair!r}: expected STAKEHOLDER=VALUE")
        sid, _, value = pair.partition("=")
        bounds[sid] = rat(value, f"--min-bound {sid}")
    return bounds


def cmd_validate(args):
    try:
        m = _load_model(args.model)
    except ModelError as exc:
        for diag in exc.diagnostics:
            print(diag, file=sys.stderr)
        return 1
    diags = validate_model(m, goals_mode=args.mode == "goals")
    for diag in diags:
        print(diag, file=sys.stderr)
    if diags:
        return 1
    print("ok", file=sys.stderr)
    return 0


def cmd_count(args):
    m = _load_model(args.model)
    space = residue.residue_space(m)
    raw = residue.count_raw(m)
    reduced = space.size
    factor = Fraction(raw, reduced)
    doc = {
        "command": "count",
        "threats": [
            {
                "id": rs.threat_id,
                "controls": rs.n_controls,
                "residue_count": len(rs),
            }
            for rs in space.sets
        ],
        "raw_count": raw,
        "reduced_count": reduced,
        "reduction_factor": {
            "ratio": f"{factor.numerator}/{factor.denominator}",
            "decimal": decimal_str(factor, args.precision),
        },
    }
    _emit(doc, args.out)
    return 0


def cmd_assess(args):
    m = _load_model(args.model)
    if m.assignment is None:
        print("assess: the model document carries no assignment", file=sys.stderr)
        return 1
    if args.mode == "goals":
        diags = validate_model(m, goals_mode=True)
        if diags:
            for diag in diags:
                print(diag, file=sys.stderr)
            return 1
    report = impact.assess(m, mode=args.mode)
    p = args.precision
    doc = {
        "command": "assess",
        "mode": report.mode,
        "residues": {t: _num(x, p) for t, x in report.residues.items()},
    }
    if report.ntc is not None:
        doc["ntc"] = {t: _num(v, p) for t, v in report.ntc.items()}
    if report.goal_averages is not None:
        doc["goal_averages"] = {
            g: {s: _num(v, p) for s, v in per_s.items()}
            for g, per_s in report.goal_averages.items()
        }
    doc["objectives"] = {
        s: _num(v, p)
        for s, v in zip(m.stakeholder_ids(), report.objectives)
    }
    _emit(doc, args.out)
    return 0


def _solve_config(args):
    return pareto.SolveConfig(
        mode=args.mode,
        strategy=args.strategy,
        chunk=args.chunk,
        bounds=_parse_bounds(args.min_bound),
        exclusive_bounds=args.exclusive_bounds,
    )


def _front_doc(m, result, args, with_rmps=False, limit=None):
    p = args.precision
    tids = m.threat_ids()
    sids = m.stakeholder_ids()
    entries = []
    for entry in result.entries:
        doc_entry = {
            "objectives": {
                s: _num(v, p) for s, v in zip(sids, entry.objective)
            },
            "residues": [
                {t: _num(x, p) for t, x in zip(tids, vec)}
                for vec in entry.residues
            ],
        }
        if with_rmps:
            rmp_docs = []
            total = 0
            for vec in entry.residues:
                enum = mapback.enumerate_rmps(m, vec, limit=limit)
                total += enum.total
                rmp_docs.append(_rmp_doc(m, enum, p))
            doc_entry["rmp_count"] = total
            doc_entry["rmps"] = rmp_docs
        entries.append(doc_entry)
    # run parameters (strategy, chunk size) and wall-clock time are kept out
    # of the document: identical problems must produce identical bytes
    return {
        "command": "solve",
        "mode": args.mode,
        "bounds": {
            sid: exact_str(v) for sid, v in _parse_bounds(args.min_bound).items()
        },
        "counts": {
            "raw": residue.count_raw(m),
            "reduced": residue.count_reduced(m),
        },
        "feasible": result.feasible,
        "front_size": len(result),
        "entries": entries,
    }


def cmd_solve(args):
    m = _load_model(args.model)
    cfg = _solve_config(args)
    t0 = time.perf_counter()
    result = pareto.solve(m, cfg)
    elapsed = time.perf_counter() - t0
    print(f"solved in {elapsed:.3f}s", file=sys.stderr)
    doc = _front_doc(m, result, args, with_rmps=args.with_rmps, limit=args.limit)
    _emit(doc, args.out)
    return 0


def _rmp_doc(m, enum, precision):
    tids = m.threat_ids()
    per_threat = []
    for tid, xt in zip(tids, enum.target):
        threat = m.threat(tid)
        per_threat.append({
            "threat": tid,
            "residue": _num(xt, precision),
            "count": enum.per_threat_counts[tid],
            "assignments": [
                {c.id: exact_str(lv) for c, lv in zip(threat.controls, a.levels)}
                for a in enum.per_threat[tid]
            ],
        })
    return {
        "target": {t: _num(x, precision) for t, x in zip(tids, enum.target)},
        "per_threat": per_threat,
        "total": enum.total,
        "truncated": enum.truncated,
    }


def cmd_map_back(args):
    m = _load_model(args.model)
    p = args.precision
    if args.residue:
        target = {}
        for pair in args.residue:
            tid, _, value = pair.partition("=")
            target[tid] = rat(value, f"--residue {tid}")
        missing = [t for t in m.threat_ids() if t not in target]
        if missing:
            print(f"map-back: missing residues for threats {missing}",
                  file=sys.stderr)
            return 1
        try:
            enum = mapback.enumerate_rmps(m, target, limit=args.limit)
        except ValueError as exc:
            print(f"map-back: {exc}", file=sys.stderr)
            return 1
        doc = {"command": "map-back", "results": [_rmp_doc(m, enum, p)]}
        _emit(doc, args.out)
        return 0
    # no explicit residue vector: solve first, then map back each optimum
    cfg = _solve_config(args)
    result = pareto.solve(m, cfg)
    docs = []
    for entry in result.entries:
        for vec in entry.residues:
            enum = mapback.enumerate_rmps(m, vec, limit=args.limit)
            docs.append(_rmp_doc(m, enum, p))
    doc = {"command": "map-back", "results": docs}
    _emit(doc, args.out)
    return 0


def cmd_bench(args):
    spec = harness.BenchSpec(
        threat_counts=args.threats,
        controls_per_threat=args.controls,
        seed=args.seed,
        mode=args.mode,
        strategies=tuple(args.strategies.split(",")),
        chunk_sizes=args.chunks,
        timeout_secs=args.timeout_secs,
    )
    records = harness.run_bench(spec)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            harness.write_csv(records, fh)
    else:
        harness.write_csv(records, sys.stdout)
    return 0


def cmd_plot(args):
    m = _load_model(args.model)
    cfg = _solve_config(args)
    result = pareto.solve(m, cfg)
    optimal = set()
    for entry in result.entries:
        for vec in entry.residues:
            optimal.add(vec)

    rows = [(obj, vec in optimal) for obj, vec in pareto.evaluated_points(m, cfg)]
    sids = m.stakeholder_ids()

    buf = io.StringIO()
    header = [f"oir_{sid}" for sid in sids] + ["pareto"]
    buf.write(",".join(header) + "\n")
    for obj, flag in rows:
        cells = [decimal_str(v, args.precision) for v in obj] + [str(int(flag))]
        buf.write(",".join(cells) + "\n")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())

    if args.svg:
        if len(sids) != 2:
            print("plot: SVG scatter requires exactly 2 stakeholders",
                  file=sys.stderr)
            return 1
        _write_svg(args.svg, rows, sids)
    return 0


def _write_svg(path, rows, sids, size=640, margin=60):
    xs = [float(obj[0]) for obj, _ in rows]
    ys = [float(obj[1]) for obj, _ in rows]
    if not xs:
        span = lambda v: 0.0
        xmin = ymin = 0.0
        xrange = yrange = 1.0
    else:
        xmin, xmax = min(xs), max(xs)
        ymin, ymax = min(ys), max(ys)
        xrange = (xmax - xmin) or 1.0
        yrange = (ymax - ymin) or 1.0

    def sx(v):
        return margin + (v - xmin) / xrange * (size - 2 * margin)

    def sy(v):
        return size - margin - (v - ymin) / yrange * (size - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<text x="{size // 2}" y="{size - 12}" text-anchor="middle" '
        f'font-size="14">oir({sids[0]})</text>',
        f'<text x="16" y="{size // 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 16 {size // 2})">oir({sids[1]})</text>',
    ]
    for (obj, flag), x, y in zip(rows, xs, ys):
        if not flag:
            parts.append(
                f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2" '
                f'fill="steelblue" fill-opacity="0.5"/>'
            )
    for (obj, flag), x, y in zip(rows, xs, ys):
        if flag:
            parts.append(
                f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="5" '
                f'fill="green"/>'
            )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def _int_at_least(low):
    """argparse type: an integer >= low."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _int_list(text):
    """argparse type: a comma-separated list of integers."""
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of integers, got {text!r}"
        ) from None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="msrmp",
        description="Exact Pareto-front solver for multi-stakeholder "
                    "risk minimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, bounds=True):
        p.add_argument("model", help="risk-model JSON document")
        p.add_argument("--mode", choices=impact.MODES, default="goals")
        p.add_argument("--precision", type=_int_at_least(0), default=4)
        p.add_argument("--out", default=None)
        if bounds:
            p.add_argument("--strategy", choices=pareto.STRATEGIES,
                           default="upfront")
            p.add_argument("--chunk", type=_int_at_least(1), default=4096)
            p.add_argument("--min-bound", action="append", metavar="S=V",
                           help="risk-appetite lower bound, repeatable")
            p.add_argument("--exclusive-bounds", action="store_true",
                           help="treat bounds as strict (> instead of >=)")

    p = sub.add_parser("validate", help="check a model document")
    p.add_argument("model")
    p.add_argument("--mode", choices=impact.MODES, default="goals")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("assess", help="evaluate the document's assignment")
    add_common(p, bounds=False)
    p.set_defaults(func=cmd_assess)

    p = sub.add_parser("count", help="search-space counts")
    p.add_argument("model")
    p.add_argument("--precision", type=_int_at_least(0), default=4)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("solve", help="compute the Pareto front")
    add_common(p)
    p.add_argument("--with-rmps", action="store_true",
                   help="enumerate mitigation mappings per optimum")
    p.add_argument("--limit", type=int, default=None,
                   help="cap emitted assignments per threat")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("map-back", help="mitigation mappings for residues")
    add_common(p)
    p.add_argument("--residue", action="append", metavar="T=V",
                   help="target residue per threat; omit to solve first")
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(func=cmd_map_back)

    p = sub.add_parser("bench", help="synthetic benchmark sweep")
    p.add_argument("--threats", type=_int_list, default="5,6",
                   help="comma list of |T|")
    p.add_argument("--controls", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=impact.MODES, default="goals")
    p.add_argument("--strategies",
                   default="upfront,chunk-collect,chunk-carry")
    p.add_argument("--chunks", type=_int_list, default="4096")
    p.add_argument("--timeout-secs", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("plot", help="export objective cloud as CSV/SVG")
    add_common(p)
    p.add_argument("--svg", default=None, help="write an SVG scatter here")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ModelError as exc:
        for diag in exc.diagnostics:
            print(diag, file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
