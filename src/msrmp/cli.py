"""Command-line entry point: validate, assess, count, solve, map-back,
bench, plot.

Every command is a thin shell over the library modules.  Output documents are
canonical: fixed key order, decimals at the configured precision alongside
exact fraction strings, so identical runs produce identical bytes.
Machine output goes to stdout (or --out); diagnostics go to stderr.
Exit codes: 0 success, 1 validation or model error, 2 usage error.
"""

import argparse
import json
import sys
import time
from fractions import Fraction
from itertools import islice

from . import impact, mapback, pareto, residue
from .model import ModelError, decimal_str, exact_str, parse_model, rat, validate_model


def _num(value, precision):
    return {"decimal": decimal_str(value, precision), "exact": exact_str(value)}


def _load_model(path):
    with open(path, "rb") as fh:
        return parse_model(fh)


def _emit(doc, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            _write_json(doc, fh)
    else:
        _write_json(doc, sys.stdout)


# parts, or rows of a group, joined and written at once
_CHUNK = 4096


def _write_json(doc, fh):
    """Write what json.dumps(doc, indent=2, ensure_ascii=False) + "\\n"
    returns, a few thousand chunks at a time.  Dict keys must be strings.
    A mapback.Listing whose rows are tuples of items already encoded
    ('"key": "value"') stands for the list of dicts they encode; it is
    written up to _CHUNK rows of a group at a time, in one join whose glue
    carries the group's prefix."""
    enc = json.encoder.encode_basestring
    parts = []

    def flush():
        fh.write("".join(parts))
        parts.clear()

    def put(value, pad):
        # pad: the newline and indent before the enclosing value's closing
        # bracket; the value's own items sit two spaces further in
        if len(parts) >= _CHUNK:
            flush()
        if isinstance(value, str):
            parts.append(enc(value))
        elif isinstance(value, (dict, list, tuple, mapback.Listing)) and not value:
            parts.append("{}" if isinstance(value, dict) else "[]")
        elif type(value) is mapback.Listing:
            inner = pad + "  "
            head, sep, tail = "{" + inner + "  ", "," + inner + "  ", inner + "}"
            comma, lead = "," + inner, "[" + inner
            flush()
            for prefix, tails in value.groups:
                items = sep.join(prefix)
                if tails[0]:
                    # a row is start, its tail's items and end
                    start, end = head + items + sep if prefix else head, tail
                else:
                    # the tails are empty, and end alone is the row
                    start, end = "", head + items + tail if prefix else "{}"
                glue = end + comma + start
                for i in range(0, len(tails), _CHUNK):
                    fh.write(lead + start)
                    fh.write(glue.join(map(sep.join, tails[i:i + _CHUNK])))
                    fh.write(end)
                    lead = comma
            parts.append(pad + "]")
        elif isinstance(value, dict):
            inner = pad + "  "
            sep = "{" + inner
            for k, v in value.items():
                parts.append(sep + enc(k) + ": ")
                put(v, inner)
                sep = "," + inner
            parts.append(pad + "}")
        elif isinstance(value, (list, tuple)):
            inner = pad + "  "
            sep = "[" + inner
            for v in value:
                parts.append(sep)
                put(v, inner)
                sep = "," + inner
            parts.append(pad + "]")
        else:
            parts.append(json.dumps(value))  # a number, a boolean or null

    put(doc, "\n")
    parts.append("\n")
    flush()


def _parse_pairs(pairs, option, name):
    """{name -> Fraction} from the option's NAME=VALUE pairs, each name
    given at most once."""
    values = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ModelError(f"{option} {pair!r}: expected {name.upper()}=VALUE")
        key, _, value = pair.partition("=")
        if key in values:
            raise ModelError(f"{option} gives {name} {key!r} twice")
        values[key] = rat(value, f"{option} {key}")
    return values


def cmd_validate(args):
    m = _load_model(args.model)
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
        bounds=_parse_pairs(args.min_bound, "--min-bound", "stakeholder"),
        exclusive_bounds=args.exclusive_bounds,
    )


def _front_doc(m, result, cfg, args):
    p = args.precision
    tids = m.threat_ids()
    sids = m.stakeholder_ids()
    if args.with_rmps:
        vectors = [vec for entry in result.entries for vec in entry.residues]
        rmps = iter(_rmp_docs(m, vectors, args.limit, p))
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
        if args.with_rmps:
            docs = list(islice(rmps, len(entry.residues)))
            doc_entry["rmp_count"] = sum(d["total"] for d in docs)
            doc_entry["rmps"] = docs
        entries.append(doc_entry)
    # wall-clock time is kept out of the document: identical problems must
    # produce identical bytes
    return {
        "command": "solve",
        "mode": cfg.mode,
        "bounds": {sid: exact_str(v) for sid, v in cfg.bounds.items()},
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
    doc = _front_doc(m, result, cfg, args)
    _emit(doc, args.out)
    return 0


def _rmp_docs(m, vectors, limit, precision):
    """The map-back document of each residue vector.  Every vector is
    counted before any is listed, so an oversized listing is refused at
    once.  The vectors share one map-back dict, so each distinct (threat,
    residue) pair is counted once and listed once, as groups of encoded
    items."""
    listed = {}
    mapback.listing_counts(m, vectors, limit, listed)
    enc = json.encoder.encode_basestring
    texts = [(lv, enc(exact_str(lv))) for lv in m.scale.levels]
    # per threat and control position: each level's encoded item
    heads = {
        t.id: [{lv: enc(c.id) + ": " + text for lv, text in texts}
               for c in t.controls]
        for t in m.threats
    }
    tids = m.threat_ids()
    docs = []
    for vec in vectors:
        # looked up per call, so a wrapper installed on it sees every vector
        enum = mapback.enumerate_rmps(m, vec, limit=limit, listed=listed,
                                      heads=heads)
        per_threat = []
        for tid, xt in zip(tids, enum.target):
            per_threat.append({
                "threat": tid,
                "residue": _num(xt, precision),
                "count": enum.per_threat_counts[tid],
                "assignments": enum.per_threat[tid],
            })
        docs.append({
            "target": {t: _num(x, precision) for t, x in zip(tids, enum.target)},
            "per_threat": per_threat,
            "total": enum.total,
            "truncated": enum.truncated,
        })
    return docs


def cmd_map_back(args):
    m = _load_model(args.model)
    if args.residue:
        target = _parse_pairs(args.residue, "--residue", "threat")
        unknown = [t for t in target if t not in m.threat_ids()]
        if unknown:
            print(f"map-back: --residue names unknown threat {unknown[0]!r}",
                  file=sys.stderr)
            return 1
        missing = [t for t in m.threat_ids() if t not in target]
        if missing:
            print(f"map-back: missing residues for threats {missing}",
                  file=sys.stderr)
            return 1
        vectors = [target]
    else:
        # no explicit residue vector: solve first, then map back each optimum
        result = pareto.solve(m, _solve_config(args))
        vectors = [vec for entry in result.entries for vec in entry.residues]
    try:
        results = _rmp_docs(m, vectors, args.limit, args.precision)
    except ValueError as exc:
        print(f"map-back: {exc}", file=sys.stderr)
        return 1
    _emit({"command": "map-back", "results": results}, args.out)
    return 0


def cmd_bench(args):
    # imported here: only bench uses it, and every other command would pay
    # for loading it at start
    from . import harness

    spec = harness.BenchSpec(
        threat_counts=args.threats,
        controls_per_threat=args.controls,
        seed=args.seed,
        mode=args.mode,
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
    sids = m.stakeholder_ids()
    if args.svg and len(sids) != 2:
        print("plot: SVG scatter requires exactly 2 stakeholders", file=sys.stderr)
        return 1
    points = residue.count_reduced(m)
    if points > MAX_PLOT_POINTS:
        print(f"plot: the residue space has {points} points, more than the "
              f"{MAX_PLOT_POINTS} a plot lists", file=sys.stderr)
        return 1
    # imported here: it is an extension module that only plot needs
    from array import array

    cfg = _solve_config(args)
    result = pareto.solve(m, cfg)
    optimal = {vec for entry in result.entries for vec in entry.residues}
    # the SVG's x, y pairs, of the cloud (False) and of the front (True)
    points = {False: array("d"), True: array("d")} if args.svg else None
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _write_cloud(m, cfg, optimal, args.precision, fh, points)
    else:
        _write_cloud(m, cfg, optimal, args.precision, sys.stdout, points)

    if args.svg:
        _write_svg(args.svg, points, sids)
    return 0


def _write_cloud(m, cfg, optimal, precision, fh, points):
    """Write the CSV of every feasible point, each row as it is evaluated;
    points, if given, collects the two objectives of each as floats."""
    header = [f"oir_{sid}" for sid in m.stakeholder_ids()] + ["pareto"]
    fh.write(",".join(header) + "\n")
    for obj, vec in pareto.evaluated_points(m, cfg):
        flag = vec in optimal
        cells = [decimal_str(v, precision) for v in obj] + [str(int(flag))]
        fh.write(",".join(cells) + "\n")
        if points is not None:
            points[flag].extend((float(obj[0]), float(obj[1])))


def _write_svg(path, points, sids, size=640, margin=60):
    xs = points[False][0::2] + points[True][0::2]
    ys = points[False][1::2] + points[True][1::2]
    if not xs:
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

    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<text x="{size // 2}" y="{size - 12}" text-anchor="middle" '
        f'font-size="14">oir({sids[0]})</text>',
        f'<text x="16" y="{size // 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 16 {size // 2})">oir({sids[1]})</text>',
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(head) + "\n")
        # the cloud first, so the front is drawn over it
        for flag, style in ((False, 'r="2" fill="steelblue" fill-opacity="0.5"'),
                            (True, 'r="5" fill="green"')):
            pairs = points[flag]
            for x, y in zip(pairs[0::2], pairs[1::2]):
                fh.write(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" {style}/>\n')
        fh.write("</svg>\n")


# decimal places beyond this are refused: decimal_str computes 10**places
MAX_PRECISION = 1000

# plot evaluates every point of the residue space, and --svg keeps two
# floats of each, so a larger space is refused before the solve
MAX_PLOT_POINTS = 10**6


def _int_at_least(low, high=None):
    """argparse type: an integer >= low, and <= high if given."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value

    return parse


def _int_list(text):
    """argparse type: a comma-separated list of integers >= 1."""
    item = _int_at_least(1)
    return tuple(item(v) for v in text.split(","))


def _seconds(text):
    """argparse type: a finite number of seconds >= 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None
    if not 0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


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
        p.add_argument("--precision", type=_int_at_least(0, MAX_PRECISION),
                       default=4)
        p.add_argument("--out", default=None)
        if bounds:
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
    p.add_argument("--precision", type=_int_at_least(0, MAX_PRECISION),
                   default=4)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("solve", help="compute the Pareto front")
    add_common(p)
    p.add_argument("--with-rmps", action="store_true",
                   help="enumerate mitigation mappings per optimum")
    p.add_argument("--limit", type=_int_at_least(0), default=None,
                   help="cap emitted assignments per threat")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("map-back", help="mitigation mappings for residues")
    add_common(p)
    p.add_argument("--residue", action="append", metavar="T=V",
                   help="target residue per threat; omit to solve first")
    p.add_argument("--limit", type=_int_at_least(0), default=None,
                   help="cap emitted assignments per threat")
    p.set_defaults(func=cmd_map_back)

    p = sub.add_parser("bench", help="synthetic benchmark sweep")
    p.add_argument("--threats", type=_int_list, default="5,6",
                   help="comma list of |T|")
    p.add_argument("--controls", type=_int_at_least(1), default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=impact.MODES, default="goals")
    p.add_argument("--timeout-secs", type=_seconds, default=None)
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
        # the str() of a KeyError is the repr of its message
        print(exc.args[0] if isinstance(exc, KeyError) and exc.args else exc,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
