"""The benchmark's workloads: which document each one feeds the program, what
one operation is, and how an operation's output is checked.

Why these three workloads, and which layer each one isolates, is written
down in RATIONALE.md next to this file.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    # "goals": one operation is one pareto.solve of a generated instance in
    # goals mode with the upfront strategy.  "cli": one operation is one
    # in-process msrmp.cli.main call on a committed document.
    kind: str
    threats: int = 0              # goals: |T| of the generated instance
    fixture: str = ""             # cli: document path, relative to the checkout
    argv: tuple = ()              # cli: arguments between the document and --out
    # sha256 of the canonical output; None makes the first operation's
    # output the reference for the rest of the run
    reference: str | None = None


# The goals digests are of canonical fronts (see front_digest), so they hold
# for every --seed; the cli document does not depend on the seed at all.  All
# three were taken from the commit that introduced the benchmark, whose
# brute-force oracle and strategy-equivalence tests vouch for the solver.
WORKLOADS = {
    "goals-t6": Workload(
        "goals-t6", "goals", threats=6,
        reference="28bd1ed4707cef97e4a1057ed4c760dee4bdf6756a42f22d4c192ea02ee686a5",
    ),
    "goals-c9": Workload(
        "goals-c9", "goals", threats=7,
        reference="91f160c356cc843a1d18375da00b7f960ea198c2e91d832768744002ba24c31b",
    ),
    "cli-rmps": Workload(
        "cli-rmps", "cli",
        fixture="fixtures/running-example.json",
        # the published criterion-5 risk-appetite bounds
        argv=("--min-bound", "DS=0.45", "--min-bound", "DC=0.55", "--with-rmps"),
        reference="56f0ca865ed36e6a7a96e2038b146f8424d73fa0bbf6ee018eff875513942d03",
    ),
}


def goals_document(wl: Workload, seed: int):
    """The document a goals workload solves under --seed, and the stakeholder
    order it uses: order[i] is the base-instance index of stakeholder i.

    The instance is the harness seed-9 instance with the workload's |T| and
    q=4 controls per threat, the ROADMAP baseline.  The seed renames every id
    and shuffles the stakeholders, which changes the bytes the program reads
    but not the work it does: fresh instances per seed would swing the
    culling cost of |T|=6 between 1.4 s and 8.5 s and drown every other
    effect in instance-to-instance spread.
    """
    # imported here, so that run.py can start, and refuse, without the package
    from msrmp.harness import BenchSpec, gen_instance
    from msrmp.model import render_model

    m = gen_instance(BenchSpec(seed=9), threat_count=wl.threats,
                     controls_per_threat=4)
    return vary(render_model(m), seed)


def vary(doc: dict, seed: int):
    """Rename every id of a rendered model and shuffle its stakeholders."""
    rng = random.Random(f"benchmark-vary:{seed}")
    tag = "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(4))

    def rename(kind, old):
        return f"{kind}-{tag}-{old}"

    order = list(range(len(doc["stakeholders"])))
    rng.shuffle(order)
    stakeholders = [doc["stakeholders"][i] for i in order]
    threat_ids = {t["id"]: rename("t", t["id"]) for t in doc["threats"]}
    goal_ids = {g["id"]: rename("g", g["id"]) for g in doc["goals"]}

    out = dict(doc)
    out["goals"] = [dict(g, id=goal_ids[g["id"]]) for g in doc["goals"]]
    out["threats"] = [
        dict(t, id=threat_ids[t["id"]],
             goals=[goal_ids[g] for g in t["goals"]],
             controls=[dict(c, id=rename("c", c["id"])) for c in t["controls"]])
        for t in doc["threats"]
    ]
    out["stakeholders"] = [
        dict(s, id=rename("s", s["id"]),
             criteria=[dict(c, id=rename("p", c["id"])) for c in s["criteria"]])
        for s in stakeholders
    ]
    out["aversion"] = {
        rename("s", s["id"]): {
            rename("p", c["id"]): {
                threat_ids[t]: v
                for t, v in doc["aversion"][s["id"]][c["id"]].items()
            }
            for c in s["criteria"]
        }
        for s in stakeholders
    }
    return out, order


def front_digest(front, order) -> str:
    """sha256 of a front in canonical form: objectives in base stakeholder
    order, entries sorted by them, witnesses as exact residue vectors in the
    order the solver reports them."""
    rows = []
    for entry in front.entries:
        base = [None] * len(order)
        for i, v in zip(order, entry.objective):
            base[i] = v
        rows.append((base, entry.residues))
    rows.sort(key=lambda row: row[0])
    text = json.dumps([[[str(v) for v in objective],
                        [[str(x) for x in vec] for vec in residues]]
                       for objective, residues in rows])
    return hashlib.sha256(text.encode()).hexdigest()
