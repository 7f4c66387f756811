"""Domain types, exact-decimal parsing and validation for risk-model documents.

All real-valued quantities are `fractions.Fraction` so that every comparison
made downstream (dominance, dedup, golden files) is exact.  A document decimal
like "0.725" parses to 29/40; a value like "5/6" is accepted too.
"""

import json
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from math import lcm

DEFAULT_GOALS = [
    ("G1", "Confidentiality"),
    ("G2", "Integrity"),
    ("G3", "Availability"),
    ("G4", "Unlinkability & Data minimization"),
    ("G5", "Transparency"),
    ("G6", "Intervenability"),
]

DEFAULT_MITIGATION_LEVELS = (Fraction(0), Fraction(1, 2), Fraction(1))
DEFAULT_IMPACT_SCALE_MAX = 4

# Longest number string and largest decimal exponent a document may use.
# Exact values are rendered in full, so "1e-1000000" would otherwise become a
# million-digit denominator.
MAX_NUMBER_CHARS = 64
MAX_NUMBER_EXPONENT = 64


class ModelError(ValueError):
    """Raised when a risk-model document cannot be parsed into a valid model."""

    def __init__(self, diagnostics):
        if isinstance(diagnostics, str):
            diagnostics = [diagnostics]
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


def rat(value, where="value"):
    """Parse a document number into an exact Fraction.

    Accepts ints, decimal strings ("0.4"), and fraction strings ("5/6").
    Floats are rejected: binary floats silently corrupt exactness.
    """
    if isinstance(value, bool):
        raise ModelError(f"{where}: expected a number, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise ModelError(
            f"{where}: floats are not accepted; write the value as a string"
        )
    if isinstance(value, str):
        if len(value) > MAX_NUMBER_CHARS:
            raise ModelError(f"{where}: number longer than {MAX_NUMBER_CHARS} characters")
        try:
            exponent = int(value.lower().partition("e")[2] or 0)
        except ValueError:
            exponent = 0  # no decimal exponent; Fraction judges the string
        if abs(exponent) > MAX_NUMBER_EXPONENT:
            raise ModelError(f"{where}: exponent of {value!r} outside "
                             f"[-{MAX_NUMBER_EXPONENT}, {MAX_NUMBER_EXPONENT}]")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ModelError(f"{where}: cannot parse {value!r} as a rational") from None
    raise ModelError(f"{where}: cannot parse {value!r} as a rational")


def decimal_str(q, places=4):
    """Render a Fraction as a decimal string, rounding half-to-even."""
    q = Fraction(q)
    scale = 10**places
    n, r = divmod(q.numerator * scale, q.denominator)
    # round half-even on the remainder
    double = 2 * r
    if double > q.denominator or (double == q.denominator and n % 2 == 1):
        n += 1
    sign = "-" if n < 0 else ""
    n = abs(n)
    whole, frac = divmod(n, scale)
    if places == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{places}d}"


def exact_str(q):
    """Canonical exact rendering: a finite decimal when one exists, else p/q."""
    q = Fraction(q)
    den, twos, fives = q.denominator, 0, 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{q.numerator}/{q.denominator}"
    # a finite decimal expansion
    places = max(twos, fives)
    return decimal_str(q, places) if places else str(q.numerator)


class Record:
    """Base of the records whose len() is not their number of fields, so
    not named tuples: the fields are the slots, set in order by __init__
    and never again, and records of one type with equal fields are equal."""

    __slots__ = ()

    def __init__(self, *fields):
        for name, value in zip(self.__slots__, fields, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _key(self):
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return type(self).__name__ + "(" + ", ".join(
            f"{k}={v!r}" for k, v in zip(self.__slots__, self._key())) + ")"


ProtectionCriterion = namedtuple("ProtectionCriterion", "id name weight")
Stakeholder = namedtuple("Stakeholder", "id name criteria")
Control = namedtuple("Control", "id name")
Threat = namedtuple("Threat", "id name goals controls")
Goal = namedtuple("Goal", "id name")


def level_sums(levels, n):
    """(den, counts): den is the common denominator of the levels, and
    counts[k][s] is the number of ordered k-vectors of levels whose sum is
    s / den, for k = 0..n."""
    den = lcm(*(lv.denominator for lv in levels))
    scaled = [int(lv * den) for lv in levels]
    counts = [{0: 1}]
    for _ in range(n):
        nxt = {}
        for s, c in counts[-1].items():
            for lv in scaled:
                nxt[s + lv] = nxt.get(s + lv, 0) + c
        counts.append(nxt)
    return den, counts


class MitigationScale(namedtuple("MitigationScale", "levels impact_scale_max",
                                 defaults=(DEFAULT_MITIGATION_LEVELS,
                                           DEFAULT_IMPACT_SCALE_MAX))):
    """The mitigation levels and the impact scale.  Not slotted: the
    instance dict holds the level-sum tables, which equality, hash and repr
    do not see."""

    __setattr__ = __delattr__ = Record.__setattr__

    @cached_property
    def tables(self):
        """level_sums tables by number of controls, built on first use and
        kept as long as the scale."""
        return {}

    def level_counts(self, n):
        """The level-sum table of n controls: residue sets, map-back counts
        and map-back listings all read this one table, built once per scale
        and number of controls."""
        if n not in self.tables:
            self.tables[n] = level_sums(self.levels, n)
        return self.tables[n]


class RiskModel(namedtuple("RiskModel", "stakeholders threats goals aversion "
                                        "scale assignment")):
    """A validated instance.  Threat and stakeholder order is the document
    order and defines every vector layout produced downstream.
    aversion[stakeholder_id][criterion_id][threat_id] is an int, and the
    optional assignment[threat_id][control_id] a Fraction, for assess.
    Built without a scale, a model gets a default scale of its own."""

    __slots__ = ()

    def __new__(cls, stakeholders, threats, goals, aversion, scale=None,
                assignment=None):
        return super().__new__(cls, stakeholders, threats, goals, aversion,
                               MitigationScale() if scale is None else scale,
                               assignment)

    def stakeholder_ids(self):
        return [s.id for s in self.stakeholders]

    def threat_ids(self):
        return [t.id for t in self.threats]

    def stakeholder(self, sid):
        for s in self.stakeholders:
            if s.id == sid:
                return s
        raise KeyError(f"unknown stakeholder {sid!r}")

    def threat(self, tid):
        for t in self.threats:
            if t.id == tid:
                return t
        raise KeyError(f"unknown threat {tid!r}")


def _entries(value, path, errors):
    """The items of a document list; anything else is diagnosed and read as
    empty."""
    if isinstance(value, list):
        return value
    errors.append(f"{path}: expected a list")
    return []


def _objects(value, path, errors):
    """(index, object) for each object in a document list; any other entry is
    diagnosed and skipped."""
    out = []
    for i, item in enumerate(_entries(value, path, errors)):
        if isinstance(item, dict):
            out.append((i, item))
        else:
            errors.append(f"{path}[{i}]: expected an object")
    return out


def _ident(obj, path, errors):
    """(id, name) of a document object; a missing or null name reads as
    the id.  A missing, null or empty id is diagnosed and read as empty."""
    ident = obj.get("id")
    ident = "" if ident is None else str(ident)
    if not ident:
        errors.append(f"{path}.id: missing")
    name = obj.get("name")
    return ident, ident if name is None else str(name)


def _mapping(value, path, errors):
    """A document object; anything else is diagnosed and read as empty."""
    if isinstance(value, dict):
        return value
    errors.append(f"{path}: expected an object")
    return {}


def parse_model(document) -> RiskModel:
    """Parse a risk-model document (bytes, str, file object, or dict).

    Raises ModelError with one diagnostic per violated invariant.
    """
    if hasattr(document, "read"):
        document = document.read()
    if isinstance(document, bytes):
        try:
            document = document.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ModelError(f"document: not valid UTF-8 at byte {exc.start}") from None
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ModelError(f"syntax error at line {exc.lineno} column {exc.colno}: "
                             f"{exc.msg}") from None
        except RecursionError:
            raise ModelError("document: nested too deeply") from None
    if not isinstance(document, dict):
        raise ModelError("document root must be an object")

    errors = []

    def bad(msg):
        errors.append(msg)

    il_max = document.get("impact_scale_max", DEFAULT_IMPACT_SCALE_MAX)
    if not isinstance(il_max, int) or isinstance(il_max, bool) or il_max < 1:
        bad("impact_scale_max: must be an integer >= 1")
        il_max = DEFAULT_IMPACT_SCALE_MAX

    raw_levels = document.get("mitigation_levels")
    if raw_levels is None:
        levels = DEFAULT_MITIGATION_LEVELS
    else:
        levels = []
        for i, lv in enumerate(_entries(raw_levels, "mitigation_levels", errors)):
            try:
                levels.append(rat(lv, f"mitigation_levels[{i}]"))
            except ModelError as exc:
                errors.extend(exc.diagnostics)
        levels = tuple(levels)

    goals_doc = document.get("goals")
    if goals_doc is None:
        goals = tuple(Goal(i, n) for i, n in DEFAULT_GOALS)
    else:
        goals = tuple(Goal(*_ident(g, f"goals[{gi}]", errors))
                      for gi, g in _objects(goals_doc, "goals", errors))
    goal_ids = [g.id for g in goals]
    if len(set(goal_ids)) != len(goal_ids):
        bad("goals: duplicate goal id")

    stakeholders = []
    for si, s in _objects(document.get("stakeholders", []), "stakeholders", errors):
        path = f"stakeholders[{si}]"
        sid, name = _ident(s, path, errors)
        criteria = []
        for ci, c in _objects(s.get("criteria", []), f"{path}.criteria", errors):
            cpath = f"{path}.criteria[{ci}]"
            cid, cname = _ident(c, cpath, errors)
            try:
                weight = rat(c.get("weight", 0), f"{cpath}.weight")
            except ModelError as exc:
                errors.extend(exc.diagnostics)
                weight = Fraction(0)
            criteria.append(ProtectionCriterion(cid, cname, weight))
        stakeholders.append(Stakeholder(sid, name, tuple(criteria)))
    stakeholders = tuple(stakeholders)

    threats = []
    for ti, t in _objects(document.get("threats", []), "threats", errors):
        path = f"threats[{ti}]"
        tid, name = _ident(t, path, errors)
        controls = tuple(
            Control(*_ident(c, f"{path}.controls[{ci}]", errors))
            for ci, c in _objects(t.get("controls", []), f"{path}.controls", errors)
        )
        tgoals = tuple(
            str(g) for g in _entries(t.get("goals", []), f"{path}.goals", errors)
        )
        threats.append(Threat(tid, name, tgoals, controls))
    threats = tuple(threats)

    aversion = {}
    for sid, per_crit in _mapping(document.get("aversion", {}), "aversion",
                                  errors).items():
        aversion[str(sid)] = {
            str(cid): {
                str(tid): v
                for tid, v in _mapping(per_threat, f"aversion.{sid}.{cid}",
                                       errors).items()
            }
            for cid, per_threat in _mapping(per_crit, f"aversion.{sid}",
                                            errors).items()
        }

    assignment = None
    if "assignment" in document:
        assignment = {}
        for tid, per_ctrl in _mapping(document["assignment"], "assignment",
                                      errors).items():
            assignment[str(tid)] = {}
            for cid, lv in _mapping(per_ctrl, f"assignment.{tid}", errors).items():
                try:
                    assignment[str(tid)][str(cid)] = rat(
                        lv, f"assignment.{tid}.{cid}"
                    )
                except ModelError as exc:
                    errors.extend(exc.diagnostics)

    model = RiskModel(
        stakeholders=stakeholders,
        threats=threats,
        goals=goals,
        aversion=aversion,
        scale=MitigationScale(levels=levels, impact_scale_max=il_max),
        assignment=assignment,
    )
    errors.extend(validate_model(model))
    if errors:
        raise ModelError(errors)
    return model


def validate_model(m: RiskModel, goals_mode=False):
    """Return diagnostics for every violated invariant (empty when valid).

    Pass goals_mode=True to additionally require a non-empty goal set per
    threat, which the goal-weighted objective needs.
    """
    diags = []
    levels = m.scale.levels

    if not levels or Fraction(0) not in levels:
        diags.append("mitigation_levels: must contain 0")
    if levels and max(levels) <= 0:
        diags.append("mitigation_levels: maximum level must be > 0")
    if any(lv < 0 or lv > 1 for lv in levels):
        diags.append("mitigation_levels: levels must lie in [0, 1]")
    if any(a >= b for a, b in zip(levels, levels[1:])):
        diags.append("mitigation_levels: levels must be strictly increasing")
    if m.scale.impact_scale_max < 1:
        diags.append("impact_scale_max: must be >= 1")

    sids = [s.id for s in m.stakeholders]
    if len(set(sids)) != len(sids):
        diags.append("stakeholders: duplicate stakeholder id")
    if not m.stakeholders:
        diags.append("stakeholders: at least one stakeholder is required")
    for si, s in enumerate(m.stakeholders):
        cids = [c.id for c in s.criteria]
        if len(set(cids)) != len(cids):
            diags.append(f"stakeholders[{si}].criteria: duplicate criterion id")
        if not s.criteria:
            diags.append(f"stakeholders[{si}].criteria: at least one criterion required")
        else:
            total = sum((c.weight for c in s.criteria), Fraction(0))
            if total != 1:
                diags.append(
                    f"stakeholders[{si}].criteria: weights sum to "
                    f"{exact_str(total)}, expected exactly 1"
                )
        for ci, c in enumerate(s.criteria):
            if c.weight < 0 or c.weight > 1:
                diags.append(
                    f"stakeholders[{si}].criteria[{ci}].weight: must lie in [0, 1]"
                )

    tids = [t.id for t in m.threats]
    if len(set(tids)) != len(tids):
        diags.append("threats: duplicate threat id")
    if not m.threats:
        diags.append("threats: at least one threat is required")
    goal_ids = {g.id for g in m.goals}
    for ti, t in enumerate(m.threats):
        cids = [c.id for c in t.controls]
        if len(set(cids)) != len(cids):
            diags.append(f"threats[{ti}].controls: duplicate control id")
        for g in t.goals:
            if g not in goal_ids:
                diags.append(f"threats[{ti}].goals: unknown goal id {g!r}")
        if goals_mode and not t.goals:
            diags.append(
                f"threats[{ti}].goals: must be non-empty for goal-weighted scoring"
            )

    # aversion table: total over (s, p in criteria(s), T), values in range
    il_max = m.scale.impact_scale_max
    known = {(s.id, c.id) for s in m.stakeholders for c in s.criteria}
    for sid, per_crit in m.aversion.items():
        if sid not in set(sids):
            diags.append(f"aversion.{sid}: unknown stakeholder id")
            continue
        for cid, per_threat in per_crit.items():
            if (sid, cid) not in known:
                diags.append(f"aversion.{sid}.{cid}: unknown criterion id")
                continue
            for tid, v in per_threat.items():
                if tid not in set(tids):
                    diags.append(f"aversion.{sid}.{cid}.{tid}: unknown threat id")
                elif not isinstance(v, int) or isinstance(v, bool):
                    diags.append(f"aversion.{sid}.{cid}.{tid}: must be an integer")
                elif not 0 <= v <= il_max:
                    diags.append(
                        f"aversion.{sid}.{cid}.{tid}: value {v} outside [0, {il_max}]"
                    )
    for s in m.stakeholders:
        for c in s.criteria:
            for t in m.threats:
                if m.aversion.get(s.id, {}).get(c.id, {}).get(t.id) is None:
                    diags.append(f"aversion.{s.id}.{c.id}.{t.id}: missing entry")

    if m.assignment is not None:
        level_set = set(levels)
        for tid, per_ctrl in m.assignment.items():
            if tid not in set(tids):
                diags.append(f"assignment.{tid}: unknown threat id")
                continue
            threat = m.threat(tid)
            ctrl_ids = {c.id for c in threat.controls}
            for cid, lv in per_ctrl.items():
                if cid not in ctrl_ids:
                    diags.append(f"assignment.{tid}.{cid}: unknown control id")
                elif lv not in level_set:
                    diags.append(
                        f"assignment.{tid}.{cid}: level {exact_str(lv)} "
                        f"not in the mitigation scale"
                    )
            for cid in ctrl_ids:
                if cid not in per_ctrl:
                    diags.append(f"assignment.{tid}.{cid}: missing level")
        for t in m.threats:
            if t.id not in m.assignment:
                diags.append(f"assignment.{t.id}: missing threat")

    return diags


def render_model(m: RiskModel) -> dict:
    """Canonical document form of a model; parse(render(m)) == m."""
    doc = {
        "impact_scale_max": m.scale.impact_scale_max,
        "mitigation_levels": [exact_str(lv) for lv in m.scale.levels],
        "goals": [{"id": g.id, "name": g.name} for g in m.goals],
        "stakeholders": [
            {
                "id": s.id,
                "name": s.name,
                "criteria": [
                    {"id": c.id, "name": c.name, "weight": exact_str(c.weight)}
                    for c in s.criteria
                ],
            }
            for s in m.stakeholders
        ],
        "threats": [
            {
                "id": t.id,
                "name": t.name,
                "goals": list(t.goals),
                "controls": [{"id": c.id, "name": c.name} for c in t.controls],
            }
            for t in m.threats
        ],
        "aversion": {
            s.id: {
                c.id: {t.id: m.aversion[s.id][c.id][t.id] for t in m.threats}
                for c in s.criteria
            }
            for s in m.stakeholders
        },
    }
    if m.assignment is not None:
        doc["assignment"] = {
            t.id: {c.id: exact_str(m.assignment[t.id][c.id]) for c in t.controls}
            for t in m.threats
        }
    return doc
