"""Emit repair and causality logic programs as solver-ready text.

Nothing here is executed: the emitted programs document the repair/causality
encoding and allow external cross-validation with an ASP solver. Every tuple
becomes a fact whose first argument is its tid, and each predicate P gets a
nickname predicate p_x carrying one extra trailing annotation argument, `d`
for "delete" and `s` for "stays". A constant is written bare only when it is
an ASP-Core-2 symbolic constant other than `not`, or a numeral without
leading zeros; every other constant is quoted.

Both programs start alike: header, facts, and per denial constraint its
delete rule and the stays rules not emitted yet (`_prefix`). One renderer,
`_render_dc`, writes a constraint's atoms over base or nickname predicates
for the body, delete, stays and hard-constraint atoms alike.

Dialects: `core_disjunctive` uses disjunctive heads (`|`), `core_normalized`
rewrites each disjunction into one rule per disjunct with the other
disjuncts negated in the body, and `extended` targets DLV/DLV-Complex
(`v` disjunction, set built-ins, count aggregate, legacy weak constraints).
The normalized rewriting is not equivalent when two atoms of a constraint
unify: the ground rule reads `a :- not a` (see README).
"""

from __future__ import annotations

import enum
import itertools
import re
from dataclasses import dataclass
from typing import Mapping, Sequence

from ._version import __version__
from .core import Instance
from .errors import EmitError
from .query import DC, ConstraintSet, UCQ, Var, negate_query
from .repair import HardConstraint, ReferentialConstraint


class AspDialect(enum.Enum):
    CORE_DISJUNCTIVE = "core_disjunctive"
    CORE_NORMALIZED = "core_normalized"
    EXTENDED = "extended"


@dataclass(frozen=True)
class CausalityOptions:
    cause_rules: bool = True
    contingency_union: bool = False
    responsibility_rules: bool = False
    weak_constraints: bool = False
    hard_constraints: tuple[HardConstraint, ...] = ()


@dataclass(frozen=True)
class AspProgram:
    text: str
    dialect: AspDialect
    predicate_map: Mapping[str, str]


_SAFE_CONSTANT = re.compile(r"[a-z][A-Za-z0-9_]*|0|[1-9][0-9]*")
_RESERVED = ("cause", "ans", "con", "pre_rho", "rho")
_CONTINGENCY = (
    "% contingency sets as set terms (needs set built-ins)",
    "con(T,{Tp}) :- cause(T,Tp).",
    "con(T,#union(C1,C2)) :- con(T,C1), con(T,C2), "
    "#member(M,C1), not #member(M,C2).",
)
_RESPONSIBILITY = (
    "% responsibility via counting",
    "% caveat: integer-only solvers cannot represent 1/k, so rho below has",
    "% no solution for positive counts; kept for documentation and",
    "% cross-checking, native computation stays authoritative.",
    "pre_rho(T,N) :- #count{Tp : con(T,Tp)} = N.",
    "rho(T,M) :- M * (pre_rho(T,M) + 1) = 1.",
)


def _emit_constant(value: str) -> str:
    if value != "not" and _SAFE_CONSTANT.fullmatch(value):
        return value
    escaped = value.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def _argument_pool(count: int, names: str = "XYZ") -> list[str]:
    return [names[i] if i < 3 else f"{names[0]}{i + 1}" for i in range(count)]


def _collect_predicates(
    inst: Instance, constraints: Sequence[HardConstraint]
) -> dict[str, int]:
    """Predicate -> arity over everything the program mentions, checked in
    constraint order: a referential constraint's predicate of unknown arity
    is an EmitError, a position past its arity an ArityMismatchError."""
    arities: dict[str, int] = dict(inst.arities)

    def arity(name: str) -> int:
        if name not in arities:
            raise EmitError(f"unknown arity for predicate {name!r} in hard constraint")
        return arities[name]

    for constraint in constraints:
        if isinstance(constraint, ReferentialConstraint):
            constraint.check_positions(arity)
            continue
        for atom in constraint.body.atoms:
            known = arities.setdefault(atom.predicate, len(atom.terms))
            if known != len(atom.terms):
                raise EmitError(
                    f"arity clash for {atom.predicate}: {known} vs {len(atom.terms)}"
                )
    return arities


def _aux_name(index: int) -> str:
    """The helper predicate of the index-th referential hard constraint."""
    return "aux" if index == 1 else f"aux{index}"


def _name_predicates(
    arities: Mapping[str, int], reserved: Sequence[str]
) -> tuple[dict[str, str], dict[str, str]]:
    """Base and nickname names per predicate, checked against each other
    and against the `reserved` emitted names, in that order."""
    base = {p: p.lower() for p in arities}
    nick = {p: p.lower() + "_x" for p in arities}
    taken: dict[str, str] = {}
    for p in sorted(arities):
        for name in (base[p], nick[p]):
            if name in taken:
                raise EmitError(
                    f"predicate name collision: {p} and {taken[name]} both "
                    f"need the emitted name {name!r}"
                )
            taken[name] = p
    for name in reserved:
        if name in taken:
            raise EmitError(
                f"predicate {taken[name]} collides with the reserved "
                f"emitted name {name!r}"
            )
    return base, nick


def _render_dc(dc: DC, names: Mapping[str, str], mark: str = "") -> list[str]:
    """The atoms of a DC over the emitted predicate `names`, the i-th with
    tid variable T<i> first and `mark` (",d", ",s" or "") last, followed by
    its inequalities. A source variable is capitalized, and prefixed with V
    while it clashes with a tid variable or an earlier one."""
    atoms = dc.body.atoms
    used = {f"T{i + 1}" for i in range(len(atoms))}
    renamed: dict[str, str] = {}
    for term in itertools.chain(*(a.terms for a in atoms), *dc.body.inequalities):
        if isinstance(term, Var) and term.name not in renamed:
            candidate = term.name[0].upper() + term.name[1:]
            while candidate in used:
                candidate = "V" + candidate
            renamed[term.name] = candidate
            used.add(candidate)

    def text(term) -> str:
        return renamed[term.name] if isinstance(term, Var) else _emit_constant(term)

    return [
        f"{names[a.predicate]}(T{i + 1},{','.join(map(text, a.terms))}{mark})"
        for i, a in enumerate(atoms)
    ] + [f"{text(left)} != {text(right)}" for left, right in dc.body.inequalities]


def _dc_rule_lines(
    dc: DC,
    label: str,
    dialect: AspDialect,
    base: Mapping[str, str],
    nick: Mapping[str, str],
    stays_seen: set[str],
) -> list[str]:
    n = len(dc.body.atoms)
    body = _render_dc(dc, base)
    delete = _render_dc(dc, nick, ",d")[:n]
    stays = _render_dc(dc, nick, ",s")[:n]
    joined = ", ".join(body)
    lines = [f"% constraint: {label}"]
    if dialect is AspDialect.CORE_NORMALIZED:
        for i in range(n):
            negated = [f"not {d}" for j, d in enumerate(delete) if j != i]
            lines.append(f"{delete[i]} :- {', '.join([joined, *negated])}.")
    else:
        joiner = " v " if dialect is AspDialect.EXTENDED else " | "
        lines.append(f"{joiner.join(delete)} :- {joined}.")
    for i in range(n):
        rule = f"{stays[i]} :- {body[i]}, not {delete[i]}."
        if rule not in stays_seen:
            stays_seen.add(rule)
            lines.append(rule)
    return lines


def _prefix(
    kind: str,
    inst: Instance,
    cs: ConstraintSet,
    dialect: AspDialect,
    hard: Sequence[HardConstraint] = (),
) -> tuple[list[str], dict[str, int], dict[str, str], dict[str, str]]:
    """The part both programs share: header, facts and the rules of each
    constraint of `cs`; with the arities and the base and nickname names
    over `cs` and `hard`."""
    arities = _collect_predicates(inst, (*cs.dcs, *hard))
    reserved: tuple[str, ...] = ()
    if kind == "causality":
        refs = sum(isinstance(h, ReferentialConstraint) for h in hard)
        reserved = (*_RESERVED, *(_aux_name(i + 1) for i in range(refs)))
    base, nick = _name_predicates(arities, reserved)
    lines = [f"% whydb {__version__} {kind} program", f"% dialect: {dialect.value}"]
    if len(inst):
        lines.append("% facts")
        # each distinct constant is tested once
        every = set(itertools.chain.from_iterable([row[1] for row in inst.rows]))
        emitted = {c: _emit_constant(c) for c in every}.__getitem__
        for predicate, args, tid, _ in inst.rows:
            constants = ",".join(map(emitted, args))
            lines.append(f"{base[predicate]}({tid},{constants}).")
    stays_seen: set[str] = set()
    for dc, label in zip(cs.dcs, cs.labels):
        lines.extend(_dc_rule_lines(dc, label, dialect, base, nick, stays_seen))
    return lines, arities, base, nick


def emit_repair_program(
    inst: Instance, cs: ConstraintSet, dialect: AspDialect
) -> AspProgram:
    """The repair program: instance facts plus, per denial constraint, one
    disjunctive delete rule (or its normalized rewriting) and one stays rule
    per constraint atom."""
    lines, _, _, nick = _prefix("repair", inst, cs, dialect)
    return AspProgram("\n".join(lines) + "\n", dialect, dict(nick))


def _cause_rule_lines(cs: ConstraintSet, nick, arities) -> list[str]:
    rules: dict[str, None] = {}
    for dc in cs.dcs:
        order = dict.fromkeys(atom.predicate for atom in dc.body.atoms)
        for left, right in itertools.product(order, repeat=2):
            first = ",".join(_argument_pool(arities[left]))
            second = ",".join(_argument_pool(arities[right], "UVW"))
            apart = ", T != Tp" if left == right else ""
            body = f"{nick[left]}(T,{first},d), {nick[right]}(Tp,{second},d)"
            rules[f"cause(T,Tp) :- {body}{apart}."] = None
    return ["% cause rules", *rules]


def _hard_constraint_lines(
    hard: Sequence[HardConstraint], nick, arities
) -> list[str]:
    lines = ["% hard integrity constraints (filter models violating them)"]
    aux_index = 0
    for constraint in hard:
        if not isinstance(constraint, ReferentialConstraint):
            lines.append(f":- {', '.join(_render_dc(constraint, nick, ',s'))}.")
            continue
        aux_index += 1
        aux = _aux_name(aux_index)
        target = _argument_pool(arities[constraint.target])
        projected = ",".join(target[p - 1] for p in constraint.target_positions)
        lines.append(
            f"{aux}({projected}) :- {nick[constraint.target]}(Tp,{','.join(target)},s)."
        )
        source = _argument_pool(arities[constraint.source])
        held = ",".join(source[p - 1] for p in constraint.source_positions)
        lines.append(
            f":- {nick[constraint.source]}(T,{','.join(source)},s), not {aux}({held})."
        )
    return lines


def emit_causality_program(
    inst: Instance,
    q: UCQ,
    dialect: AspDialect,
    opts: CausalityOptions = CausalityOptions(),
) -> AspProgram:
    """The repair program of the negated query, extended with cause rules,
    answer projection, and the optional contingency-union, responsibility,
    hard-constraint and weak-constraint blocks."""
    if opts.contingency_union and dialect is not AspDialect.EXTENDED:
        raise EmitError("the contingency union block needs the extended dialect")
    if opts.responsibility_rules:
        if dialect is not AspDialect.EXTENDED:
            raise EmitError("responsibility rules need the extended dialect")
        if not opts.contingency_union:
            raise EmitError(
                "responsibility rules build on the contingency union block"
            )
    cs = negate_query(q)
    lines, arities, base, nick = _prefix(
        "causality", inst, cs, dialect, opts.hard_constraints
    )
    if opts.cause_rules:
        lines.extend(_cause_rule_lines(cs, nick, arities))
    lines.append("% actual causes by tid (query under brave semantics)")
    for p in dict.fromkeys(a.predicate for dc in cs.dcs for a in dc.body.atoms):
        args = ",".join(_argument_pool(arities[p]))
        lines.append(f"ans(T) :- {nick[p]}(T,{args},d).")
    if opts.contingency_union:
        lines.extend(_CONTINGENCY)
    if opts.responsibility_rules:
        lines.extend(_RESPONSIBILITY)
    if opts.hard_constraints:
        lines.extend(_hard_constraint_lines(opts.hard_constraints, nick, arities))
    if opts.weak_constraints:
        lines.append("% weak constraints: minimize the number of deleted tuples")
        weight = "[1:1]" if dialect is AspDialect.EXTENDED else "[1@1, T]"
        for p in sorted(arities, key=lambda p: base[p]):
            args = ",".join(_argument_pool(arities[p]))
            lines.append(f":~ {base[p]}(T,{args}), {nick[p]}(T,{args},d). {weight}")
    return AspProgram("\n".join(lines) + "\n", dialect, dict(nick))
