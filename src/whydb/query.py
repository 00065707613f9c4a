"""Conjunctive queries, denial constraints, and their evaluation.

Rule files use a Datalog surface syntax. A query is one or more rules with
the same head; several rules form a union of conjunctive queries:

    q :- S(x), R(x,y), S(y).
    q(x) :- P(x), Q(x,y), x != y.

Constraint files hold denial constraints and functional dependencies:

    :- P(x), Q(x,y).
    fd R: 1,2 -> 3.

In rule files a lowercase identifier is always a variable. Constants must be
written quoted (``"a4"``) or start with an uppercase letter or digit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Mapping, Union

from ._scan import IDENTIFIER_RE, Scanner
from .core import Fact, Instance, is_constant
from .errors import (
    ArityMismatchError,
    OpenQueryError,
    ParseError,
    SafetyError,
)

VARIABLE_RE = re.compile(r"[a-z][A-Za-z0-9_]*")
_BARE_CONSTANT_RE = re.compile(r"[A-Z0-9][A-Za-z0-9_]*")


@dataclass(frozen=True)
class Var:
    name: str

    def __post_init__(self):
        if not VARIABLE_RE.fullmatch(self.name):
            raise ValueError(f"bad variable name {self.name!r}")


Term = Union[Var, str]


def render_term(term: Term) -> str:
    if isinstance(term, Var):
        return term.name
    if _BARE_CONSTANT_RE.fullmatch(term):
        return term
    return f'"{term}"'


@dataclass(frozen=True)
class Atom:
    predicate: str
    terms: tuple[Term, ...]

    def __post_init__(self):
        if not IDENTIFIER_RE.fullmatch(self.predicate):
            raise ValueError(f"bad predicate name {self.predicate!r}")
        if not self.terms:
            raise ValueError("atoms need at least one term")
        for t in self.terms:
            if not isinstance(t, Var) and not is_constant(t):
                raise ValueError(f"bad constant {t!r}")

    def variables(self) -> set[str]:
        return {t.name for t in self.terms if isinstance(t, Var)}

    def render(self) -> str:
        return f"{self.predicate}({', '.join(render_term(t) for t in self.terms)})"


@dataclass(frozen=True)
class CQ:
    """One conjunct of a query: relational atoms plus inequalities.

    Safety: every variable used in an inequality or exported as a free
    variable must occur in some relational atom.
    """

    atoms: tuple[Atom, ...]
    inequalities: tuple[tuple[Term, Term], ...] = ()
    free_vars: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("a conjunctive query needs at least one atom")
        bound = set()
        for atom in self.atoms:
            bound |= atom.variables()
        for left, right in self.inequalities:
            for term in (left, right):
                if isinstance(term, Var) and term.name not in bound:
                    raise SafetyError(
                        f"variable {term.name!r} occurs only in an inequality"
                    )
        for name in self.free_vars:
            if name not in bound:
                raise SafetyError(f"free variable {name!r} occurs in no atom")

    def variables(self) -> set[str]:
        out = set()
        for atom in self.atoms:
            out |= atom.variables()
        return out

    def render_body(self) -> str:
        parts = [atom.render() for atom in self.atoms]
        parts += [
            f"{render_term(l)} != {render_term(r)}" for l, r in self.inequalities
        ]
        return ", ".join(parts)


@dataclass(frozen=True)
class UCQ:
    """A union of conjunctive queries; a single disjunct is a plain CQ."""

    disjuncts: tuple[CQ, ...]

    def __post_init__(self):
        if not self.disjuncts:
            raise ValueError("a query needs at least one rule")
        first = self.disjuncts[0].free_vars
        for cq in self.disjuncts[1:]:
            if cq.free_vars != first:
                raise ValueError("all rules of a query must share the same head")

    @property
    def free_vars(self) -> tuple[str, ...]:
        return self.disjuncts[0].free_vars

    @property
    def is_boolean(self) -> bool:
        return not self.free_vars

    def render(self, head: str = "q") -> str:
        head_text = head if self.is_boolean else f"{head}({', '.join(self.free_vars)})"
        return "\n".join(f"{head_text} :- {cq.render_body()}." for cq in self.disjuncts)


@dataclass(frozen=True)
class DC:
    """A denial constraint, read as the negated existential closure of body."""

    body: CQ

    def __post_init__(self):
        if self.body.free_vars:
            raise ValueError("denial constraints have no free variables")

    def render(self) -> str:
        return f":- {self.body.render_body()}."


@dataclass(frozen=True)
class FD:
    """Attributes at `determinants` (1-based) determine the `determined` one."""

    predicate: str
    determinants: frozenset[int]
    determined: int

    def __post_init__(self):
        if not self.determinants:
            raise ValueError("an fd needs at least one determinant position")
        if any(p < 1 for p in self.determinants) or self.determined < 1:
            raise ValueError("fd positions are 1-based")
        if self.determined in self.determinants:
            raise ValueError("the determined position cannot be a determinant")

    def render(self) -> str:
        dets = ",".join(str(p) for p in sorted(self.determinants))
        return f"fd {self.predicate}: {dets} -> {self.determined}."


@dataclass(frozen=True)
class ConstraintSet:
    """Denial constraints with per-constraint provenance labels."""

    dcs: tuple[DC, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.labels:
            object.__setattr__(self, "labels", tuple(dc.render() for dc in self.dcs))
        elif len(self.labels) != len(self.dcs):
            raise ValueError("one label per constraint")

    def __len__(self) -> int:
        return len(self.dcs)

    def __iter__(self) -> Iterator[DC]:
        return iter(self.dcs)


@dataclass(frozen=True)
class ViolationEdge:
    """The tids of one ground violation of one constraint. Deleting any
    member tuple removes this particular violation."""

    tids: frozenset[int]
    constraint_index: int


# -- parsing ---------------------------------------------------------------

_RAW_TERM_STOP = set(",()!=\". \t\r\n%")


def _read_term(sc: Scanner) -> Term:
    sc.skip_layout()
    ch = sc.peek()
    if ch == '"':
        sc.advance()
        start = sc.pos
        while not sc.eof() and sc.peek() not in ('"', "\n"):
            sc.advance()
        if sc.peek() != '"':
            raise sc.error("unterminated quoted constant")
        value = sc.text[start : sc.pos]
        sc.advance()
        if not is_constant(value):
            raise sc.error(f"bad constant {value!r}")
        return value
    m = VARIABLE_RE.match(sc.text, sc.pos)
    if m:
        sc.advance(m.end() - sc.pos)
        return Var(m.group())
    start = sc.pos
    while not sc.eof() and sc.peek() not in _RAW_TERM_STOP:
        sc.advance()
    if sc.pos == start:
        raise sc.error("expected a term")
    return sc.text[start : sc.pos]


def _read_body(sc: Scanner) -> tuple[tuple[Atom, ...], tuple[tuple[Term, Term], ...]]:
    atoms: list[Atom] = []
    ineqs: list[tuple[Term, Term]] = []
    while True:
        sc.skip_layout()
        m = IDENTIFIER_RE.match(sc.text, sc.pos)
        if m and sc.lookahead_after_layout(m.end() - sc.pos) == "(":
            predicate = sc.read_identifier("predicate name")
            sc.expect("(")
            terms = [_read_term(sc)]
            while sc.try_token(","):
                terms.append(_read_term(sc))
            sc.expect(")")
            atoms.append(Atom(predicate, tuple(terms)))
        else:
            left = _read_term(sc)
            sc.expect("!=")
            right = _read_term(sc)
            ineqs.append((left, right))
        if sc.try_token(","):
            continue
        sc.expect(".")
        return tuple(atoms), tuple(ineqs)


def _read_dc(sc: Scanner, line: int, col: int) -> DC:
    """The body of a denial constraint whose `:-` was read at line:col."""
    atoms, ineqs = _read_body(sc)
    if not atoms:
        raise ParseError(
            "constraint body has no relational atom", line=line, column=col
        )
    return DC(CQ(atoms, ineqs))


def _read_positions(sc: Scanner) -> tuple[int, ...]:
    """A comma-separated list of 1-based attribute positions."""
    positions = [sc.read_int("attribute position")]
    while sc.try_token(","):
        positions.append(sc.read_int("attribute position"))
    return tuple(positions)


def parse_query(text: str) -> UCQ:
    """Parse one or more rules sharing a head into a UCQ."""
    sc = Scanner(text)
    rules = []
    while True:
        sc.skip_layout()
        if sc.eof():
            break
        line, col = sc.line, sc.col
        head_name = sc.read_identifier("rule head")
        head_vars: list[str] = []
        if sc.try_token("("):
            while True:
                term = _read_term(sc)
                if not isinstance(term, Var):
                    raise ParseError(
                        "head arguments must be variables", line=line, column=col
                    )
                head_vars.append(term.name)
                if sc.try_token(","):
                    continue
                sc.expect(")")
                break
            if len(set(head_vars)) != len(head_vars):
                raise ParseError("repeated head variable", line=line, column=col)
        sc.expect(":-")
        atoms, ineqs = _read_body(sc)
        if not atoms:
            raise ParseError("rule body has no relational atom", line=line, column=col)
        rules.append((head_name, tuple(head_vars), atoms, ineqs, line, col))
    if not rules:
        raise ParseError("no rules found", line=sc.line, column=sc.col)
    head = (rules[0][0], rules[0][1])
    for name, hvars, _, _, line, col in rules[1:]:
        if (name, hvars) != head:
            raise ParseError(
                "all rules of a query must share the same head", line=line, column=col
            )
    return UCQ(
        tuple(CQ(atoms, ineqs, hvars) for _, hvars, atoms, ineqs, _, _ in rules)
    )


def parse_constraints(
    text: str, arities: Mapping[str, int] | Instance | None = None
) -> ConstraintSet:
    """Parse DCs and FDs; FDs are normalized to DCs immediately.

    Normalizing an fd needs the full arity of its predicate, so `arities`
    (a mapping or an Instance) is required whenever the text contains fds.
    """
    if isinstance(arities, Instance):
        arities = arities.arities
    sc = Scanner(text)
    dcs: list[DC] = []
    labels: list[str] = []
    while True:
        sc.skip_layout()
        if sc.eof():
            break
        line, col = sc.line, sc.col
        if sc.try_token(":-"):
            dc = _read_dc(sc, line, col)
            dcs.append(dc)
            labels.append(dc.render())
            continue
        keyword = sc.read_identifier("':-' or 'fd'")
        if keyword != "fd":
            raise ParseError("expected ':-' or 'fd'", line=line, column=col)
        predicate = sc.read_identifier("predicate name")
        sc.expect(":")
        determinants = _read_positions(sc)
        sc.expect("->")
        determined = sc.read_int("attribute position")
        sc.expect(".")
        try:
            fd = FD(predicate, frozenset(determinants), determined)
        except ValueError as exc:
            raise ParseError(str(exc), line=line, column=col) from None
        if arities is None or predicate not in arities:
            raise ParseError(
                f"cannot normalize fd: unknown arity for predicate {predicate!r}",
                line=line,
                column=col,
            )
        try:
            dcs.append(fd_to_dc(fd, arities[predicate]))
        except ValueError as exc:
            raise ParseError(str(exc), line=line, column=col) from None
        labels.append(fd.render())
    return ConstraintSet(tuple(dcs), tuple(labels))


def fd_to_dc(fd: FD, arity: int) -> DC:
    """Normalize an fd to a two-atom self-join DC with one inequality.

    For ``fd R: 1,2 -> 3`` over arity 4 this builds
    ``:- R(x, y, z1, v), R(x, y, z2, w), z1 != z2.``: shared fresh variables
    exactly at the determinant positions, ``z1``/``z2`` at the determined
    one, and distinct variables everywhere else.
    """
    if arity < 1:
        raise ValueError("arity must be positive")
    if max(fd.determinants | {fd.determined}) > arity:
        raise ValueError(f"fd position out of range for arity {arity}")
    det_names = {}
    for i, pos in enumerate(sorted(fd.determinants)):
        det_names[pos] = ("x", "y")[i] if i < 2 else f"x{i + 1}"
    first: list[Term] = []
    second: list[Term] = []
    extra = 0
    for pos in range(1, arity + 1):
        if pos in det_names:
            first.append(Var(det_names[pos]))
            second.append(Var(det_names[pos]))
        elif pos == fd.determined:
            first.append(Var("z1"))
            second.append(Var("z2"))
        else:
            extra += 1
            first.append(Var("v" if extra == 1 else f"v{extra}"))
            second.append(Var("w" if extra == 1 else f"w{extra}"))
    body = CQ(
        (Atom(fd.predicate, tuple(first)), Atom(fd.predicate, tuple(second))),
        ((Var("z1"), Var("z2")),),
    )
    return DC(body)


def negate_query(q: UCQ) -> ConstraintSet:
    """The constraint set equivalent to the negation of a boolean query:
    one DC per disjunct, body kept verbatim."""
    if q.free_vars:
        raise OpenQueryError("only boolean queries can be negated into constraints")
    dcs = tuple(DC(cq) for cq in q.disjuncts)
    return ConstraintSet(dcs, tuple(dc.render() for dc in dcs))


# -- evaluation ------------------------------------------------------------


def _check_arities(inst: Instance, cq: CQ) -> None:
    for atom in cq.atoms:
        known = inst.arity(atom.predicate)
        if known is not None and known != len(atom.terms):
            raise ArityMismatchError(
                f"atom {atom.render()} has arity {len(atom.terms)}, "
                f"instance uses {known}"
            )


def _ground(term: Term, binding: dict[str, str]) -> str | None:
    if isinstance(term, Var):
        return binding.get(term.name)
    return term


def _inequalities_ok(cq: CQ, binding: dict[str, str], partial: bool) -> bool:
    for left, right in cq.inequalities:
        lv = _ground(left, binding)
        rv = _ground(right, binding)
        if lv is None or rv is None:
            if partial:
                continue
            return False
        if lv == rv:
            return False
    return True


def _match(atom: Atom, fact: Fact, binding: dict[str, str]) -> dict[str, str] | None:
    result = binding
    copied = False
    for term, value in zip(atom.terms, fact.args):
        if isinstance(term, Var):
            bound = result.get(term.name)
            if bound is None:
                if not copied:
                    result = dict(result)
                    copied = True
                result[term.name] = value
            elif bound != value:
                return None
        elif term != value:
            return None
    return result


def _solutions(
    inst: Instance, cq: CQ
) -> Iterator[tuple[dict[str, str], tuple[Fact, ...]]]:
    """All homomorphisms of cq into inst that satisfy the inequalities.

    Naive backtracking join in query-atom order; facts are tried in tid
    order, so the enumeration is deterministic.
    """
    _check_arities(inst, cq)
    atoms = cq.atoms

    def extend(i: int, binding: dict[str, str], picked: list[Fact]):
        if i == len(atoms):
            if _inequalities_ok(cq, binding, partial=False):
                yield dict(binding), tuple(picked)
            return
        atom = atoms[i]
        for fact in inst.of_predicate(atom.predicate):
            extended = _match(atom, fact, binding)
            if extended is None:
                continue
            if not _inequalities_ok(cq, extended, partial=True):
                continue
            picked.append(fact)
            yield from extend(i + 1, extended, picked)
            picked.pop()

    yield from extend(0, {}, [])


def eval_bcq(inst: Instance, q: UCQ) -> bool:
    """Truth of a boolean query: some disjunct has a homomorphism into inst."""
    if q.free_vars:
        raise OpenQueryError("eval_bcq requires a boolean query")
    for cq in q.disjuncts:
        for _ in _solutions(inst, cq):
            return True
    return False


def answers(inst: Instance, q: UCQ) -> set[tuple[str, ...]]:
    """All bindings of the free variables; {()} or set() for boolean queries."""
    out: set[tuple[str, ...]] = set()
    for cq in q.disjuncts:
        for binding, _ in _solutions(inst, cq):
            out.add(tuple(binding[v] for v in cq.free_vars))
    return out


def violations(inst: Instance, cs: ConstraintSet) -> list[ViolationEdge]:
    """Ground witnesses of inconsistency, one edge per homomorphism image.

    An image maps each constraint atom to a fact; its edge is the set of
    image tids, so a self-join image collapsing two atoms onto one tuple
    yields a smaller edge. Edges are deduplicated per constraint and sorted
    by (sorted tids, constraint index).
    """
    seen: set[tuple[frozenset[int], int]] = set()
    edges: list[ViolationEdge] = []
    for index, dc in enumerate(cs.dcs):
        for _, picked in _solutions(inst, dc.body):
            tids = frozenset(f.tid for f in picked)
            key = (tids, index)
            if key not in seen:
                seen.add(key)
                edges.append(ViolationEdge(tids, index))
    edges.sort(key=lambda e: (tuple(sorted(e.tids)), e.constraint_index))
    return edges
