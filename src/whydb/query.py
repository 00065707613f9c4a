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

Queries and constraints are evaluated by one backtracking join
(`_solutions`). `violations` grounds a DC of the shape of an FD by key
groups instead: the rows that agree on the positions its two atoms share,
split by their value at its inequality's position.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, Mapping, Union

from ._scan import IDENTIFIER_RE, Scanner
from .core import CONSTANT_STOP, Instance, Row, is_constant
from .errors import (
    ArityMismatchError,
    OpenQueryError,
    SafetyError,
    _nesting_budget,
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
        bound = self.variables()
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

# A bare term in a rule: the constant grammar, also stopped by the
# characters rules need for inequalities, quoted constants and periods.
_RAW_TERM_RE = re.compile("[^%s]+" % re.escape(CONSTANT_STOP + '!=".'))
_QUOTED_RE = re.compile(r'"([^"\n]*)("?)')


def _read_term(sc: Scanner) -> Term:
    quoted = _QUOTED_RE.match(sc.text, sc.pos)
    if quoted:
        value, closed = quoted.groups()
        if not closed:
            raise sc.error("unterminated quoted constant", at=quoted.end())
        if not is_constant(value):
            raise sc.error(f"bad constant {value!r}", at=quoted.end())
        sc.advance(quoted.end())
        return value
    m = VARIABLE_RE.match(sc.text, sc.pos)
    if m:
        sc.advance(m.end())
        return Var(m.group())
    return sc.read(_RAW_TERM_RE, "a term")


def _read_body(
    sc: Scanner, start: int, what: str
) -> tuple[tuple[Atom, ...], tuple[tuple[Term, Term], ...]]:
    """The atoms and inequalities of the `what` ("rule" or "constraint")
    that starts at offset `start`, up to its closing period."""
    atoms: list[Atom] = []
    ineqs: list[tuple[Term, Term]] = []
    while True:
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
        if not atoms:
            raise sc.error(f"{what} body has no relational atom", at=start)
        return tuple(atoms), tuple(ineqs)


def _cq(sc: Scanner, start: int, atoms, ineqs, free_vars=()) -> CQ:
    """The CQ of the statement at offset `start`, where a SafetyError points."""
    try:
        return CQ(atoms, ineqs, free_vars)
    except SafetyError as exc:
        raise sc.error(str(exc), at=start, kind=SafetyError) from None


def _read_dc(sc: Scanner, start: int) -> DC:
    """The body of a denial constraint whose `:-` starts at offset `start`."""
    return DC(_cq(sc, start, *_read_body(sc, start, "constraint")))


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
    for start in sc.statements():
        head_name = sc.read_identifier("rule head")
        head_vars: list[str] = []
        if sc.try_token("("):
            while True:
                term = _read_term(sc)
                if not isinstance(term, Var):
                    raise sc.error("head arguments must be variables", at=start)
                head_vars.append(term.name)
                if not sc.try_token(","):
                    break
            sc.expect(")")
            if len(set(head_vars)) != len(head_vars):
                raise sc.error("repeated head variable", at=start)
        sc.expect(":-")
        atoms, ineqs = _read_body(sc, start, "rule")
        rules.append((head_name, tuple(head_vars), atoms, ineqs, start))
    if not rules:
        raise sc.error("no rules found")
    for name, hvars, _, _, start in rules[1:]:
        if (name, hvars) != rules[0][:2]:
            raise sc.error("all rules of a query must share the same head", at=start)
    return UCQ(
        tuple(
            _cq(sc, start, atoms, ineqs, hvars)
            for _, hvars, atoms, ineqs, start in rules
        )
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
    for start in sc.statements():
        if sc.try_token(":-"):
            dc = _read_dc(sc, start)
            dcs.append(dc)
            labels.append(dc.render())
            continue
        keyword = sc.read_identifier("':-' or 'fd'")
        if keyword != "fd":
            raise sc.error("expected ':-' or 'fd'", at=start)
        predicate = sc.read_identifier("predicate name")
        sc.expect(":")
        determinants = _read_positions(sc)
        sc.expect("->")
        determined = sc.read_int("attribute position")
        sc.expect(".")
        try:
            fd = FD(predicate, frozenset(determinants), determined)
            if arities is None or predicate not in arities:
                raise ValueError(
                    f"cannot normalize fd: unknown arity for predicate {predicate!r}"
                )
            dcs.append(fd_to_dc(fd, arities[predicate]))
        except ValueError as exc:
            raise sc.error(str(exc), at=start) from None
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
    return ConstraintSet(tuple(DC(cq) for cq in q.disjuncts))


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


def _inequalities_ok(cq: CQ, binding: dict[str, str]) -> bool:
    """Whether no inequality of cq with both sides bound fails. A side not
    bound yet is left to a later atom; safety puts every inequality
    variable in some atom, so the check after the last atom is complete."""
    for left, right in cq.inequalities:
        lv = _ground(left, binding)
        if lv is not None and lv == _ground(right, binding):
            return False
    return True


def _match(
    atom: Atom, args: tuple[str, ...], binding: dict[str, str]
) -> dict[str, str] | None:
    result = binding
    copied = False
    for term, value in zip(atom.terms, args):
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


def _plan(cq: CQ) -> list[tuple[Atom, int | None]]:
    """The atoms of cq in join order, each with the position to probe on.

    Greedy, bind before you scan: the next atom is the one with the most
    terms that are constants or variables bound by earlier atoms; ties keep
    query order. Its probe position is its first such term, or None when
    nothing is bound yet and the atom has to scan its predicate.
    """
    remaining = list(cq.atoms)
    bound: set[str] = set()
    plan: list[tuple[Atom, int | None]] = []

    def is_bound(term: Term) -> bool:
        return not isinstance(term, Var) or term.name in bound

    while remaining:
        best = max(
            range(len(remaining)),
            key=lambda i: sum(map(is_bound, remaining[i].terms)),
        )
        atom = remaining.pop(best)
        probe = next((p for p, t in enumerate(atom.terms) if is_bound(t)), None)
        plan.append((atom, probe))
        bound |= atom.variables()
    return plan


def _solutions(
    inst: Instance, cq: CQ
) -> Iterator[tuple[dict[str, str], tuple[Row, ...]]]:
    """All homomorphisms of cq into inst that satisfy the inequalities.

    A backtracking join over the atoms in `_plan` order. An atom with a
    bound term looks its candidates up in a value index on the probe
    position, built once per call; an atom with none scans its predicate.
    `_match` and the inequalities still check every term, so the index only
    narrows the candidates. Candidates are the instance's rows, in tid
    order, so the enumeration is deterministic and builds no `Fact`;
    `picked` lists the rows in plan order.
    The join nests one step per atom; nesting deeper than the recursion
    limit raises BudgetExceededError.
    """
    _check_arities(inst, cq)
    indexes: dict[tuple[str, int], dict[str, list[Row]]] = {}
    steps = _plan(cq)
    for atom, probe in steps:
        if probe is not None and (atom.predicate, probe) not in indexes:
            index = indexes[atom.predicate, probe] = {}
            for row in inst.rows_of(atom.predicate):
                index.setdefault(row[1][probe], []).append(row)

    def extend(i: int, binding: dict[str, str], picked: list[Row]):
        if i == len(steps):
            yield dict(binding), tuple(picked)
            return
        atom, probe = steps[i]
        if probe is None:
            candidates = inst.rows_of(atom.predicate)
        else:
            value = _ground(atom.terms[probe], binding)
            candidates = indexes[atom.predicate, probe].get(value, ())
        for row in candidates:
            extended = _match(atom, row[1], binding)
            if extended is None:
                continue
            if not _inequalities_ok(cq, extended):
                continue
            picked.append(row)
            yield from extend(i + 1, extended, picked)
            picked.pop()

    yield from _nesting_budget(extend(0, {}, []), f"join over {len(steps)} atoms")


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


def _fd_shape(cq: CQ) -> tuple[str, tuple[int, ...], int] | None:
    """`(predicate, shared, at)` if cq has the shape of an FD's DC, else None.

    The shape: two atoms of one predicate, of one length, with only
    variables; each variable either sits at the same position in both atoms
    (the positions `shared`) or occurs once; and one inequality, between the
    two atoms' variables at the position `at`. Every DC that `fd_to_dc`
    makes has it. Its homomorphisms are the pairs of the predicate's rows
    that agree at `shared` and differ at `at`.
    """
    if len(cq.atoms) != 2 or len(cq.inequalities) != 1:
        return None
    first, second = cq.atoms
    if first.predicate != second.predicate or len(first.terms) != len(second.terms):
        return None
    terms = first.terms + second.terms
    if not all(isinstance(t, Var) for t in (*terms, *cq.inequalities[0])):
        return None
    names = [t.name for t in terms]
    shared = []
    for p, (a, b) in enumerate(zip(first.terms, second.terms)):
        if a == b and names.count(a.name) == 2:
            shared.append(p)
        elif names.count(a.name) != 1 or names.count(b.name) != 1:
            return None
    left, right = cq.inequalities[0]
    i, j = names.index(left.name), names.index(right.name)
    if abs(i - j) != len(first.terms):
        return None
    return first.predicate, tuple(shared), i % len(first.terms)


def _key_groups(rows: tuple[Row, ...], shared: tuple[int, ...]) -> list[list[Row]]:
    """The rows that agree at the positions `shared` with some other row,
    grouped by their values there, each group in tid order."""
    if not shared:
        return [list(rows)] if len(rows) > 1 else []
    key = itemgetter(*shared)
    first: dict[object, Row] = {}
    groups: dict[object, list[Row]] = {}
    for row in rows:
        k = key(row[1])
        other = first.setdefault(k, row)
        if other is not row:
            groups.setdefault(k, [other]).append(row)
    return list(groups.values())


def _fd_images(
    inst: Instance, cq: CQ, shape: tuple[str, tuple[int, ...], int]
) -> Iterator[frozenset[int]]:
    """The tid sets of the homomorphisms of cq, a DC body of `_fd_shape`
    `shape`, each once: every two rows of one key group (`_key_groups`)
    that differ at the inequality's position."""
    _check_arities(inst, cq)
    predicate, shared, at = shape
    for group in _key_groups(inst.rows_of(predicate), shared):
        by_value: dict[str, list[int]] = {}
        for _, args, tid, _ in group:
            by_value.setdefault(args[at], []).append(tid)
        classes = list(by_value.values())
        for i, tids in enumerate(classes):
            for others in classes[i + 1 :]:
                for t in tids:
                    for u in others:
                        yield frozenset((t, u))


def violations(inst: Instance, cs: ConstraintSet) -> list[ViolationEdge]:
    """Ground witnesses of inconsistency, one edge per homomorphism image.

    An image maps each constraint atom to a fact; its edge is the set of
    image tids, so a self-join image collapsing two atoms onto one tuple
    yields a smaller edge. Edges are deduplicated per constraint and sorted
    by (sorted tids, constraint index). A DC of the shape of an FD
    (`_fd_shape`) is grounded by the key groups of its predicate's rows
    (`_fd_images`), any other by the join (`_solutions`): the same edges,
    and the same errors.
    """
    seen: set[tuple[frozenset[int], int]] = set()
    edges: list[ViolationEdge] = []
    for index, dc in enumerate(cs.dcs):
        shape = _fd_shape(dc.body)
        if shape is None:
            solutions = _solutions(inst, dc.body)
            images = (frozenset([row[2] for row in p]) for _, p in solutions)
        else:
            images = _fd_images(inst, dc.body, shape)
        for tids in images:
            key = (tids, index)
            if key not in seen:
                seen.add(key)
                edges.append(ViolationEdge(tids, index))
    edges.sort(key=lambda e: (tuple(sorted(e.tids)), e.constraint_index))
    return edges
