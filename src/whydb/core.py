"""Database instances: ground tuples with identifiers, and the fact-file format.

Fact files are UTF-8. `%` starts a comment that runs to the end of the line.
Facts look like ``Pred(c1,...,cn).``, optionally prefixed with ``@exo`` to
mark the tuple as exogenous, and optionally carrying an explicit identifier:
``Pred[7](a,b).``. Whitespace and comments may stand between any two tokens,
so a fact may span lines and a line may hold several facts.
Either every fact carries an explicit tid or none does; in the latter case
tids are assigned 1, 2, 3, ... in file order.

`load_instance` reads all statements in one `findall` pass of one pattern
with three branches: a statement with no layout inside it, any other fact
statement, and the rest of the text from the first statement both reject,
which goes to the token reader `_read_fact` for its error. Each match starts
where the last one ended. The pattern has checked the facts it builds, so
they skip `Fact.__post_init__`; a `Fact(...)` built in Python is still
checked. Statement offsets are found only for an error, by scanning again.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Mapping

from ._scan import IDENTIFIER_RE, INT_RE, LAYOUT_RE, Scanner
from .errors import ParseError, UnknownTidError

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
# A fact statement with no layout inside it, and the layout after it. It
# accepts a subset of what `_FACT_RE` accepts, reads its fields alike (its
# argument group is constants and commas alone) and ends at the same offset,
# so a statement may be read by either.
_COMPACT_RE = re.compile(
    rf"(@exo )?({IDENTIFIER_RE.pattern})(?:\[({INT_RE.pattern})\])?"
    rf"\(({_C}(?:,{_C})*)\)\.{_L}"
)
# Every statement in file order, one row of `findall` each: `_COMPACT_RE`,
# then `_FACT_RE`, then the rest of the text from the first statement both
# reject. One of the three matches wherever a statement starts, so each
# match starts where the last one ended and the pass is linear; the rest
# branch ends it at the first rejected statement, where a plain `_FACT_RE`
# search would retry at every later offset of malformed text.
_STATEMENTS_RE = re.compile(rf"{_COMPACT_RE.pattern}|{_FACT_RE.pattern}|([\s\S]+)")
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
        self._build(by_tid)

    def _build(self, by_tid: dict[int, Fact]) -> "Instance":
        """Fill the slots from facts that are already checked, by tid: the
        checks of `__init__`, or those of the instance a part is taken from.
        Returns the instance."""
        ordered = tuple([by_tid[tid] for tid in sorted(by_tid)])
        by_pred: dict[str, list[Fact]] = {}
        for fact in ordered:
            by_pred.setdefault(fact.predicate, []).append(fact)
        self._facts = ordered
        self._by_tid = by_tid
        self._by_pred = {p: tuple(fs) for p, fs in by_pred.items()}
        # in tid order, too
        self._arities = {p: len(fs[0].args) for p, fs in by_pred.items()}
        self._tids = frozenset(by_tid)
        self._endo = frozenset(t for t, f in by_tid.items() if not f.exogenous)
        return self

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
        part = {f.tid: f for f in self._facts if f.tid in keep}
        return object.__new__(Instance)._build(part)

    def without(self, tids: Iterable[int]) -> "Instance":
        drop = frozenset(tids)
        part = {f.tid: f for f in self._facts if f.tid not in drop}
        return object.__new__(Instance)._build(part)

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


def _constants(args: str) -> list[str]:
    """The constants of a `_FACT_RE` argument group."""
    if _BLANK_RE.search(args) is None:
        return args.split(",")
    return CONSTANT_RE.findall(_COMMENT_RE.sub("", args))


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


def _error_at(sc: Scanner, index: int, message: str) -> ParseError:
    """A ParseError placed at the start of statement `index` (from 0) from
    the cursor on. It scans the statements again: the loader keeps no
    offsets, as a file without errors needs none."""
    statement = next(islice(_STATEMENTS_RE.finditer(sc.text, sc.pos), index, None))
    return sc.error(message, at=statement.start())


def load_instance(text: str) -> Instance:
    """Parse a fact file into an Instance.

    Errors (all reported with line/column): syntax, duplicate facts,
    duplicate or non-positive explicit tids, arity clashes, and files that
    mix explicit-tid facts with implicit ones.
    """
    sc = Scanner(text)
    # The patterns have checked every field, so the facts skip
    # `__post_init__`. Each field is set on its own, so that the facts share
    # their `__dict__` keys as those built by `Fact(...)` do.
    new, set_field = object.__new__, object.__setattr__
    facts: list[Fact] = []
    append = facts.append
    implicit = 0
    for number, (
        exogenous, predicate, tid, args, full_exo, full_pred, full_tid, full_args, rest
    ) in enumerate(_STATEMENTS_RE.findall(text, sc.pos), 1):
        if predicate:
            args = args.split(",")
        elif full_pred:
            exogenous, predicate, tid = full_exo, full_pred, full_tid
            args = _constants(full_args)
        else:
            start = sc.pos = len(text) - len(rest)
            _read_fact(sc)
            raise AssertionError(f"_FACT_RE rejects the fact at offset {start}")
        if tid:
            tid = int(tid)
            if tid < 1:
                raise _error_at(sc, number - 1, "tids must be positive")
        else:
            tid = number
            implicit += 1
        fact = new(Fact)
        set_field(fact, "predicate", predicate)
        set_field(fact, "args", tuple(args))
        set_field(fact, "tid", tid)
        set_field(fact, "exogenous", exogenous != "")
        append(fact)

    if implicit and implicit != len(facts):
        rows = _STATEMENTS_RE.findall(text, sc.pos)
        # a row's tid is its item 2 (compact) or 6 (laid out), "" if implicit
        first = next(i for i, row in enumerate(rows) if not (row[2] or row[6]))
        mixed = "mixed tid modes: every fact must carry an explicit tid or none may"
        raise _error_at(sc, first, mixed)
    try:
        return Instance(facts)
    except _FactError as exc:
        raise _error_at(sc, exc.index, str(exc)) from None


def dump_instance(inst: Instance) -> str:
    return inst.to_text()
