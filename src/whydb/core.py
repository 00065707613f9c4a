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
where the last one ended. The loader keeps each fact as its row, the tuple
of its fields, and an `Instance` builds a fact's `Fact` only when a caller
first asks for it. The pattern has checked the rows, so those Facts skip
`Fact.__post_init__`; a `Fact(...)` built in Python is still checked.
Statement offsets are found only for an error, by scanning again.
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
# so the Facts of its rows are built without `Fact.__post_init__`.
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


# A fact's fields as a plain tuple in `Fact` field order: (predicate, args,
# tid, exogenous). A row equals, and hashes as, the tuple of its Fact's fields,
# and the hash of a frozen dataclass is the hash of that tuple.
Row = tuple[str, tuple[str, ...], int, bool]


def _new_fact(row: Row) -> Fact:
    """The Fact of a checked row, built without `__post_init__`. Each field
    is set on its own, so that the facts share their `__dict__` keys as those
    built by `Fact(...)` do."""
    fact = object.__new__(Fact)
    predicate, args, tid, exogenous = row
    object.__setattr__(fact, "predicate", predicate)
    object.__setattr__(fact, "args", args)
    object.__setattr__(fact, "tid", tid)
    object.__setattr__(fact, "exogenous", exogenous)
    return fact


def _checked(rows: Iterable[Row]) -> dict[int, Row]:
    """The rows by tid, checked in the order given; raises _FactError at the
    first row that breaks a rule of `Instance`."""
    by_tid: dict[int, Row] = {}
    arities: dict[str, int] = {}
    keys: set[tuple[str, tuple[str, ...]]] = set()
    for index, row in enumerate(rows):
        predicate, args, tid, _ = row
        key, arity = (predicate, args), len(args)
        if tid in by_tid:
            raise _FactError(f"duplicate tid {tid}", index)
        if key in keys:
            raise _FactError(f"duplicate fact {predicate}({','.join(args)})", index)
        known = arities.setdefault(predicate, arity)
        if known != arity:
            raise _FactError(f"arity clash for {predicate}: {known} vs {arity}", index)
        by_tid[tid] = row
        keys.add(key)
    return by_tid


class Instance:
    """An immutable set of facts with pairwise-distinct tids.

    Set semantics hold on (predicate, args); every predicate has one arity.
    The facts are checked in the order given, and the first fact that breaks
    a rule is reported.

    An instance holds each fact as its row, and builds the fact's `Fact`
    the first time `fact`, `facts`, `of_predicate` or iteration asks for it,
    once: every later request gets the same object. The parts `restrict` and
    `without` return share their parent's rows and its built Facts. Readers
    that visit every fact, such as the join, read `rows` and `rows_of`.
    """

    __slots__ = (
        "_rows", "_by_tid", "_by_pred", "_arities", "_tids", "_endo",
        "_built", "_facts", "_of_pred",
    )

    def __init__(self, facts: Iterable[Fact] = ()):
        facts = list(facts)
        by_tid = _checked([(f.predicate, f.args, f.tid, f.exogenous) for f in facts])
        self._build(by_tid, {f.tid: f for f in facts})

    def _build(self, by_tid: dict[int, Row], built: dict[int, Fact]) -> "Instance":
        """Fill the slots from rows that are already checked, by tid: the
        checks of `_checked`, or those of the instance a part is taken from.
        `built` is the store of the Facts built so far, by tid, shared with
        that instance. Returns the instance."""
        rows = tuple([by_tid[tid] for tid in sorted(by_tid)])
        by_pred: dict[str, list[Row]] = {}
        for row in rows:
            by_pred.setdefault(row[0], []).append(row)
        self._rows = rows
        self._by_tid = by_tid
        self._by_pred = {p: tuple(rs) for p, rs in by_pred.items()}
        # in tid order, too
        self._arities = {p: len(rs[0][1]) for p, rs in by_pred.items()}
        self._tids = frozenset(by_tid)
        self._endo = frozenset([t for t, row in by_tid.items() if not row[3]])
        self._built = built
        self._facts: tuple[Fact, ...] | None = None
        self._of_pred: dict[str, tuple[Fact, ...]] = {}
        return self

    def _fact_of(self, row: Row) -> Fact:
        """The Fact of `row`, built on its first request."""
        fact = self._built.get(row[2])
        if fact is None:
            fact = self._built[row[2]] = _new_fact(row)
        return fact

    @property
    def rows(self) -> tuple[Row, ...]:
        """Every fact's row, in tid order."""
        return self._rows

    def rows_of(self, predicate: str) -> tuple[Row, ...]:
        """The rows of the facts of `predicate`, in tid order."""
        return self._by_pred.get(predicate, ())

    @property
    def facts(self) -> tuple[Fact, ...]:
        if self._facts is None:
            self._facts = tuple(map(self._fact_of, self._rows))
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
        facts = self._of_pred.get(predicate)
        if facts is None:
            rows = self._by_pred.get(predicate, ())
            facts = self._of_pred[predicate] = tuple(map(self._fact_of, rows))
        return facts

    def fact(self, tid: int) -> Fact:
        try:
            row = self._by_tid[tid]
        except KeyError:
            raise UnknownTidError(f"no tuple with tid {tid}") from None
        return self._fact_of(row)

    def restrict(self, tids: Iterable[int]) -> "Instance":
        keep = frozenset(tids)
        part = {t: row for t, row in self._by_tid.items() if t in keep}
        return object.__new__(Instance)._build(part, self._built)

    def without(self, tids: Iterable[int]) -> "Instance":
        drop = frozenset(tids)
        part = {t: row for t, row in self._by_tid.items() if t not in drop}
        return object.__new__(Instance)._build(part, self._built)

    def to_text(self) -> str:
        """Serialize back to fact-file form (explicit tids, so reloading
        reproduces the instance exactly)."""
        lines = []
        for predicate, args, tid, exogenous in self._rows:
            prefix = "@exo " if exogenous else ""
            lines.append(f"{prefix}{predicate}[{tid}]({','.join(args)}).")
        return "\n".join(lines) + ("\n" if lines else "")

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self.facts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"Instance({len(self._rows)} facts)"


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
    rows: list[Row] = []
    append = rows.append
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
        append((predicate, tuple(args), tid, exogenous != ""))

    if implicit and implicit != len(rows):
        statements = _STATEMENTS_RE.findall(text, sc.pos)
        # a statement's tid is item 2 (compact) or 6 (laid out), "" if implicit
        first = next(i for i, st in enumerate(statements) if not (st[2] or st[6]))
        mixed = "mixed tid modes: every fact must carry an explicit tid or none may"
        raise _error_at(sc, first, mixed)
    try:
        by_tid = _checked(rows)
    except _FactError as exc:
        raise _error_at(sc, exc.index, str(exc)) from None
    return object.__new__(Instance)._build(by_tid, {})


def dump_instance(inst: Instance) -> str:
    return inst.to_text()
