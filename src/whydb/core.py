"""Database instances: ground tuples with identifiers, and the fact-file format.

Fact files are UTF-8 and line oriented. `%` starts a comment. Facts look like
``Pred(c1,...,cn).``, optionally prefixed with ``@exo`` to mark the tuple as
exogenous, and optionally carrying an explicit identifier: ``Pred[7](a,b).``.
Either every fact carries an explicit tid or none does; in the latter case
tids are assigned 1, 2, 3, ... in file order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from ._scan import IDENTIFIER_RE, Scanner
from .errors import ParseError, UnknownTidError

# Constants are opaque symbols; they may not contain separators the fact
# grammar needs (commas, parentheses, whitespace) nor the comment character.
_CONSTANT_STOP = set(",() \t\r\n%")


def is_constant(symbol: str) -> bool:
    return bool(symbol) and not any(ch in _CONSTANT_STOP for ch in symbol)


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
            if fact.tid in by_tid:
                raise _FactError(f"duplicate tid {fact.tid}", index)
            if fact.key in keys:
                raise _FactError(f"duplicate fact {fact.atom_text()}", index)
            known = arities.setdefault(fact.predicate, len(fact.args))
            if known != len(fact.args):
                raise _FactError(
                    f"arity clash for {fact.predicate}: {known} vs {len(fact.args)}",
                    index,
                )
            by_tid[fact.tid] = fact
            keys.add(fact.key)
        ordered = tuple(sorted(by_tid.values(), key=lambda f: f.tid))
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

    def predicates(self) -> tuple[str, ...]:
        return tuple(sorted(self._arities))

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


def _read_constant(sc: Scanner) -> str:
    sc.skip_layout()
    start = sc.pos
    text = sc.text
    i = start
    while i < len(text) and text[i] not in _CONSTANT_STOP:
        i += 1
    if i == start:
        raise sc.error("expected a constant")
    sc.advance(i - start)
    return text[start:i]


def load_instance(text: str) -> Instance:
    """Parse a fact file into an Instance.

    Errors (all reported with line/column): syntax, duplicate facts,
    duplicate or non-positive explicit tids, arity clashes, and files that
    mix explicit-tid facts with implicit ones.
    """
    sc = Scanner(text)
    facts: list[tuple[bool, str, int | None, tuple[str, ...]]] = []
    positions: list[tuple[int, int]] = []
    while True:
        sc.skip_layout()
        if sc.eof():
            break
        line, col = sc.line, sc.col
        exogenous = sc.try_token("@exo")
        predicate = sc.read_identifier("predicate name")
        tid = None
        if sc.try_token("["):
            tid = sc.read_int("tuple identifier")
            if tid < 1:
                raise ParseError("tids must be positive", line=line, column=col)
            sc.expect("]")
        sc.expect("(")
        args = [_read_constant(sc)]
        while sc.try_token(","):
            args.append(_read_constant(sc))
        sc.expect(")")
        sc.expect(".")
        facts.append((exogenous, predicate, tid, tuple(args)))
        positions.append((line, col))

    implicit = [i for i, fact in enumerate(facts) if fact[2] is None]
    if implicit and len(implicit) != len(facts):
        line, col = positions[implicit[0]]
        raise ParseError(
            "mixed tid modes: every fact must carry an explicit tid or none may",
            line=line,
            column=col,
        )
    try:
        return Instance(
            Fact(predicate, args, i + 1 if tid is None else tid, exogenous)
            for i, (exogenous, predicate, tid, args) in enumerate(facts)
        )
    except _FactError as exc:
        line, col = positions[exc.index]
        raise ParseError(str(exc), line=line, column=col) from None


def dump_instance(inst: Instance) -> str:
    return inst.to_text()
