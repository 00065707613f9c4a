"""What the workload modules share: the operation record, fact files, and
the expected causes of a boolean query given its witnesses."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from hypergraph import is_minimal_contingency, mask, responsibility_denominator
from outputs import CheckError

CHAIN_QUERY = "q :- S(x), R(x,y), S(y)."

Fact = tuple[str, tuple[str, ...]]


@dataclass(frozen=True)
class Op:
    """One CLI command on one generated input.

    `read(stdout, atoms)` turns its stdout into a plain value and records
    the rendered atom of every tid it meets in `atoms`; those must match
    `facts`, the input's facts in tid order. Ops sharing a `group` are the
    text and JSON forms of one command and must read the same. `check`
    raises CheckError when the value is wrong.
    """

    name: str
    argv: tuple[str, ...]
    group: str
    facts: tuple[Fact, ...]
    read: Callable[[str, dict], object]
    check: Callable[[object], None]

    def verify(self, stdout: str, check: bool = True) -> object:
        atoms: dict[int, str] = {}
        value = self.read(stdout, atoms)
        for tid, text in atoms.items():
            expect(1 <= tid <= len(self.facts) and atom_text(self.facts[tid - 1]) == text,
                   f"tid {tid} rendered as {text!r}")
        if check:
            self.check(value)
        return value


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def atom_text(fact: Fact) -> str:
    return f"{fact[0]}({','.join(fact[1])})"


def write_facts(path: Path, facts: list[Fact]) -> None:
    """Facts in file order; whydb numbers them 1, 2, 3, ... in that order."""
    path.write_text("".join(atom_text(f) + ".\n" for f in facts), encoding="utf-8")


class WitnessExpectation:
    """Causes, responsibilities and contingency sets of one boolean query on
    one instance, from its inclusion-minimal witnesses and their minimal
    hitting sets alone."""

    def __init__(self, witnesses, transversals):
        self.witnesses = witnesses
        self.masks = [mask(w) for w in witnesses]
        self.causes = sorted(set().union(*witnesses))
        self.rho = {
            t: Fraction(1, responsibility_denominator(witnesses, t)) for t in self.causes
        }
        self.best = max(self.rho.values())
        self.counterfactual = sorted(frozenset.intersection(*witnesses))
        self.sets = {t: set() for t in self.causes}
        for chosen in transversals:
            for t in chosen:
                self.sets[t].add(chosen - {t})

    def check_sets(self, t: int, sets) -> None:
        expect(len(set(sets)) == len(sets), f"tid {t}: repeated contingency set")
        for gamma in sets:
            expect(is_minimal_contingency(self.masks, t, mask(gamma)),
                   f"tid {t}: {sorted(gamma)} is no minimal contingency set")
        expect(set(sets) == self.sets[t], f"tid {t}: contingency sets differ")

    def check_causes(self, value) -> None:
        expect([c[0] for c in value] == sorted(self.causes, key=lambda t: (-self.rho[t], t)),
               "causes or their order differ")
        for t, rho, cf, mr, sets in value:
            expect(rho == self.rho[t], f"tid {t}: responsibility {rho}, expected {self.rho[t]}")
            expect(cf == (t in self.counterfactual), f"tid {t}: counterfactual flag")
            expect(mr == (rho == self.best), f"tid {t}: most-responsible flag")
            expect(min(len(g) for g in sets) + 1 == 1 / rho, f"tid {t}: smallest set vs responsibility")
            self.check_sets(t, sets)

    def check_responsibility(self, t: int, value) -> None:
        tid, rho = value
        expect(tid == t, f"responsibility reported for tid {tid}, asked {t}")
        expect(rho == self.rho.get(t, 0), f"tid {t}: responsibility {rho}")

    def check_most_responsible(self, value) -> None:
        expect(value == [t for t in self.causes if self.rho[t] == self.best],
               "most responsible causes differ")

    def check_counterfactual(self, value) -> None:
        expect(value == self.counterfactual, "counterfactual causes differ")


def text_and_json(name: str, argv: list[str], facts, read, check) -> list[Op]:
    """The text and the JSON form of one command; `read(stdout, fmt, atoms)`."""
    return [
        Op(f"{name}.{fmt}", tuple(argv + ["--format", fmt]), name, tuple(facts),
           lambda out, atoms, fmt=fmt: read(out, fmt, atoms), check)
        for fmt in ("text", "json")
    ]


def text_only(name: str, argv: list[str], facts, read, check) -> Op:
    """A command run in text form alone; `read(stdout, "text", atoms)`."""
    return Op(f"{name}.text", tuple(argv), name, tuple(facts),
              lambda out, atoms: read(out, "text", atoms), check)
