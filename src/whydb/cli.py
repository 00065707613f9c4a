"""Command-line front end. Output is byte-deterministic for fixed inputs.

Exit status: 0 on success, 1 on domain errors (irreparable instances,
precondition failures, oracle mismatches), when an answer is too large for
memory, and when stdout's reader closes it early, 2 on usage and parse
errors.

Every subcommand is one row of `_COMMANDS`. `main` builds its parser once
per process, on first use, and parses every argv with it: argparse keeps
no state between parses, so `main` may be called again and again. It
loads `--db` and calls the row's handler, which returns its output in the
format asked for: the fields of the `{"schema": 1, ...}` JSON document, or
the lines of text. `main` prints it and maps errors to exit codes. It
writes a JSON document in pieces (`_json_pieces`), not as one string, and
the bytes are those of `json.dumps(doc, indent=2)`; the handler has built
the whole document before the first piece, so an error prints nothing on
stdout. Handlers reach the library through this module's global names at
call time, so a caller may rebind them (the benchmark's tracer does).

Handlers return listed fact sets as tid sets of a fact table
(`_FactTable`), which renders a fact the first time it is printed: a
`_FactSets` (a list of sets) or a `_Repair` (a repair's deleted facts and
the rest). A listed set is cut out of text joined once. A repair costs one
sort and one join of its deleted facts; its retained facts are one join of
the slices between them of every fact's text, joined once per format. A
cause's contingency set is two slices of its S-repair difference
(`CauseReport._differences`), joined once however many causes hold it. A
repair's text line and its JSON object are each one f-string. The JSON
writer writes a piece per document field, and a non-empty list field, or
list of fact sets, as its key, a piece per item and its closing bracket:
one piece per repair, per cause with all its contingency sets, and per
contingency set of `contingency`, made as it is written.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from itertools import accumulate, count
from json.encoder import encode_basestring_ascii
from operator import add
from pathlib import Path
from typing import Callable, Iterator, Sequence

from ._version import __version__
from .asp import AspDialect, CausalityOptions, emit_causality_program, emit_repair_program
from .causality import (
    actual_causes,
    causes_under_ics,
    contingency_sets,
    counterfactual_causes,
    most_responsible_causes,
    responsibility,
)
from .core import load_instance
from .errors import ParseError, WhydbError
from .oracle import GUARD, brute_causes, brute_causes_from_repairs, brute_repairs
from .query import answers, eval_bcq, negate_query, parse_constraints, parse_query
from .repair import c_repairs, parse_hard_constraints, s_repairs


class _UsageError(Exception):
    """Arguments that argparse accepts but the command cannot use (exit 2)."""


class _Mismatch(Exception):
    """oracle-check disagrees with the oracle: print `output`, exit 1."""

    def __init__(self, output):
        super().__init__()
        self.output = output


def _read_file(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _has_query(args) -> bool:
    return args.q is not None or args.query_file is not None


def _query(args):
    return parse_query(args.q if args.q is not None else _read_file(args.query_file))


def _constraints(args, inst):
    return parse_constraints(_read_file(args.constraints), inst)


def _hard(args):
    return parse_hard_constraints(_read_file(args.hard)) if args.hard else []


def _causes(inst, q, hard):
    return causes_under_ics(inst, q, hard) if hard else actual_causes(inst, q)


class _Memo(dict):
    """`memo[key]` is `make(key)`, made the first time it is asked for."""

    __slots__ = ("_make",)

    def __init__(self, make: Callable):
        super().__init__()
        self._make = make

    def __missing__(self, key):
        value = self[key] = self._make(key)
        return value


class _FactTable:
    """One command's facts by tid: `text[tid]` renders a fact the first time
    it is printed, and `json[tid]` encodes that text as a JSON string the
    first time it is written. So each fact is rendered at most once, and
    only if it is printed. Handlers hand tid sets to the writer as the two
    fact values of the table, `_FactSets` and `_Repair`.

    A listed set is cut out of text joined once. A repair's retained facts
    are the slices of every fact's text, joined once per separator, between
    its deleted facts (`split`). A cause's contingency set is its S-repair
    difference, joined once per separator, less the cause: two slices of
    that text (`cuts`)."""

    def __init__(self, inst):
        self._inst = inst
        self.text = _Memo(lambda tid: inst.fact(tid).render())
        self.json = _Memo(lambda tid: encode_basestring_ascii(self.text[tid]))
        self._rows: dict[str, tuple[str, dict[int, int], dict[int, int]]] = {}
        self._cuts: dict[str, _Memo] = {}

    def split(self, deleted, texts: _Memo, sep: str) -> tuple[str, str]:
        """The texts of the facts `deleted`, and of every other fact, each in
        tid order and joined by `sep`: one sort, one join, and one join of
        the k+1 slices of every fact's text, each followed by `sep`, that
        lie around the k deleted ones, less the last `sep`."""
        order = sorted(deleted)
        if sep not in self._rows:
            tids = [f.tid for f in self._inst.facts]
            every = [texts[tid] for tid in tids]
            starts = list(accumulate((len(t) + len(sep) for t in every), initial=0))
            self._rows[sep] = (
                sep.join(every) + sep,
                dict(zip(tids, starts)),
                dict(zip(tids, starts[1:])),
            )
        joined, starts, stops = self._rows[sep]
        lefts = [0, *map(stops.__getitem__, order)]
        rights = [*map(starts.__getitem__, order), len(joined)]
        kept = "".join(map(joined.__getitem__, map(slice, lefts, rights)))
        return sep.join(map(texts.__getitem__, order)), kept[: -len(sep)]

    def cuts(self, texts: _Memo, start: str, sep: str, end: str) -> _Memo:
        """`cuts[d]` is `(whole, order, at)` for a tid set `d`: `whole` is
        the texts of its facts in tid order, joined by `sep` between `start`
        and `end` (or just the brackets, if `d` is empty), and `order` its
        sorted tids. Without `order[i]` the text is `whole[:at[i] - n] +
        whole[at[i + 1] - n:]`, where `n` is `len(sep)` if `i` else 0. Each
        set is joined once per separator, however many causes print it."""
        if sep not in self._cuts:
            self._cuts[sep] = _Memo(lambda d: _joined(d, texts, start, sep, end))
        return self._cuts[sep]


def _joined(d, texts: _Memo, start: str, sep: str, end: str) -> tuple:
    """The value of `_FactTable.cuts(texts, start, sep, end)[d]`."""
    order = tuple(sorted(d))
    items = list(map(texts.__getitem__, order))
    whole = start + sep.join(items) + end if items else start[0] + end[-1]
    if len(items) <= 1:  # without its one fact, the set is its brackets
        return whole, order, (1, len(whole) - 1)
    # at[i] is where the i-th text starts, and at[k] one separator past the
    # last: the first text is cut out with the separator after it, any
    # other with the separator before it.
    n = len(sep)
    ends = accumulate(map(len, items))
    return whole, order, (len(start), *map(add, ends, count(len(start) + n, n)))


def _json_list(items: str, newline: str) -> str:
    """A JSON list as `json.dumps(indent=2)` writes it, from the JSON texts
    of its items joined by `"," + newline + "  "`; `newline` is the line
    break and indent before its closing bracket."""
    return "[" + newline + "  " + items + newline + "]" if items else "[]"


class _Repair:
    """One repair, written by `_json` as the JSON object `{"deleted": [...],
    "retained": [...]}`: the facts with the given tids, and every other
    fact of the instance, each in tid order (`_FactTable.split`)."""

    __slots__ = ("deleted", "table")

    def __init__(self, deleted, table: _FactTable):
        self.deleted = deleted
        self.table = table

    def json(self, newline: str) -> str:
        inner = newline + "  "
        items = inner + "  "
        cut, kept = self.table.split(self.deleted, self.table.json, "," + items)
        cut = f"[{items}{cut}{inner}]" if cut else "[]"
        kept = f"[{items}{kept}{inner}]" if kept else "[]"
        return f'{{{inner}"deleted": {cut},{inner}"retained": {kept}{newline}}}'


class _FactSets:
    """A list of tid sets, each printed as its facts in tid order: in
    braces, one text per set, when iterated, and as a JSON list of lists of
    strings by `_json`, or one list per piece by `_json_pieces`. Each set is
    joined once (`_FactTable.cuts`) and printed less the tid `without`, as
    two slices of that text: a cause's contingency sets are its S-repair
    differences less the cause. A set without the tid, as every set when
    `without` is None, prints whole. The texts are made one by one."""

    __slots__ = ("sets", "table", "without")

    def __init__(self, sets, table: _FactTable, without: int | None = None):
        self.sets = sets
        self.table = table
        self.without = without

    def _texts(self, texts: _Memo, start: str, sep: str, end: str) -> Iterator[str]:
        """Each set's text, joined by `sep` between `start` and `end`."""
        cuts, t, n = self.table.cuts(texts, start, sep, end), self.without, len(sep)
        for g in self.sets:
            whole, order, at = cuts[g]
            if t in g:
                i = order.index(t)
                shift = n if i else 0
                whole = whole[: at[i] - shift] + whole[at[i + 1] - shift :]
            yield whole

    def __iter__(self) -> Iterator[str]:
        return self._texts(self.table.text, "{", ", ", "}")

    def json_items(self, newline: str) -> Iterator[str]:
        """Each set's JSON list; `newline` is the line break and indent
        before its closing bracket."""
        items = newline + "  "
        return self._texts(self.table.json, "[" + items, "," + items, newline + "]")

    def json(self, newline: str) -> str:
        inner = newline + "  "
        return _json_list(("," + inner).join(self.json_items(inner)), newline)


_FACT_VALUES = (_FactSets, _Repair)


def _rho_json(value):
    if value == 0:
        return 0
    return {"num": value.numerator, "den": value.denominator}


def _cmd_repairs(args, inst):
    cs = _constraints(args, inst)
    reps = (c_repairs if args.kind == "c" else s_repairs)(inst, cs, _hard(args))
    facts = _FactTable(inst)
    if args.format == "json":
        return {"kind": args.kind, "repairs": [_Repair(r.deleted, facts) for r in reps]}
    # a repair retains every fact it does not delete
    split = (facts.split(r.deleted, facts.text, ", ") for r in reps)
    return (
        f"{args.kind}-repair {i}: deleted {{{cut}}} retained {{{kept}}}"
        for i, (cut, kept) in enumerate(split, start=1)
    )


def _cmd_causes(args, inst):
    reports = _causes(inst, _query(args), _hard(args))
    facts = _FactTable(inst)

    def sets(r):  # each contingency set is a difference without the cause
        return _FactSets(r._differences, facts, r.tid)

    if args.format == "json":
        return {
            "causes": [
                {
                    "tid": r.tid,
                    "atom": inst.fact(r.tid).atom_text(),
                    "responsibility": _rho_json(r.responsibility),
                    "counterfactual": r.is_counterfactual,
                    "most_responsible": r.is_most_responsible,
                    "contingency_sets": sets(r),
                }
                for r in reports
            ]
        }
    return (
        f"{facts.text[r.tid]}: responsibility={r.responsibility} "
        f"counterfactual={'yes' if r.is_counterfactual else 'no'} "
        f"most-responsible={'yes' if r.is_most_responsible else 'no'} "
        "contingency-sets=["
        + ", ".join(sets(r))
        + "]"
        for r in reports
    )


def _cmd_contingency(args, inst):
    sets = _FactSets(contingency_sets(inst, _query(args), args.tid), _FactTable(inst))
    if args.format == "json":
        return {
            "tid": args.tid,
            "atom": inst.fact(args.tid).atom_text(),
            "contingency_sets": sets,
        }
    return sets


def _cmd_responsibility(args, inst):
    value = responsibility(inst, _query(args), args.tid)
    if args.format == "json":
        return {
            "tid": args.tid,
            "atom": inst.fact(args.tid).atom_text(),
            "responsibility": _rho_json(value),
        }
    return [f"responsibility({inst.fact(args.tid).render()}) = {value}"]


def _fact_list(args, inst, key: str, tids):
    """One fact per line, or the facts as the JSON field `key`."""
    facts = [inst.fact(tid).render() for tid in sorted(tids)]
    return {key: facts} if args.format == "json" else facts


def _cmd_counterfactual(args, inst):
    tids = counterfactual_causes(inst, _query(args))
    return _fact_list(args, inst, "counterfactual_causes", tids)


def _cmd_most_responsible(args, inst):
    tids = most_responsible_causes(inst, _query(args))
    return _fact_list(args, inst, "most_responsible_causes", tids)


def _cmd_query(args, inst):
    q = _query(args)
    if q.is_boolean:
        value = eval_bcq(inst, q)
        if args.format == "json":
            return {"boolean": True, "value": value}
        return ["true" if value else "false"]
    rows = sorted(answers(inst, q))
    if args.format == "json":
        return {"boolean": False, "answers": [list(r) for r in rows]}
    return ["(" + ",".join(row) + ")" for row in rows]


def _cmd_emit_asp(args, inst):
    dialect = AspDialect(args.dialect.replace("-", "_"))
    if _has_query(args):
        opts = CausalityOptions(
            cause_rules=not args.no_cause_rules,
            contingency_union=args.contingency_union,
            responsibility_rules=args.responsibility_rules,
            weak_constraints=args.weak_constraints,
            hard_constraints=tuple(_hard(args)),
        )
        program = emit_causality_program(inst, _query(args), dialect, opts)
    else:
        program = emit_repair_program(inst, _constraints(args, inst), dialect)
    if args.format == "json":
        return {
            "dialect": program.dialect.value,
            "predicate_map": dict(sorted(program.predicate_map.items())),
            "program": program.text,
        }
    return [program.text[:-1]]  # the text ends in a newline; print adds it back


def _deleted(reps) -> list[tuple[int, ...]]:
    return sorted(tuple(sorted(r.deleted)) for r in reps)


def _cause_keys(reports) -> list:
    return [(r.tid, r.responsibility, r.minimal_contingency_sets) for r in reports]


def _oracle_guard() -> int:
    """The oracle's size guard from WHYDB_ORACLE_GUARD, GUARD if unset. A
    larger value is passed on as it is: the oracle caps it at GUARD."""
    guard = os.environ.get("WHYDB_ORACLE_GUARD", str(GUARD))
    if not (guard.isascii() and guard.isdigit()):
        raise _UsageError(
            f"WHYDB_ORACLE_GUARD must be a non-negative integer, not {guard!r}"
        )
    return int(guard)


def _cmd_oracle_check(args, inst):
    hard = tuple(_hard(args))
    guard = _oracle_guard()
    checks = []  # (name, the main path's result, the oracle's result)
    constraint_sets = [_constraints(args, inst)] if args.constraints else []
    q = _query(args) if _has_query(args) else None
    if q is not None:
        constraint_sets.append(negate_query(q))
    for cs in constraint_sets:
        expected = brute_repairs(inst, cs, hard, guard)
        got_s, got_c = s_repairs(inst, cs, hard), c_repairs(inst, cs, hard)
        checks.append(("s-repairs", _deleted(got_s), _deleted(expected)))
        c_expected = (r for r in expected if r.c_repair)
        checks.append(("c-repairs", _deleted(got_c), _deleted(c_expected)))
    if q is not None:
        reports = _causes(inst, q, hard)
        expected = (
            brute_causes_from_repairs(inst, q, hard, guard)
            if hard
            else brute_causes(inst, q, guard)
        )
        checks.append(("causes", _cause_keys(reports), _cause_keys(expected)))

    ok = all(got == want for _, got, want in checks)
    if args.format == "json":
        output = {
            "ok": ok,
            "checks": [{"name": name, "ok": got == want} for name, got, want in checks],
        }
    else:
        output = [
            f"{name}: OK"
            if got == want
            else f"{name}: MISMATCH main={got!r} oracle={want!r}"
            for name, got, want in checks
        ]
    if not ok:
        raise _Mismatch(output)
    return output


_HARD = ("--hard", {"help": "hard-constraint file"})
_TID = ("--tid", {"type": int, "required": True})
_FLAG = {"action": "store_true"}
# emit-asp options that only a causality program (one from a query) reads
_CAUSALITY_ONLY = (
    _HARD,
    ("--no-cause-rules", _FLAG),
    ("--contingency-union", _FLAG),
    ("--responsibility-rules", _FLAG),
    ("--weak-constraints", _FLAG),
)
_DIALECTS = sorted(d.value.replace("_", "-") for d in AspDialect)

# name: (help, handler, query: required (True), optional (False) or none,
# further options between --db/query and --format, in help order)
_COMMANDS = {
    "repairs": (
        "enumerate S- or C-repairs",
        _cmd_repairs,
        None,
        (
            ("--constraints", {"required": True, "help": "constraint file"}),
            _HARD,
            ("--kind", {"choices": ["s", "c"], "default": "s"}),
        ),
    ),
    "causes": ("actual causes with responsibilities", _cmd_causes, True, (_HARD,)),
    "contingency": (
        "minimal contingency sets of one tuple", _cmd_contingency, True, (_TID,)
    ),
    "responsibility": (
        "responsibility of one tuple", _cmd_responsibility, True, (_TID,)
    ),
    "counterfactual": ("counterfactual causes", _cmd_counterfactual, True, ()),
    "most-responsible": ("most responsible causes", _cmd_most_responsible, True, ()),
    "query": ("evaluate a query", _cmd_query, True, ()),
    "emit-asp": (
        "emit a repair or causality program",
        _cmd_emit_asp,
        False,
        (
            ("--constraints", {"help": "constraint file (repair program)"}),
            ("--dialect", {"choices": _DIALECTS, "default": "core-disjunctive"}),
            *_CAUSALITY_ONLY,
        ),
    ),
    "oracle-check": (
        "compare against the brute-force oracle",
        _cmd_oracle_check,
        False,
        (("--constraints", {"help": "constraint file"}), _HARD),
    ),
}


class _ArgumentParser(argparse.ArgumentParser):
    def _print_message(self, message, file=None):
        """argparse drops a failed write (Python 3.11 and later), so `--help`
        and `--version` into a stdout whose reader has gone would exit 0
        when stdout is unbuffered. Only a message for stderr is dropped
        here, as `_report` drops one; the rest reaches `main`."""
        if message:
            file = file or sys.stderr
            try:
                file.write(message)
            except OSError:
                if file is not sys.stderr:
                    raise


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="whydb",
        description="Causes, contingency sets and responsibilities for boolean "
        "conjunctive query answers, via database repairs.",
    )
    parser.add_argument("--version", action="version", version=f"whydb {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, query, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--db", required=True, help="fact file")
        if query is not None:
            group = p.add_mutually_exclusive_group(required=query)
            group.add_argument("-q", help="inline query text")
            group.add_argument("--query-file", help="file with query rules")
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.set_defaults(handler=handler)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def _check_sources(args) -> None:
    """Usage errors in the query and constraint arguments and in the oracle
    guard's variable, found before any file is read."""
    if args.command == "emit-asp":
        if _has_query(args) == bool(args.constraints):
            raise _UsageError(
                "emit-asp needs exactly one of a query (-q/--query-file) "
                "or --constraints"
            )
        for flag, _ in _CAUSALITY_ONLY if args.constraints else ():
            if getattr(args, flag[2:].replace("-", "_")):
                raise _UsageError(f"{flag} applies to causality programs only")
    if args.command == "oracle-check":
        if not (args.constraints or _has_query(args)):
            raise _UsageError("oracle-check needs a query or --constraints")
        _oracle_guard()


def _encoded() -> _Memo:
    """Each string's JSON text, as `json.dumps` writes it (ASCII only),
    encoded once: `memo[s]`. A key that is not a string raises TypeError."""
    return _Memo(encode_basestring_ascii)


def _json(value, memo: _Memo, newline: str) -> str:
    """The JSON text of a value that handlers return, as `json.dumps(value,
    indent=2)` writes it: str, int, bool, None, `_FactSets` (as a list of
    lists of its facts' texts), `_Repair` (as the object of its deleted and
    retained facts), and lists and dicts of them with str keys. Any other
    value, a dict key that is not a str included, raises TypeError.
    `newline` is the line break and indent before the value's closing
    bracket."""
    if isinstance(value, str):
        return memo[value]
    if type(value) in _FACT_VALUES:
        return value.json(newline)
    inner = newline + "  "
    if isinstance(value, list):
        try:  # a list of strings, with no test per item
            items = ("," + inner).join(map(memo.__getitem__, value))
        except TypeError:  # an item is not a string
            items = ("," + inner).join([_json(item, memo, inner) for item in value])
        return _json_list(items, newline)
    if isinstance(value, dict):
        if not value:
            return "{}"
        # memo[key] raises TypeError for a key that is not a str
        items = (memo[k] + ": " + _json(v, memo, inner) for k, v in value.items())
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"{type(value).__name__} is not a JSON value here")


def _json_pieces(doc, memo: _Memo) -> Iterator[str]:
    """The text of `json.dumps(doc, indent=2)` in pieces, one per field of
    the document, each with the punctuation before it. A non-empty list
    field, or `_FactSets` field, is its key, one piece per item and its
    closing bracket: one piece per repair, per cause with all its sets, or
    per contingency set, each written as it is made. A value that is not a
    non-empty dict is one piece (`_json`)."""
    if not isinstance(doc, dict) or not doc:
        yield _json(doc, memo, "\n")
        return
    sep = "{\n  "
    for key, value in doc.items():
        head = sep + memo[key] + ": "  # TypeError for a key that is not a str
        sep = ",\n  "
        if isinstance(value, list) and value:
            texts = (_json(item, memo, "\n    ") for item in value)
        elif type(value) is _FactSets and value.sets:
            texts = value.json_items("\n    ")
        else:
            yield head + _json(value, memo, "\n  ")
            continue
        yield head
        items = "[\n    "
        for text in texts:
            yield items + text
            items = ",\n    "
        yield "\n  ]"
    yield "\n}"


def _report(exc: object) -> None:
    """One `error:` line on stderr, or none if stderr's reader has gone too
    (`2>&1 | head`)."""
    try:
        print(f"error: {exc}", file=sys.stderr)
    except BrokenPipeError:
        pass


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        _check_sources(args)
        inst = load_instance(_read_file(args.db))
        try:
            output, code = args.handler(args, inst), 0
        except _Mismatch as exc:
            output, code = exc.output, 1
        if args.format == "json":
            write = sys.stdout.write
            for piece in _json_pieces({"schema": 1, **output}, _encoded()):
                write(piece)
            write("\n")
        else:
            for line in output:
                print(line)
    except SystemExit as exc:  # from argparse: usage errors, --help, --version
        return exc.code if isinstance(exc.code, int) else 2
    except BrokenPipeError as exc:  # a reader has gone: not a usage error
        _report(exc)
        return 1
    except (ParseError, OSError, _UsageError) as exc:
        _report(exc)
        return 2
    except WhydbError as exc:
        _report(exc)
        return 1
    except MemoryError:  # an answer too large to hold, such as a long listing
        _report("out of memory")
        return 1
    return code


def run() -> None:
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        # what is left of the output goes nowhere, so that the interpreter
        # does not fail to flush it again at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.dup2(devnull, sys.stderr.fileno())
        code = code or 1
    sys.exit(code)


if __name__ == "__main__":
    run()
