"""Command-line front end. Output is byte-deterministic for fixed inputs.

Exit status: 0 on success, 1 on domain errors (irreparable instances,
precondition failures, oracle mismatches) and when stdout's reader closes
it early, 2 on usage and parse errors.

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
Handlers render each fact once and only if printed: through a memo of their
own (`_texts`), or, in `repairs`, which prints every fact, all at once.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from json.encoder import encode_basestring_ascii
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


def _texts(inst) -> Callable[[int], str]:
    """A memo of rendered facts by tid, one per command: each fact is
    rendered at most once, and only when it is printed."""
    return cache(lambda tid: inst.fact(tid).render())


def _facts(text, tids) -> list[str]:
    return [text(t) for t in sorted(tids)]


def _fact_set(text, tids) -> str:
    return "{" + ", ".join(_facts(text, tids)) + "}"


def _rho_json(value):
    if value == 0:
        return 0
    return {"num": value.numerator, "den": value.denominator}


def _split(rendered: list[str], index: dict[int, int], deleted) -> tuple[list, list]:
    """The rendered facts that `deleted` holds and those it does not, each in
    tid order: `rendered` is every fact's text in tid order, and `index`
    maps a tid to its place there."""
    at = [index[tid] for tid in sorted(deleted)]
    kept = rendered.copy()
    for i in reversed(at):
        del kept[i]
    return [rendered[i] for i in at], kept


def _cmd_repairs(args, inst):
    cs = _constraints(args, inst)
    reps = (c_repairs if args.kind == "c" else s_repairs)(inst, cs, _hard(args))
    # Each repair prints every fact, deleted or retained (its retained set is
    # the instance less its deleted set), so all are rendered once, up front.
    rendered = [f.render() for f in inst.facts] if reps else []
    index = {f.tid: i for i, f in enumerate(inst.facts)}
    split = (_split(rendered, index, r.deleted) for r in reps)
    if args.format == "json":
        return {
            "kind": args.kind,
            "repairs": [{"deleted": cut, "retained": kept} for cut, kept in split],
        }
    return (
        f"{args.kind}-repair {i}: deleted {{{', '.join(cut)}}} "
        f"retained {{{', '.join(kept)}}}"
        for i, (cut, kept) in enumerate(split, start=1)
    )


def _cmd_causes(args, inst):
    q = _query(args)
    hard = _hard(args)
    reports = causes_under_ics(inst, q, hard) if hard else actual_causes(inst, q)
    text = _texts(inst)
    if args.format == "json":
        return {
            "causes": [
                {
                    "tid": r.tid,
                    "atom": inst.fact(r.tid).atom_text(),
                    "responsibility": _rho_json(r.responsibility),
                    "counterfactual": r.is_counterfactual,
                    "most_responsible": r.is_most_responsible,
                    "contingency_sets": [
                        _facts(text, g) for g in r.minimal_contingency_sets
                    ],
                }
                for r in reports
            ]
        }
    return (
        f"{text(r.tid)}: responsibility={r.responsibility} "
        f"counterfactual={'yes' if r.is_counterfactual else 'no'} "
        f"most-responsible={'yes' if r.is_most_responsible else 'no'} "
        "contingency-sets=["
        + ", ".join(_fact_set(text, g) for g in r.minimal_contingency_sets)
        + "]"
        for r in reports
    )


def _cmd_contingency(args, inst):
    sets = contingency_sets(inst, _query(args), args.tid)
    text = _texts(inst)
    if args.format == "json":
        return {
            "tid": args.tid,
            "atom": inst.fact(args.tid).atom_text(),
            "contingency_sets": [_facts(text, g) for g in sets],
        }
    return [_fact_set(text, g) for g in sets]


def _cmd_responsibility(args, inst):
    value = responsibility(inst, _query(args), args.tid)
    if args.format == "json":
        return {
            "tid": args.tid,
            "atom": inst.fact(args.tid).atom_text(),
            "responsibility": _rho_json(value),
        }
    return [f"responsibility({inst.fact(args.tid).render()}) = {value}"]


def _tid_list(args, inst, key: str, tids):
    facts = _facts(_texts(inst), tids)
    return {key: facts} if args.format == "json" else facts


def _cmd_counterfactual(args, inst):
    tids = counterfactual_causes(inst, _query(args))
    return _tid_list(args, inst, "counterfactual_causes", tids)


def _cmd_most_responsible(args, inst):
    tids = most_responsible_causes(inst, _query(args))
    return _tid_list(args, inst, "most_responsible_causes", tids)


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
        reports = causes_under_ics(inst, q, hard) if hard else actual_causes(inst, q)
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
            _HARD,
            ("--no-cause-rules", _FLAG),
            ("--contingency-union", _FLAG),
            ("--responsibility-rules", _FLAG),
            ("--weak-constraints", _FLAG),
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
        if args.constraints and args.hard:
            raise _UsageError("--hard applies to causality programs only")
    if args.command == "oracle-check":
        if not (args.constraints or _has_query(args)):
            raise _UsageError("oracle-check needs a query or --constraints")
        _oracle_guard()


class _Encoded(dict):
    """Each string's JSON text, as `json.dumps` writes it (ASCII only),
    encoded once: `memo[s]`. A key that is not a string raises TypeError."""

    def __missing__(self, s):
        text = self[s] = encode_basestring_ascii(s)
        return text


def _flat(value, memo: _Encoded, newline: str) -> str | None:
    """The JSON text of a scalar or of a list of strings, as one piece;
    None for a non-empty dict or a list holding another kind of item."""
    if isinstance(value, str):
        return memo[value]
    if isinstance(value, list):
        if not value:
            return "[]"
        inner = newline + "  "
        try:  # a list of strings, with no test per item
            items = ("," + inner).join(map(memo.__getitem__, value))
        except TypeError:  # an item is not a string
            return None
        return "[" + inner + items + newline + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, dict):
        return None if value else "{}"
    raise TypeError(f"{type(value).__name__} is not a JSON value here")


def _json_pieces(value, memo: _Encoded, newline: str = "\n") -> Iterator[str]:
    """The text of `json.dumps(value, indent=2)` in pieces, for the values
    that handlers return: str, int, bool, None, and lists and dicts of them
    with str keys. Any other value, a dict key that is not a str included,
    raises TypeError. `newline` is the line break and indent before the
    value's closing bracket. Each scalar or list of strings is in one piece
    with the punctuation before it."""
    text = _flat(value, memo, newline)
    if text is not None:
        yield text
        return
    inner = newline + "  "
    if isinstance(value, list):
        sep, items, close = "[" + inner, (("", item) for item in value), "]"
    else:  # memo[key] raises TypeError for a key that is not a str
        sep, items = "{" + inner, ((memo[k] + ": ", v) for k, v in value.items())
        close = "}"
    for key, item in items:
        text = _flat(item, memo, inner)
        if text is None:
            yield sep + key
            yield from _json_pieces(item, memo, inner)
        else:
            yield sep + key + text
        sep = "," + inner
    yield newline + close


def _report(exc: Exception) -> None:
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
            for piece in _json_pieces({"schema": 1, **output}, _Encoded()):
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
