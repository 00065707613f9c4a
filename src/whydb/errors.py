"""Exception types shared across the package, and the search nesting budget."""

import sys


class WhydbError(Exception):
    """Base class for every error raised by whydb."""


class ParseError(WhydbError):
    """Malformed input text: fact files, rule files, constraint files."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None and column is not None:
            message = f"{message} (line {line}, column {column})"
        elif line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)


class SafetyError(ParseError):
    """A rule uses a variable that occurs in no relational atom."""


class ArityMismatchError(WhydbError):
    """A query or constraint atom disagrees with the arity used elsewhere."""


class UnknownTidError(WhydbError):
    """A tuple identifier that does not occur in the instance."""


class OpenQueryError(WhydbError):
    """A boolean query was required but the query has free variables."""


class IrreparableError(WhydbError):
    """Some ground violation consists of exogenous tuples only, so no
    deletion of endogenous tuples can restore consistency."""


class PreconditionError(WhydbError):
    """An operation precondition does not hold for the given inputs."""


class EmitError(WhydbError):
    """The program emitter cannot produce well-formed output, e.g. because
    predicate names collide under the nickname scheme."""


class BudgetExceededError(WhydbError):
    """A search outgrew what whydb can run to the end: a repair search nested
    deeper than Python's recursion limit, or more sets than a list holds."""


def _nesting_budget(search, what: str):
    """The items of a recursive search; nesting deeper than the recursion
    limit raises BudgetExceededError: `what` needs more nested steps."""
    try:
        yield from search
    except RecursionError:
        raise BudgetExceededError(
            f"{what} needs more nested steps than the recursion limit "
            f"({sys.getrecursionlimit()}) allows"
        ) from None


class OracleGuardError(WhydbError):
    """The instance exceeds the size guard of the brute-force oracle."""
