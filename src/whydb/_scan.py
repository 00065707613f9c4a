"""Cursor over input text, shared by the parsers.

The cursor is a character offset into the text. It always rests on a token
or at the end of the text: `Scanner.advance` moves it past a consumed token
and the layout after it. A caller that matches a whole statement with its own
pattern, ending in `LAYOUT_RE`, may set the cursor to that match's end. Line
and column are worked out from an offset only when an error is reported.
"""

from __future__ import annotations

import re
from typing import Iterator

from .errors import ParseError

IDENTIFIER_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
INT_RE = re.compile(r"\d+")
# Layout: whitespace, and `%` comments that run to the end of the line. Any
# layout matches this in one way only (one blank per round, each comment
# whole), so a larger pattern built on it that fails backtracks in linear
# time. `[ \t\r\n]+` in place of `[ \t\r\n]` would split a run of n blanks
# in 2^(n-1) ways; Python 3.10 has no possessive or atomic form to stop that.
LAYOUT_RE = re.compile(r"(?:[ \t\r\n]|%[^\n]*(?![^\n]))*")


class Scanner:
    __slots__ = ("text", "pos")

    def __init__(self, text: str):
        self.text = text
        self.advance(0)

    def advance(self, end: int) -> None:
        """Consume the text up to offset `end` and the layout after it."""
        self.pos = LAYOUT_RE.match(self.text, end).end()

    def statements(self) -> Iterator[int]:
        """Each statement's start offset, until the end of the text; the
        caller reads one statement before taking the next."""
        while self.pos < len(self.text):
            yield self.pos

    def lookahead_after_layout(self, offset: int = 0) -> str:
        """First non-layout character at or after pos+offset, without consuming."""
        i = LAYOUT_RE.match(self.text, self.pos + offset).end()
        return self.text[i : i + 1]

    def error(
        self, message: str, at: int | None = None, kind: type[ParseError] = ParseError
    ) -> ParseError:
        """A `kind` error placed at offset `at` (default: the cursor). Lines
        are counted by `\\n`; every other character is one column."""
        at = self.pos if at is None else at
        line = self.text.count("\n", 0, at) + 1
        return kind(message, line=line, column=at - self.text.rfind("\n", 0, at))

    def expect(self, token: str) -> None:
        if not self.try_token(token):
            raise self.error(f"expected {token!r}")

    def try_token(self, token: str) -> bool:
        if self.text.startswith(token, self.pos):
            self.advance(self.pos + len(token))
            return True
        return False

    def read(self, pattern: re.Pattern, what: str) -> str:
        """Consume a match of `pattern` or raise `expected <what>`."""
        m = pattern.match(self.text, self.pos)
        if not m:
            raise self.error(f"expected {what}")
        self.advance(m.end())
        return m.group()

    def read_identifier(self, what: str) -> str:
        return self.read(IDENTIFIER_RE, what)

    def read_int(self, what: str) -> int:
        return int(self.read(INT_RE, what))
