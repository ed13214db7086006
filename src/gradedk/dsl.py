"""The input language: declarations of fields, groups, algebras, modules,
followed by commands.

    # the running example
    A = matrix(Q, [0,1,2,2,3])
    k0(A)
    dade(regrade_mod(matrix(Q, [0,1]), 2))

    B = groupalg(Q, Z2)
    T = poly(B, deg=[1,1])     # adjoin a variable; a longer degree vector
    theorem1(T)                # prepends a fresh Z coordinate

Statements are newline-separated (newlines inside brackets do not end a
statement); ``#`` starts a comment.  Scalars are integers or fractions
``a/b``; built-in names are ``Q``, ``F<p>``, ``Z``, ``Z<n>``, ``Z^m`` and
``trivial``.  Homogeneous idempotent entries in ``proj`` are coefficient
lists over the canonical component basis (printable via the ``basis``
command), with ``0`` for a zero entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


class ParseError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# tokens
# ---------------------------------------------------------------------------

_PUNCT = "()[],=^"


@dataclass
class Token:
    kind: str  # NAME, INT, FRAC, PUNCT, NEWLINE, EOF
    text: str
    line: int
    col: int


def tokenize(text: str) -> List[Token]:
    toks = []
    line = 1
    col = 1
    i = 0
    n = len(text)
    depth = 0
    while i < n:
        c = text[i]
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "\n":
            if depth == 0:
                toks.append(Token("NEWLINE", "\n", line, col))
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c in _PUNCT:
            if c in "([":
                depth += 1
            elif c in ")]":
                depth -= 1
            toks.append(Token("PUNCT", c, line, col))
            i += 1
            col += 1
            continue
        if c.isdigit() or (c == "-" and i + 1 < n and text[i + 1].isdigit()):
            start = i
            scol = col
            i += 1
            col += 1
            while i < n and text[i].isdigit():
                i += 1
                col += 1
            num = text[start:i]
            if i < n and text[i] == "/" and i + 1 < n and (
                text[i + 1].isdigit() or (text[i + 1] == "-" and i + 2 < n and text[i + 2].isdigit())
            ):
                i += 1
                col += 1
                dstart = i
                if text[i] == "-":
                    i += 1
                    col += 1
                while i < n and text[i].isdigit():
                    i += 1
                    col += 1
                toks.append(Token("FRAC", num + "/" + text[dstart:i], line, scol))
            else:
                toks.append(Token("INT", num, line, scol))
            continue
        if c.isalpha() or c == "_":
            start = i
            scol = col
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
                col += 1
            toks.append(Token("NAME", text[start:i], line, scol))
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(Token("EOF", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass
class Node:
    pass


@dataclass
class Num(Node):
    value: int


@dataclass
class Frac(Node):
    num: int
    den: int


@dataclass
class Ref(Node):
    name: str
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass
class ListExpr(Node):
    items: tuple


@dataclass
class Call(Node):
    name: str
    args: tuple
    kwargs: tuple  # ((key, value), ...)
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass
class GroupPower(Node):
    base: str
    exponent: int


@dataclass
class Decl(Node):
    name: str
    expr: Node
    line: int = field(default=0, compare=False)


@dataclass
class Command(Node):
    call: Call


@dataclass
class Script(Node):
    statements: tuple


COMMAND_NAMES = {
    "k0",
    "dade",
    "quillen",
    "theorem1",
    "corollary",
    "lemma",
    "swan",
    "filtration",
    "basis",
}


class _Parser:
    def __init__(self, toks: List[Token]):
        self.toks = toks
        self.i = 0

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind, text=None) -> Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {t.text!r}", t.line, t.col)
        return self.next()

    def skip_newlines(self):
        while self.peek().kind == "NEWLINE":
            self.next()

    def parse_script(self) -> Script:
        stmts = []
        self.skip_newlines()
        while self.peek().kind != "EOF":
            stmts.append(self.parse_statement())
            t = self.peek()
            if t.kind == "NEWLINE":
                self.skip_newlines()
            elif t.kind != "EOF":
                raise ParseError(f"unexpected {t.text!r} after statement", t.line, t.col)
        return Script(tuple(stmts))

    def parse_statement(self) -> Node:
        t = self.peek()
        if t.kind != "NAME":
            raise ParseError(f"statement must start with a name, found {t.text!r}", t.line, t.col)
        nxt = self.toks[self.i + 1]
        if nxt.kind == "PUNCT" and nxt.text == "=":
            name = self.next().text
            self.next()  # '='
            expr = self.parse_value()
            return Decl(name, expr, line=t.line)
        call = self.parse_value()
        if not isinstance(call, Call):
            raise ParseError("expected a command call", t.line, t.col)
        if call.name not in COMMAND_NAMES:
            raise ParseError(
                f"unknown command {call.name!r} (commands: {', '.join(sorted(COMMAND_NAMES))})",
                t.line,
                t.col,
            )
        return Command(call)

    def parse_value(self) -> Node:
        t = self.peek()
        if t.kind == "INT":
            self.next()
            return Num(int(t.text))
        if t.kind == "FRAC":
            self.next()
            a, b = t.text.split("/")
            if not int(b):
                raise ParseError(f"zero denominator in {t.text}", t.line, t.col)
            return Frac(int(a), int(b))
        if t.kind == "PUNCT" and t.text == "[":
            return self.parse_list()
        if t.kind == "NAME":
            self.next()
            nxt = self.peek()
            if nxt.kind == "PUNCT" and nxt.text == "(":
                return self.parse_call(t)
            if nxt.kind == "PUNCT" and nxt.text == "^":
                self.next()
                e = self.expect("INT")
                return GroupPower(t.text, int(e.text))
            return Ref(t.text, line=t.line, col=t.col)
        raise ParseError(f"unexpected {t.text!r}", t.line, t.col)

    def parse_list(self) -> ListExpr:
        self.expect("PUNCT", "[")
        items = []
        if not (self.peek().kind == "PUNCT" and self.peek().text == "]"):
            items.append(self.parse_value())
            while self.peek().kind == "PUNCT" and self.peek().text == ",":
                self.next()
                items.append(self.parse_value())
        self.expect("PUNCT", "]")
        return ListExpr(tuple(items))

    def parse_call(self, name_tok: Token) -> Call:
        self.expect("PUNCT", "(")
        args = []
        kwargs = []
        if not (self.peek().kind == "PUNCT" and self.peek().text == ")"):
            self._parse_arg(args, kwargs)
            while self.peek().kind == "PUNCT" and self.peek().text == ",":
                self.next()
                self._parse_arg(args, kwargs)
        self.expect("PUNCT", ")")
        return Call(name_tok.text, tuple(args), tuple(kwargs), line=name_tok.line, col=name_tok.col)

    def _parse_arg(self, args, kwargs):
        t = self.peek()
        if t.kind == "NAME":
            nxt = self.toks[self.i + 1]
            if nxt.kind == "PUNCT" and nxt.text == "=":
                key = self.next().text
                self.next()
                kwargs.append((key, self.parse_value()))
                return
        if kwargs:
            raise ParseError("positional argument after keyword argument", t.line, t.col)
        args.append(self.parse_value())


def parse(text: str) -> Script:
    return _Parser(tokenize(text)).parse_script()


# ---------------------------------------------------------------------------
# pretty printer (round-trips through parse)
# ---------------------------------------------------------------------------


def unparse(node: Node) -> str:
    if isinstance(node, Script):
        return "\n".join(unparse(s) for s in node.statements) + ("\n" if node.statements else "")
    if isinstance(node, Decl):
        return f"{node.name} = {unparse(node.expr)}"
    if isinstance(node, Command):
        return unparse(node.call)
    if isinstance(node, Call):
        parts = [unparse(a) for a in node.args]
        parts += [f"{k}={unparse(v)}" for k, v in node.kwargs]
        return f"{node.name}({', '.join(parts)})"
    if isinstance(node, ListExpr):
        return "[" + ", ".join(unparse(i) for i in node.items) + "]"
    if isinstance(node, Ref):
        return node.name
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Frac):
        return f"{node.num}/{node.den}"
    if isinstance(node, GroupPower):
        return f"{node.base}^{node.exponent}"
    raise TypeError(f"cannot unparse {node!r}")
