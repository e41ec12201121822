"""Parsing and printing of algebra elements.

Grammar (whitespace between tokens is ignored):

    relation := expr '=' expr
    expr     := ['-'] term (('+' | '-') term)*
    term     := factor (('*' | '/') factor)*
    factor   := base ['^' ['-'] integer]
    base     := name | integer | '(' expr ')'

The product sign is mandatory between factors.  ``q`` and ``i`` always denote
the deformation parameter and the imaginary unit, ``parse_rule`` may name more
scalar constants, and every other name must be a generator of the presentation
in scope.  Negative powers and division are only defined for scalar-valued
subexpressions, so printed coefficients like ``q^-1`` read back in.  Parsing
produces free elements; nothing is rewritten.  Nesting too deep for the
interpreter's recursion limit is an ``ExprSyntaxError``.
"""

from __future__ import annotations

from typing import List, Mapping, NamedTuple, Optional

from .algebra import _MINUS_ONE, Element, Presentation, RuleError
from .scalar import I, ONE, Q, ScalarQ


class ExprSyntaxError(ValueError):
    """Malformed expression; ``position`` is the byte offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UnknownSymbolError(ValueError):
    """Expression uses a name that is not a generator in scope."""

    def __init__(self, name: str, position: int):
        super().__init__(f"unknown symbol {name!r} (at offset {position})")
        self.name = name
        self.position = position


class _Token(NamedTuple):
    kind: str  # NAME, INT, OP, END
    text: str
    pos: int


def _tokenize(text: str) -> List[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("NAME", text[i:j], i))
            i = j
            continue
        if ch.isdecimal():
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(_Token("INT", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^()=":
            tokens.append(_Token("OP", ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("END", "", n))
    return tokens


_CONSTANTS = {"q": Q, "i": I}


class _Parser:
    def __init__(self, text: str, presentation: Optional[Presentation], scalars=None):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.presentation = presentation
        self.constants = {**_CONSTANTS, **scalars} if scalars else _CONSTANTS

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def integer(self) -> int:
        tok = self.advance()
        if tok.kind != "INT":
            raise ExprSyntaxError("expected an integer exponent", tok.pos)
        try:
            return int(tok.text)
        except ValueError:  # more digits than int() reads
            raise ExprSyntaxError(f"{len(tok.text)}-digit integer too long", tok.pos) from None

    def accept_op(self, *ops: str) -> Optional[_Token]:
        tok = self.peek()
        if tok.kind == "OP" and tok.text in ops:
            return self.advance()
        return None

    def parse(self) -> Element:
        value = self.side()
        self.end()
        return value

    def relation(self) -> tuple[Element, Element]:
        lhs = self.side()
        if self.accept_op("=") is None:
            raise ExprSyntaxError("expected '='", self.peek().pos)
        rhs = self.side()
        self.end()
        return lhs, rhs

    def side(self) -> Element:
        tok = self.peek()
        if tok.kind == "END":
            raise ExprSyntaxError("empty expression", tok.pos)
        try:
            return self.expr()
        except RecursionError:
            raise ExprSyntaxError("expression nested too deeply", self.peek().pos) from None

    def end(self) -> None:
        tok = self.peek()
        if tok.kind != "END":
            raise ExprSyntaxError(f"unexpected {tok.text!r}", tok.pos)

    def expr(self) -> Element:
        negate = self.accept_op("-") is not None
        value = self.term()
        if negate:
            value = -value
        while True:
            tok = self.accept_op("+", "-")
            if tok is None:
                return value
            rhs = self.term()
            value = value + rhs if tok.text == "+" else value - rhs

    def term(self) -> Element:
        value = self.factor()
        while True:
            tok = self.accept_op("*", "/")
            if tok is None:
                return value
            rhs = self.factor()
            if tok.text == "*":
                value = value * rhs
            else:
                if not rhs.is_scalar():
                    raise ExprSyntaxError("division by a non-scalar", tok.pos)
                divisor = rhs.scalar_part()
                if divisor.is_zero():
                    raise ExprSyntaxError("division by zero", tok.pos)
                value = value.scale(divisor ** -1)

    def factor(self) -> Element:
        value = self.base()
        caret = self.accept_op("^")
        if caret is None:
            return value
        sign = -1 if self.accept_op("-") else 1
        exponent = sign * self.integer()
        if exponent < 0 and not value.is_scalar():
            raise ExprSyntaxError("negative power of a non-scalar", caret.pos)
        return value ** exponent

    def base(self) -> Element:
        tok = self.peek()
        if tok.kind == "INT":
            return Element.scalar(self.integer())
        if tok.kind == "NAME":
            self.advance()
            if tok.text in self.constants:
                return Element.scalar(self.constants[tok.text])
            if self.presentation is not None and self.presentation.has_generator(tok.text):
                return Element.generator(tok.text)
            raise UnknownSymbolError(tok.text, tok.pos)
        if tok.kind == "OP" and tok.text == "(":
            self.advance()
            value = self.expr()
            if not self.accept_op(")"):
                inner = self.peek()
                raise ExprSyntaxError("expected ')'", inner.pos)
            return value
        raise ExprSyntaxError(f"expected a name, number or '(', got {tok.text!r}", tok.pos)


def parse_element(text: str, presentation: Presentation) -> Element:
    """Parse an expression over the presentation's generators (free, unreduced)."""
    return _Parser(text, presentation).parse()


def parse_relation(text: str, presentation: Presentation) -> tuple[Element, Element]:
    """Parse ``lhs = rhs`` into both sides (free, unreduced)."""
    return _Parser(text, presentation).relation()


def parse_rule(
    text: str, presentation: Presentation, scalars: Optional[Mapping[str, ScalarQ]] = None
) -> tuple[tuple, Element]:
    """Parse ``lhs = rhs`` into a rewrite rule (lhs word, rhs element).

    ``scalars`` names further scalar constants, on top of q and i, for this
    call only.  The left side must be one word with factor 1; otherwise
    RuleError.
    """
    lhs, rhs = _Parser(text, presentation, scalars).relation()
    if lhs.term_count() != 1:
        raise RuleError("rule left side must be one word")
    ((w, coeff),) = lhs.items()
    if coeff != ONE:
        raise RuleError("rule left side must have factor 1")
    return w, rhs


def parse_scalar(text: str) -> ScalarQ:
    """Parse a pure scalar expression in q and i."""
    value = _Parser(text, None).parse()
    if not value.is_scalar():
        raise ExprSyntaxError("expected a scalar expression", 0)
    return value.scalar_part()


# -- printing ------------------------------------------------------------------


def _scalar_product_str(c: ScalarQ) -> str:
    """String for a coefficient standing left of '*', parenthesised when the
    rendering has a top-level additive join."""
    s = str(c)
    depth = 0
    for idx, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and idx > 0 and s[idx - 1] != "^":
            return f"({s})"
    return s


def _word_str(word) -> str:
    parts = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        parts.append(word[i] if j - i == 1 else f"{word[i]}^{j - i}")
        i = j
    return "*".join(parts)


def format_element(element: Element, presentation: Optional[Presentation] = None) -> str:
    """Canonical rendering; ``parse_element`` reads the result back verbatim."""
    if element.is_zero():
        return "0"
    rendered = []
    for word, coeff in element.sorted_terms(presentation):
        if not word:
            rendered.append(str(coeff))
        elif coeff is ONE:  # scalars are interned: identity is equality
            rendered.append(_word_str(word))
        elif coeff is _MINUS_ONE:
            rendered.append("-" + _word_str(word))
        else:
            rendered.append(f"{_scalar_product_str(coeff)}*{_word_str(word)}")
    out = rendered[0]
    for part in rendered[1:]:
        if part.startswith("-"):
            out += f" - {part[1:]}"
        else:
            out += f" + {part}"
    return out
