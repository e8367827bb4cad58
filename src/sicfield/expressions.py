"""A tiny expression language over the tower field.

Grammar, with the usual precedence (power binds tightest, then unary
minus as part of the atom rule, then * and /, then + and -):

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := atom ("^" int)?
    atom   := int ("/" int)? | name | "(" expr ")" | "-" atom

An integer followed by "/" and another integer is a single rational
literal, so 1/2 is the number one half while 1/u is a division. Names
come from the fixed vocabulary of field constants. Parentheses and
unary minus nest at most MAX_NESTING deep. An integer with more digits
than one below 2**MAX_VALUE_BITS can have is refused when it is parsed,
leading zeros of any script not counting, and evaluation refuses any
literal, power or operation whose value would need more than
MAX_VALUE_BITS bits.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

from .tower import CONSTANT_NAMES, FieldElement, constant

__all__ = [
    "ExpressionError",
    "Literal",
    "Name",
    "Unary",
    "BinOp",
    "Pow",
    "parse_expression",
    "evaluate_expression",
]

#: deepest nesting of "(" and unary "-" the parser accepts; each level
#: costs a few stack frames here and in evaluation
MAX_NESTING = 100

#: largest numerator or denominator, in bits, that evaluation builds; with
#: integer coordinates of this size the minimal polynomial takes about
#: 0.12-0.23 s at degree 8 and 1.7-2.8 s at degree 16, and the inverse,
#: the norm taken down the tower, 0.05-0.09 s and 0.3-0.4 s (2-core VM,
#: Python 3.11); at half this size each takes 17-46 % as long
MAX_VALUE_BITS = 8192


class ExpressionError(ValueError):
    """Parse failure, carrying the character (not byte) offset of the problem."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


@dataclass(frozen=True)
class Literal:
    value: Fraction


@dataclass(frozen=True)
class Name:
    name: str


@dataclass(frozen=True)
class Unary:
    operand: Node


@dataclass(frozen=True, eq=False)
class BinOp:
    op: str
    left: Node
    right: Node

    # a chain a + b + ... nests to the left; compare and hash it with a
    # loop so that its length costs no stack depth
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinOp):
            return NotImplemented
        a, b = self, other
        while isinstance(a, BinOp) and isinstance(b, BinOp):
            if a is b:
                return True
            if a.op != b.op or a.right != b.right:
                return False
            a, b = a.left, b.left
        return a == b

    def __hash__(self) -> int:
        chain = _left_chain(self)
        value = hash(chain[-1].left)
        for link in reversed(chain):
            value = hash((value, link.op, link.right))
        return value


@dataclass(frozen=True)
class Pow:
    base: Node
    exponent: int


Node = Union[Literal, Name, Unary, BinOp, Pow]


def _left_chain(node: BinOp) -> list[BinOp]:
    """node and its BinOp left descendants, outermost first."""
    chain = []
    while isinstance(node, BinOp):
        chain.append(node)
        node = node.left
    return chain


_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()])|(?P<bad>\S))"
)

#: most significant digits an integer below 2**MAX_VALUE_BITS can have
_MAX_DIGITS = math.ceil(MAX_VALUE_BITS * math.log10(2))


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        token = (kind, match[kind], match.start(kind))
        if kind == "bad":
            raise ExpressionError(f"unexpected character {token[1]!r}", token[2])
        tokens.append(token)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0

    def peek(self, ahead: int = 0) -> tuple[str, str, int]:
        return self.tokens[min(self.index + ahead, len(self.tokens) - 1)]

    def take(self, kind: str, texts: str = "") -> str | None:
        """The next token's text, consumed, when the token is of this kind
        and, for an operator, one of texts; else None."""
        token = self.tokens[self.index]
        if token[0] != kind or (texts and token[1] not in texts):
            return None
        self.index += 1
        return token[1]

    def integer(self) -> int | None:
        """The next token's value, consumed, when it is an integer; one with
        more significant digits than _MAX_DIGITS is refused before int()."""
        pos = self.tokens[self.index][2]
        text = self.take("int")
        if text and len(text) > _MAX_DIGITS:
            text = text[next((k for k, c in enumerate(text) if int(c)), len(text) - 1):]
            if len(text) > _MAX_DIGITS:
                raise ExpressionError(f"integer of {len(text)} digits exceeds the "
                                      f"{MAX_VALUE_BITS}-bit bound", pos)
        return text and int(text)

    def parse(self) -> Node:
        node = self.chain(self.term, "+-")
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected token {text!r}", pos)
        return node

    def chain(self, operand: Callable[[], Node], ops: str) -> Node:
        node = operand()
        while op := self.take("op", ops):
            node = BinOp(op, node, operand())
        return node

    def term(self) -> Node:
        return self.chain(self.factor, "*/")

    def factor(self) -> Node:
        node = self.atom()
        if self.take("op", "^"):
            sign = -1 if self.take("op", "-") else 1
            pos = self.peek()[2]
            if (exponent := self.integer()) is None:
                raise ExpressionError("expected an integer exponent", pos)
            node = Pow(node, sign * exponent)
        return node

    def atom(self) -> Node:
        _, text, pos = self.peek()
        if self.take("op", "(-"):
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ExpressionError(
                    f"expression nested more than {MAX_NESTING} deep", pos,
                )
            if text == "(":
                node = self.chain(self.term, "+-")
                if not self.take("op", ")"):
                    raise ExpressionError("expected ')'", self.peek()[2])
            else:
                node = Unary(self.atom())
            self.depth -= 1
            return node
        if (value := self.integer()) is not None:
            # a rational literal only when an integer follows the slash
            if self.peek(1)[0] == "int" and self.take("op", "/"):
                denom = self.integer()
                if denom == 0:
                    raise ExpressionError("zero denominator", pos)
                return Literal(Fraction(value, denom))
            return Literal(Fraction(value))
        if self.take("name"):
            if text not in CONSTANT_NAMES:
                known = ", ".join(CONSTANT_NAMES)
                raise ExpressionError(
                    f"unknown name {text!r} (known names: {known})", pos,
                )
            return Name(text)
        raise ExpressionError(
            "expected a number, name, or parenthesized expression", pos,
        )


def parse_expression(text: str) -> Node:
    """Parse the expression language into an AST."""
    return _Parser(text).parse()


def evaluate_expression(expression: str | Node) -> FieldElement:
    """Evaluate source text or an AST to an exact field element."""
    node = parse_expression(expression) if isinstance(expression, str) else expression
    return _evaluate(node)


_OPERATORS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
}


def _checked(value: FieldElement) -> FieldElement:
    """value, refused when a numerator or its denominator needs more than
    MAX_VALUE_BITS bits."""
    bits = max(n.bit_length() for n in (*value.nums, value.den))
    if bits > MAX_VALUE_BITS:
        raise ValueError(f"value of {bits} bits exceeds the {MAX_VALUE_BITS}-bit bound")
    return value


def _evaluate(node: Node) -> FieldElement:
    if isinstance(node, Literal):
        return _checked(FieldElement.from_rational(node.value))
    if isinstance(node, Name):
        return constant(node.name)
    if isinstance(node, Unary):
        return -_evaluate(node.operand)
    if isinstance(node, Pow):
        # square-and-multiply with every product checked, so a base whose
        # powers grow is refused after a few dozen products however long
        # the exponent, and a root of unity takes one squaring per bit
        base, n = _evaluate(node.base), node.exponent
        if n < 0:
            base, n = _checked(base.inverse()), -n
        value = FieldElement.one()
        while n:
            if n & 1:
                value = _checked(value * base)
            n >>= 1
            if n:
                base = _checked(base * base)
        return value
    if isinstance(node, BinOp):
        chain = _left_chain(node)
        value = _evaluate(chain[-1].left)
        for link in reversed(chain):
            value = _checked(_OPERATORS[link.op](value, _evaluate(link.right)))
        return value
    raise TypeError(f"not an expression node: {node!r}")

