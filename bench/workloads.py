"""Seeded inputs for the four workloads.

Every generator takes the run's seed and nothing else, so the same seed
gives the same inputs on every commit. None of them calls the package:
expression values come from the independent reference in field.py, and
the work each candidate input took from the tables that make_tables.py
wrote once.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import field

WORKLOADS = ("exact-audit", "expr-stream", "search-small", "search-large")

CORRUPT_PAIRS = tuple((i, j) for i in range(4) for j in range(4) if (i, j) != (0, 0))

#: search-small: dimensions 4..14, each this many times per batch, drawn
#: from the tabulated problems of search_table.json (make_tables.py)
SMALL_DIMS = tuple(range(4, 15))
SMALL_PER_DIM = 15
SMALL_MAX_ITERATIONS = 100
SMALL_TABLE = Path(__file__).with_name("search_table.json")

#: search-large: LARGE_STARTS random starts per d, each one restart
#: with a fixed iteration budget
LARGE_DIMS = (24, 28, 32)
LARGE_STARTS = 3
LARGE_MAX_ITERATIONS = 40

#: expr-stream: expressions per batch, drawn from the tabulated candidates
#: of expr_table.json (make_tables.py)
EXPR_PER_BATCH = 100
EXPR_TABLE = Path(__file__).with_name("expr_table.json")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def corrupt_pair(seed: int) -> tuple[int, int]:
    return _rng("exact-audit", seed).choice(CORRUPT_PAIRS)


def exact_commands(seed: int) -> list[tuple[str, ...]]:
    i, j = corrupt_pair(seed)
    return [("verify-d4", "--json"), ("verify-d4", "--corrupt", f"{i},{j}", "--json"),
            ("galois", "--json"), ("units", "--json")]


def search_problems(workload: str, seed: int) -> list[dict]:
    """search-small: for each d, the tabulated problems sorted by the
    iterations they took are cut into SMALL_PER_DIM equal strata and one
    problem is drawn from each, so every seed gets the same spread of
    easy and hard problems. search-large: LARGE_STARTS random starts
    per d."""
    rng = _rng(workload, seed)
    if workload == "search-large":
        return [{"d": d, "seed": rng.randrange(2**32), "restarts": 1,
                 "max_iterations": LARGE_MAX_ITERATIONS}
                for d in LARGE_DIMS for _ in range(LARGE_STARTS)]
    table = json.loads(SMALL_TABLE.read_text())
    problems = [{"d": d, "seed": row[0], "max_iterations": SMALL_MAX_ITERATIONS}
                for d in SMALL_DIMS
                for row in _stratified(rng, table[str(d)], lambda r: (r[1], r[0]),
                                       SMALL_PER_DIM)]
    rng.shuffle(problems)
    return problems


# -- expressions ---------------------------------------------------------------

_NAMES = tuple(field.CONSTANTS)
_OPS = {"+": field.add, "-": field.sub, "*": field.mul,
        "/": lambda a, b: field.mul(a, field.inv(b))}


def _leaf(rng):
    if rng.random() < 0.75:
        name = rng.choice(_NAMES)
        return name, field.CONSTANTS[name]
    p, q = rng.randint(1, 9), rng.randint(1, 9)
    # parenthesised so that "3 / (5/6)" cannot parse as the literal 3/5
    return (f"({p}/{q})" if q > 1 else str(p)), field.rational(Fraction(p, q))


def _binop(rng, left, right):
    (lt, lv), (rt, rv) = left, right
    op = rng.choice("+-*/")
    return f"{lt} {op} {rt}", _OPS[op](lv, rv)


def _term(rng):
    text, value = _leaf(rng)
    if rng.random() >= 0.4:
        text, value = _binop(rng, (text, value), _leaf(rng))
        text = f"({text})"
    k = rng.random()
    if k < 0.3:
        return text, value
    e = (rng.randint(2, 6) if k < 0.6 else rng.randint(8, 24) if k < 0.85
         else -rng.randint(1, 6))
    return f"{text}^{e}", field.power(value, e)


def _general(rng):
    return _binop(rng, _term(rng), _term(rng))


def _large(rng):
    """One constant and one rational raised to a large power: the value
    stays in the constant's subfield, so its degree is at most 8."""
    name = rng.choice(_NAMES)
    p, q = rng.randint(1, 9), rng.randint(2, 9)
    op = rng.choice("+-*/")
    base = _OPS[op](field.CONSTANTS[name], field.rational(Fraction(p, q)))
    e = rng.choice((-rng.randint(3, 8), rng.randint(12, 24)))
    return f"({name} {op} ({p}/{q}))^{e}", field.power(base, e)


def candidate(i: int) -> tuple[str, tuple] | None:
    """Expression candidate i as text and reference value, or None when
    it divides by zero."""
    rng = random.Random(f"expr-stream:candidate:{i}")
    try:
        return _large(rng) if rng.random() < 0.15 else _general(rng)
    except ZeroDivisionError:
        return None


def size_class(bits: int) -> str:
    return "small" if bits <= 40 else "medium" if bits < 100 else "large"


def _stratified(rng: random.Random, rows: list, key, k: int) -> list:
    """One row from each of k equal strata of rows sorted by key."""
    rows = sorted(rows, key=key)
    n = len(rows)
    return [rows[rng.randrange(i * n // k, (i + 1) * n // k)] for i in range(k)]


def expressions(seed: int) -> list[dict]:
    """The expr-stream batch. The tabulated candidates, sorted by the time
    they took when tabulated, are cut into EXPR_PER_BATCH equal strata and
    one is drawn from each, so every seed gets the same spread of cheap and
    costly expressions. Each item has the text, the reference value, and
    the degree and coordinate size recorded in the table."""
    rng = _rng("expr-stream", seed)
    rows = json.loads(EXPR_TABLE.read_text())
    out = []
    for i, degree, bits, _ in _stratified(rng, rows, lambda r: (r[3], r[0]), EXPR_PER_BATCH):
        text, value = candidate(i)
        out.append({"text": text, "value": value, "degree": degree, "bits": bits})
    rng.shuffle(out)
    return out


def golden_name(args: tuple[str, ...]) -> str:
    """File stem of a command's golden output: verify-d4_corrupt_1-2."""
    return "_".join(a.lstrip("-").replace(",", "-") for a in args if a != "--json")
