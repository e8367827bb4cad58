"""What the benchmark in bench/ relies on, read from bench/ itself.

bench/tracer.py wraps a fixed list of package names, and the expr-stream
workload draws its expressions from bench/expr_table.json. A change that
deletes a traced name, or that makes the evaluator refuse a benchmark
expression, fails here instead of in a benchmark run.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

from sicfield.expressions import evaluate_expression

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("tracer"), importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))


def test_every_traced_attribute_resolves(bench_modules):
    tracer, _ = bench_modules
    missing = []
    for layer, ops in tracer.TARGETS.items():
        module = importlib.import_module(f"sicfield.{layer}")
        for attrs in ops.values():
            for attr in attrs:
                owner_name, _, member = attr.rpartition(".")
                if owner_name:
                    # the tracer patches the method in the class's own dict
                    owner = getattr(module, owner_name, None)
                    found = owner is not None and member in vars(owner)
                else:
                    found = callable(getattr(module, member, None))
                if not found:
                    missing.append(f"sicfield.{layer}.{attr}")
    assert tracer.TARGETS
    assert missing == []


def test_no_benchmark_expression_is_refused(bench_modules):
    _, workloads = bench_modules
    rows = json.loads((BENCH / "expr_table.json").read_text())
    assert len(rows) == 600
    for index, *_ in rows:
        text, _ = workloads.candidate(index)
        evaluate_expression(text)
