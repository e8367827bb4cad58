"""Tabulate the candidate inputs that expr-stream and search-small draw from.

    python3 bench/make_tables.py search|expr

Run from the root of a checkout. Each table records how much work every
candidate took at the commit where it was made; a run sorts the table by
that work, cuts it into equal strata and draws one input from each, so
that every seed gets the same mix of cheap and costly inputs. The inputs
themselves are fixed data, whatever a later commit does to their cost.

search: for each dimension of search-small and rng_seed 0..299, the
iterations and restarts one search took with the workload's cap, in
bench/search_table.json as [rng_seed, iterations, restarts, converged].

expr: candidates 0, 1, ... of workloads.candidate until EXPR_CANDIDATES
are kept, in bench/expr_table.json as [index, degree, bits, ms], ms being
the median of three timings of the calls the workload makes, each at the
host's nominal speed (probe.py), so that the strata follow the cost and
not the host's speed when the table was made. Left out are
candidates that divide by zero, have coordinates over 400 bits, or have
degree 16 with coordinates over 40 bits, because one of those costs
seconds, and every other candidate of degree 8.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path

import field
import workloads
from probe import Probe

BENCH = Path(__file__).resolve().parent
SEARCH_SEEDS = 300
EXPR_CANDIDATES = 600
EXPR_MAX_BITS = 400
EXPR_MAX_BITS_DEGREE_16 = 40


def search_table() -> dict:
    from sicfield import SearchConfig, search

    table = {}
    for d in workloads.SMALL_DIMS:
        table[str(d)] = rows = []
        for rng_seed in range(SEARCH_SEEDS):
            result = search(SearchConfig(dimension=d, rng_seed=rng_seed,
                                         max_iterations=workloads.SMALL_MAX_ITERATIONS))
            rows.append([rng_seed, sum(r.iterations for r in result.restarts),
                         len(result.restarts), result.converged])
        print(f"d={d}: {sum(r[1] for r in rows)} iterations", flush=True)
    return table


def expr_table() -> list:
    import sicfield

    # as in run.py: the probe samples the CPU the work runs on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    probe = Probe("python")

    def timed(text: str) -> float:
        t0 = time.perf_counter()
        elem = sicfield.evaluate_expression(text)
        sicfield.minimal_polynomial(elem)
        sicfield.is_unit(elem)
        sicfield.embed(elem)
        return probe.corrected(probe.mark(time.perf_counter() - t0)) * 1e3

    rows = []
    i = -1
    while len(rows) < EXPR_CANDIDATES:
        i += 1
        made = workloads.candidate(i)
        if made is None:
            continue
        text, value = made
        bits = field.bits(value)
        if bits > EXPR_MAX_BITS:
            continue
        degree = field.degree(value)
        if degree == 16 and bits > EXPR_MAX_BITS_DEGREE_16:
            continue
        # every other degree-8 candidate is skipped, which puts degree 16 at
        # about 15% of the table, so that op_p90_ms falls inside the degree-16
        # group instead of in the gap between it and degree 8
        if degree == 8 and i % 2:
            continue
        rows.append([i, degree, bits, round(statistics.median(timed(text) for _ in range(3)), 3)])
        if len(rows) % 100 == 0:
            print(f"{len(rows)} expressions from {i + 1} candidates", flush=True)
    return rows


def main(which: str) -> int:
    sys.path.insert(0, str(BENCH.parent / "src"))
    if which == "search":
        (BENCH / "search_table.json").write_text(
            json.dumps(search_table(), separators=(",", ":")) + "\n")
    else:
        (BENCH / "expr_table.json").write_text(
            json.dumps(expr_table(), separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
