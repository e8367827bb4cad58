"""The worker process of the in-process workloads.

    python3 bench/worker.py WORKLOAD WARMUP_JSON [TRACE_PREFIX]

It imports sicfield, warms up (named constants, and for the searches the
displacement stack of every dimension in WARMUP_JSON), prints one
`{"ready": true}` line, and then answers one JSON request per line on
stdin with one JSON reply per line on stdout: a closed loop with a
single client. Latency is timed here, around the package calls only.
With TRACE_PREFIX the tracer is installed before the warm-up, and the
final reply carries its summary; the raw spans go to TRACE_PREFIX.tsv.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time

import numpy as np

import sicfield

# calls go through module attributes, so that the tracer's wrappers,
# installed after this import, are the ones called
search_module = importlib.import_module("sicfield.search")


def run_expression(request: dict) -> dict:
    t0, c0 = time.perf_counter(), time.process_time()
    elem = sicfield.evaluate_expression(request["text"])
    result = sicfield.minimal_polynomial(elem)
    unit = sicfield.is_unit(elem)
    z = sicfield.embed(elem)
    ms, cpu_ms = (time.perf_counter() - t0) * 1e3, (time.process_time() - c0) * 1e3
    return {"ms": ms, "cpu_ms": cpu_ms, "coords": [str(c) for c in elem.coords],
            "monic": [str(c) for c in result.monic.coeffs], "degree": result.degree,
            "unit": unit, "embed": [z.real, z.imag]}


def run_search(request: dict) -> dict:
    config = sicfield.SearchConfig(
        dimension=request["d"], rng_seed=request["seed"],
        max_iterations=request["max_iterations"],
        restarts=request.get("restarts", sicfield.SearchConfig.restarts))
    t0, c0 = time.perf_counter(), time.process_time()
    result = sicfield.search(config)
    ms, cpu_ms = (time.perf_counter() - t0) * 1e3, (time.process_time() - c0) * 1e3
    return {"ms": ms, "cpu_ms": cpu_ms, "converged": result.converged,
            "residual": result.residual, "tolerance": config.tolerance,
            "iterations": [r.iterations for r in result.restarts],
            "fiducial": [[z.real, z.imag] for z in result.fiducial]}


def warm_up(workload: str, dims: list[int]) -> None:
    if workload == "expr-stream":
        run_expression({"text": "(u + 1/u)^2 / r"})
        return
    for d in dims:
        psi = np.full(d, 1 / np.sqrt(d), dtype=complex)
        search_module.sic_residual(d, psi)
        search_module.residual_gradient(d, psi)


def main(argv: list[str]) -> None:
    workload, dims = argv[0], json.loads(argv[1])
    trace_prefix = argv[2] if len(argv) > 2 else None
    tracer = None
    if trace_prefix:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    warm_up(workload, dims)
    handler = run_expression if workload == "expr-stream" else run_search
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        if request["op"] != "finish":
            t0 = time.perf_counter()
            try:
                reply = handler(request)
            except Exception as err:  # reported to the client as a failed operation
                reply = {"error": f"{type(err).__name__}: {err}", "cpu_ms": 0.0,
                         "ms": (time.perf_counter() - t0) * 1e3}
            print(json.dumps(reply), flush=True)
            continue
        final = {"rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
        if tracer:
            tracer.uninstall()
            final["trace"] = tracer.summary()
            tracer.save(trace_prefix + ".tsv")
        print(json.dumps(final), flush=True)
        return


if __name__ == "__main__":
    main(sys.argv[1:])
