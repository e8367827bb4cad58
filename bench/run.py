"""The sicfield benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it needs no install, because the
workers put the checkout's src/ on PYTHONPATH. Every workload is a
closed loop of one client, this process, and one single-threaded worker
process at a time, all pinned to one CPU, with BLAS threads capped at
the number of CPUs they may use:

    exact-audit   four CLI commands, each in a fresh interpreter
    expr-stream   seeded expressions through the minpoly command's calls
    search-small  seeded searches to convergence, d = 4..14
    search-large  fixed-budget searches at d = 24, 28, 32

The inputs come from --seed alone (workloads.py). A run sets the worker
up SETUPS times, then repeats the workload's fixed batch at least PASSES
times and until the next batch would end after --seconds, and checks
every output outside the timed spans (checks.py). Every timing is
reported at the host's nominal speed (probe.py), next to its raw value.
With --trace 0 it
reports the end-to-end metrics of BENCHMARK.json; with --trace 1 it
times at least one batch untraced and one traced (tracer.py) and
reports the per-layer metrics. The other lines of output give every
end-to-end number, the input census and the machine and noise record;
bench/out/ keeps the full report and spans. The last line is the JSON
result: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import numpy as np

import checks
import tracer
import workloads
from probe import Probe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden"
OUT = BENCH / "out"
SETUPS = 3
PASSES = 2
COMMAND_TIMEOUT = 150
#: which probe (probe.py) stands for the host's speed on each workload
PROBE_KIND = {"search-large": "numpy"}

#: what each exact-audit command's wall time is reported as
COMMAND_METRICS = ("verify_d4_s", "verify_d4_corrupt_s", "galois_s", "units_s")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Tally:
    """Operations attempted and failed, and why."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[tuple[str, str, str]] = []

    def record(self, label: str, failures: list[tuple[str, str]]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures.extend((label, kind, message) for kind, message in failures)

    @property
    def correct(self) -> bool:
        return all(kind in checks.KNOWN_DEFECTS for _, kind, _ in self.failures)


# -- exact-audit: CLI commands as subprocesses ------------------------------------


class ExactAudit:
    def __init__(self, seed: int, probe: Probe) -> None:
        self.probe = probe
        self.commands = workloads.exact_commands(seed)
        self.census = {"corrupt_pair": list(workloads.corrupt_pair(seed))}
        codes = json.loads((GOLDEN / "exit_codes.json").read_text())
        self.golden = {}
        for args in self.commands:
            name = workloads.golden_name(args)
            self.golden[args] = ((GOLDEN / f"{name}.json").read_bytes(), codes[name])

    def setup(self) -> int:
        """A fresh interpreter's `import sicfield`; returns its probe item."""
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import sicfield"], env=child_env(),
                       check=True, timeout=COMMAND_TIMEOUT)
        return self.probe.mark(time.perf_counter() - t0)

    def batch(self, tally: Tally, trace_dir: Path | None = None) -> dict:
        """The four commands, each marked on the probe."""
        env = child_env()
        cpu0 = children_cpu()
        seconds_list, items, per_command, traces = [], [], {}, []
        for metric, args in zip(COMMAND_METRICS, self.commands):
            if trace_dir is None:
                argv = [sys.executable, "-m", "sicfield.cli", *args]
            else:
                prefix = str(trace_dir / metric.removesuffix("_s"))
                argv = [sys.executable, str(BENCH / "traced_cli.py"), prefix, *args]
            t0 = time.perf_counter()
            proc = subprocess.run(argv, env=env, capture_output=True, timeout=COMMAND_TIMEOUT)
            seconds = time.perf_counter() - t0
            items.append(self.probe.mark(seconds))
            tally.record(" ".join(args), checks.check_cli(proc.stdout, proc.returncode,
                                                          *self.golden[args]))
            seconds_list.append(seconds)
            per_command[metric] = seconds
            if trace_dir is not None:
                with open(prefix + ".json") as handle:
                    traces.append((metric, json.load(handle)))
        return {"wall_s": sum(seconds_list), "cpu_s": children_cpu() - cpu0,
                "ops_ms": [s * 1e3 for s in seconds_list], "rt_s": seconds_list,
                "items": items, "commands": per_command, "traces": traces}


# -- in-process workloads: one worker answering requests ----------------------------


class Worker:
    """A worker process; its set-up time runs from spawn to its ready line."""

    def __init__(self, workload: str, dims: list[int], trace_prefix: str | None = None) -> None:
        argv = [sys.executable, str(BENCH / "worker.py"), workload, json.dumps(dims)]
        if trace_prefix:
            argv.append(trace_prefix)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=child_env(), text=True)
        self._read()
        self.setup_s = time.perf_counter() - t0

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def request(self, message: dict) -> dict:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def finish(self) -> dict:
        final = self.request({"op": "finish"})
        self.proc.stdin.close()
        self.proc.wait(timeout=COMMAND_TIMEOUT)
        return final

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class InProcess:
    def __init__(self, workload: str, seed: int, probe: Probe) -> None:
        self.workload = workload
        self.probe = probe
        if workload == "expr-stream":
            self.items = workloads.expressions(seed)
            self.requests = [{"op": "expr", "text": item["text"]} for item in self.items]
            self.dims: list[int] = []
        else:
            self.items = workloads.search_problems(workload, seed)
            self.requests = [{"op": "search", **item} for item in self.items]
            self.dims = sorted({item["d"] for item in self.items})
        self.verdicts: dict[int, tuple[str, list]] = {}
        self.replies: list[dict] = []

    def check(self, k: int, reply: dict) -> list[tuple[str, str]]:
        """Check one reply; a repeat of an output already checked keeps
        its verdict, so later batches cost no exact arithmetic."""
        if "error" in reply:
            return [("error", reply["error"])]
        key = json.dumps({f: v for f, v in reply.items() if f not in ("ms", "cpu_ms")},
                         sort_keys=True)
        if k in self.verdicts and self.verdicts[k][0] == key:
            return self.verdicts[k][1]
        item = self.items[k]
        if self.workload == "expr-stream":
            failures = checks.check_expression(reply, item["value"], item["degree"])
        else:
            failures = checks.check_search(reply, item["d"])
        self.verdicts[k] = (key, failures)
        return failures

    def batch(self, tally: Tally, worker: Worker) -> dict:
        """One pass over the requests, each round trip marked on the probe."""
        replies, round_trips, items = [], [], []
        for request in self.requests:
            t0 = time.perf_counter()
            replies.append(worker.request(request))
            round_trips.append(time.perf_counter() - t0)
            items.append(self.probe.mark(round_trips[-1]))
        for k, reply in enumerate(replies):
            tally.record(self.requests[k].get("text") or f"d={self.items[k]['d']}",
                         self.check(k, reply))
        self.replies = replies
        iterations = sum(sum(r.get("iterations", [])) for r in replies)
        return {"wall_s": sum(round_trips), "cpu_s": sum(r["cpu_ms"] for r in replies) / 1e3,
                "ops_ms": [r["ms"] for r in replies], "rt_s": round_trips, "items": items,
                "iterations": iterations}

    def census(self, tally: Tally) -> dict:
        if self.workload != "expr-stream":
            return {"problems": [[item["d"], item["seed"], reply.get("iterations")]
                                 for item, reply in zip(self.items, self.replies)],
                    "converged": sum(bool(r.get("converged")) for r in self.replies)}
        histogram: dict[str, int] = {}
        sizes: dict[str, int] = {}
        for item in self.items:
            histogram[str(item["degree"])] = histogram.get(str(item["degree"]), 0) + 1
            size = workloads.size_class(item["bits"])
            sizes[size] = sizes.get(size, 0) + 1
        misses = {label for label, kind, _ in tally.failures if kind == "embed"}
        return {"expressions": len(self.items), "degree_histogram": histogram,
                "size_classes": sizes, "max_coord_bits": max(i["bits"] for i in self.items),
                "embed_misses": len(misses)}


# -- running ------------------------------------------------------------------


def repeat_batches(run_batch, seconds: float, least: int) -> list[dict]:
    """At least `least` whole batches, then more until the next one would
    end after `seconds`."""
    batches: list[dict] = []
    t0 = time.perf_counter()
    while True:
        batches.append(run_batch())
        if (len(batches) >= least
                and time.perf_counter() - t0 + batches[-1]["wall_s"] > seconds):
            return batches


def machine_facts() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": np.__version__,
            "mpmath": mpmath.__version__, "platform": platform.platform()}


def harrell_davis(values: list[float], p: float) -> float:
    """The Harrell-Davis estimate of quantile p: the mean of the order
    statistics weighted by a Beta((n+1)p, (n+1)(1-p)) distribution. It
    moves less from run to run than the one or two order statistics the
    plain estimate reads: over ten seeds on a 2-vCPU Xeon virtual machine
    it left op_p90_ms on expr-stream and search-small about twice as
    steady."""
    ordered, n = sorted(values), len(values)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    cdf = [float(mpmath.betainc(a, b, 0, i / n, regularized=True)) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


def end_to_end(workload: str, setups: list[float], batches: list[dict],
               tally: Tally) -> dict:
    """The end-to-end numbers from one run's timings. Each timing is the
    mean over the run's repeats of the batch: an operation's latency
    (`ops_ms`, timed in the worker or around the CLI command) and the
    batch's wall time (the sum of its round trips, `rt_s`)."""
    ops = [statistics.fmean(times) for times in zip(*(b["ops_ms"] for b in batches))]
    walls = [sum(b["rt_s"]) for b in batches]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.fmean(walls),
        "op_p50_ms": statistics.median(ops),
        "op_p90_ms": harrell_davis(ops, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "fail_ratio": tally.failed / tally.attempted,
    }
    if workload == "exact-audit":
        for metric in ("verify_d4_s", "galois_s", "units_s"):
            k = COMMAND_METRICS.index(metric)
            values[metric] = statistics.fmean(b["rt_s"][k] for b in batches)
    if workload.startswith("search"):
        values["iters_per_s"] = sum(b["iterations"] for b in batches) / sum(walls)
    return values


def at_nominal_speed(probe: Probe, setups: list[int], batches: list[dict]
                     ) -> tuple[list[float], list[dict]]:
    """The run's set-up and batch timings divided by their host factors."""
    return [probe.corrected(k) for k in setups], [
        {"ops_ms": [probe.corrected(k, ms / 1e3) * 1e3 for k, ms in zip(b["items"], b["ops_ms"])],
         "rt_s": [probe.corrected(k, rt) for k, rt in zip(b["items"], b["rt_s"])],
         "iterations": b.get("iterations", 0)}
        for b in batches]


UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
         "peak_rss_mb": "MB", "fail_ratio": "ratio", "verify_d4_s": "s",
         "galois_s": "s", "units_s": "s", "iters_per_s": "1/s"}


def merge_traces(summaries: list[dict]) -> dict:
    spans: dict[str, dict[str, float]] = {}
    for summary in summaries:
        for name, entry in summary["spans"].items():
            into = spans.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for key in into:
                into[key] += entry[key]
    return {"spans": spans,
            "coord_bits_max": max(s["coord_bits_max"] for s in summaries),
            "accepted_steps": sum(s["accepted_steps"] for s in summaries)}


def layer_values(names: list[str], summary: dict, extra: dict) -> dict:
    """Per-layer metric values: `<layer>.self_s` sums a layer's spans,
    `<span>.<calls|self_s|total_s>` reads one span, the rest is in extra."""
    spans = summary["spans"]
    values = {}
    for name in names:
        if name in extra:
            values[name] = extra[name]
            continue
        head, _, key = name.rpartition(".")
        if head in tracer.LAYERS:
            values[name] = sum(entry[key] for span, entry in spans.items()
                               if span.startswith(head + "."))
        else:
            values[name] = spans.get(head, {}).get(key, 0)
    return values


def layer_self(summary: dict) -> dict:
    return {layer: sum(e["self_s"] for s, e in summary["spans"].items()
                       if s.startswith(layer + ".")) for layer in tracer.LAYERS}


def run(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    OUT.mkdir(exist_ok=True)
    # the client and its children share one CPU, so that the probe
    # samples the speed of the CPU the work runs on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    probe = Probe(PROBE_KIND.get(workload, "python"))
    tally = Tally()
    setups: list[int] = []
    report: dict = {"workload": workload, "seed": seed, "seconds": seconds,
                    "trace": trace, "machine": machine_facts(),
                    "loadavg_before": os.getloadavg()}
    if workload == "exact-audit":
        bench = ExactAudit(seed, probe)
        for _ in range(1 if trace else SETUPS):
            setups.append(bench.setup())
        batches = repeat_batches(lambda: bench.batch(tally), seconds / 2 if trace else seconds,
                                 1 if trace else PASSES)
        census = bench.census
        if trace:
            trace_dir = OUT / f"{workload}-spans"
            trace_dir.mkdir(exist_ok=True)
            traced = bench.batch(tally, trace_dir)
            summary = merge_traces([s for _, s in traced["traces"]])
            report["per_command_self_s"] = {
                metric: {"wall_s": traced["commands"][metric], **layer_self(s)}
                for metric, s in traced["traces"]}
    else:
        bench = InProcess(workload, seed, probe)
        worker = None
        try:
            for _ in range(1 if trace else SETUPS):
                if worker:
                    worker.finish()
                worker = Worker(workload, bench.dims)
                setups.append(probe.mark(worker.setup_s))
            batches = repeat_batches(lambda: bench.batch(tally, worker),
                                     seconds / 2 if trace else seconds, 1 if trace else PASSES)
            worker.finish()
            census = bench.census(tally)
            if trace:
                worker = Worker(workload, bench.dims, str(OUT / f"{workload}-spans"))
                traced = bench.batch(tally, worker)
                summary = worker.finish()["trace"]
        finally:
            if worker:
                worker.kill()
    report["loadavg_after"] = os.getloadavg()
    report["census"] = census
    report["setups_s"] = [probe.raw[k] for k in setups]
    report["batches"] = [{k: b[k] for k in ("wall_s", "cpu_s", "ops_ms", "rt_s", "items")}
                         for b in batches]
    report["probe"] = {"kind": probe.kind, "setup_items": setups, "blocks": probe.blocks}
    report["raw"] = end_to_end(workload, report["setups_s"], batches, tally)
    report["end_to_end"] = end_to_end(workload, *at_nominal_speed(probe, setups, batches), tally)
    factors = [probe.factor(k) for k in range(len(probe.raw))]
    report["host_factor"] = {"probe": probe.kind, "mean": statistics.fmean(factors),
                             "min": min(factors), "max": max(factors),
                             "samples": sum(map(len, probe.blocks))}
    report["failures"] = tally.failures[:50]
    if trace:
        replies = bench.replies if workload != "exact-audit" else []
        iterations = [n for r in replies for n in r.get("iterations", [])]
        # untraced batches and the traced one, at the host's nominal speed
        walls = [sum(b["rt_s"]) for b in at_nominal_speed(probe, [], batches + [traced])[1]]
        extra = {
            "tower.coord_bits_max": summary["coord_bits_max"],
            "search.iterations": sum(iterations),
            "search.restarts": len(iterations),
            "search.converged_ratio": (sum(bool(r.get("converged")) for r in replies)
                                       / len(replies) if iterations else 0),
            "search.step_accept_ratio": (
                summary["accepted_steps"]
                / max(1, summary["spans"].get("search.sic_residual", {}).get("calls", 0))),
            "cpu_s": statistics.median(b["cpu_s"] for b in batches),
            "trace.overhead_ratio": walls[-1] / statistics.fmean(walls[:-1]),
        }
        names = [m["name"] for m in spec["per_layer"]]
        report["per_layer"] = layer_values(names, summary, extra)
    report["tally"] = {"correct": tally.correct, "attempted": tally.attempted,
                       "failed": tally.failed}
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sicfield" / "__init__.py").is_file():
        print(f"error: no sicfield sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = run(args.workload, args.seed, args.seconds, bool(args.trace), spec)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = report["per_layer"] if args.trace else report["end_to_end"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("  metric           at nominal speed   raw")
    for name, value in report["end_to_end"].items():
        print(f"  {name:16s} {value:12.6g} {report['raw'][name]:12.6g} {UNITS[name]}")
    if args.trace:
        for item in spec["per_layer"]:
            print(f"  {item['name']:40s} {report['per_layer'][item['name']]:.6g} {item['unit']}")
        for metric, shares in report.get("per_command_self_s", {}).items():
            top = sorted(tracer.LAYERS, key=lambda layer: -shares[layer])[:3]
            print(f"  traced {metric}: wall {shares['wall_s']:.3f} s, self time "
                  + ", ".join(f"{layer} {shares[layer]:.3f} s" for layer in top))
    print("census " + json.dumps(report["census"]))
    print("machine " + json.dumps(report["machine"]))
    noise = {k: report[k] for k in ("loadavg_before", "loadavg_after", "host_factor",
                                    "setups_s")}
    noise["batches"] = [{k: b[k] for k in ("wall_s", "cpu_s")} for b in report["batches"]]
    print("noise " + json.dumps(noise))
    for label, kind, message in report["failures"][:10]:
        print(f"failed [{kind}] {label}: {message}")
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as handle:
        json.dump(report, handle, indent=1, default=str)
    result = dict(report["tally"])
    result["metrics"] = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
                         for m in wanted}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
