"""lepart benchmark: seeded CLI requests, replayed in-process, every output checked.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload mc_small --seed 1 --seconds 20 --trace 0

One client in a closed loop sends the workload's request list through
``lepart.cli.main(argv)``, pass after pass, until the next pass would end
after ``--seconds``. A request's latency is its median over passes, so the
latency quantiles are over a fixed set of distinct requests, whatever the
number of passes, and a burst of other work on the machine moves few of them.

A shared host's speed can drift by 1.5x and more between runs of the same
code, so request times are scaled to a fixed machine speed: a reference
kernel whose slowdown matches the workload's (a pure-Python random walk, or
dense log-determinants of a fixed matrix) is timed between consecutive
requests, and each request's wall time is multiplied by ``REF_S`` over the
mean of the kernel times around it. End-to-end times are in these reference-speed
seconds: unit ``ref_s``, and ``s`` for ``setup_s``, whose unit the benchmark
contract fixes. The raw wall times go to the stderr report and the record.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics (per pass over
the request list) with the tracing overhead. The last stdout line is one JSON
object; a readable report goes to stderr and a full record to
``perfbench/out/``.
"""

from __future__ import annotations

import os

# One BLAS thread: with two, dense-solve timings on a 2-core machine spread
# several times wider. Must be set before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from random import Random

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Samples that must lie beyond the reported tail quantile.
TAIL_SAMPLES = 10
SETUP_REPEATS = 5

#: Nominal time of each reference kernel, about its time on a 2-core Xeon
#: development machine at 2.1 GHz; reference-speed seconds are wall seconds
#: at the speed where the kernel takes exactly this long.
REF_S = 0.002
REF_MATRIX = 3.0 * np.eye(250) + 0.01 * np.random.default_rng(0).random((250, 250))
REF_CYCLE = [((v - 1) % 2000, (v + 1) % 2000) for v in range(2000)]


def _lu_kernel() -> float:
    """Wall seconds of log|det| of a fixed, diagonally dominant matrix, 3 times.

    Dense LU on one BLAS thread, cache-resident.
    """
    start = time.perf_counter()
    for _ in range(3):
        np.linalg.slogdet(REF_MATRIX)
    return time.perf_counter() - start


def _walk_kernel() -> float:
    """Wall seconds of a fixed random walk in pure Python, recording next-pointers.

    The kind of work Wilson's algorithm does: draws, list lookups, dict stores.
    """
    start = time.perf_counter()
    draw = Random(5).random
    v, nxt = 0, {}
    for _ in range(11000):
        u = REF_CYCLE[v][int(2 * draw())]
        nxt[v] = u
        v = u
    return time.perf_counter() - start


#: The reference kernel of each workload: the one whose slowdown matched its
#: requests' when the host slowed down. The requests of mc_long_walks slowed
#: like the walk kernel, about 1.1x more than dense LU did; those of mc_small
#: (CLI, estimators, enumeration and numpy besides the walks) and of
#: exact_dense slowed like dense LU.
REFERENCE_KERNEL = {"mc_small": _lu_kernel, "mc_long_walks": _walk_kernel, "exact_dense": _lu_kernel}


def _call(cli, argv) -> tuple[int, str, float]:
    """One request; returns exit code, stdout and wall seconds."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except Exception as exc:  # a crash is a failed request, not a failed benchmark
            rc = -1
            print(f"{type(exc).__name__}: {exc}", file=err)
        elapsed = time.perf_counter() - start
    return rc, out.getvalue(), elapsed


def import_seconds() -> float:
    """Wall time of ``import lepart.cli`` in a fresh interpreter, which every CLI call pays.

    The bytecode cache is written, as an installed package has one.
    """
    code = "import time; t = time.perf_counter(); import lepart.cli; print(time.perf_counter() - t)"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
    )
    return float(proc.stdout.strip().splitlines()[-1])


def timed_import(kernel) -> tuple[float, float]:
    """One fresh-interpreter import, in wall and in reference-speed seconds."""
    before = kernel()
    wall = import_seconds()
    return wall, wall * REF_S / (0.5 * (before + kernel()))


class Pass:
    """Outputs and latencies of one pass over the request list.

    ``ref[i]`` and ``ref[i + 1]`` are the reference kernel times just before
    and just after request i (untraced passes only).
    """

    def __init__(self, results: list[tuple[int, str, float]], ref: list[float] | None = None):
        self.results = results
        self.seconds = sum(r[2] for r in results)
        self.ref = ref

    def scaled(self, i: int) -> float:
        """Request i's wall time in reference-speed seconds."""
        return self.results[i][2] * REF_S / (0.5 * (self.ref[i] + self.ref[i + 1]))


def run_pass(cli, requests, kernel, tracer=None) -> Pass:
    gc.collect()
    results = []
    if tracer is None:
        ref = [kernel()]
        for req in requests:
            results.append(_call(cli, req.argv))
            ref.append(kernel())
        return Pass(results, ref)
    for i, req in enumerate(requests):
        results.append(tracer.request(i + 1, lambda: _call(cli, req.argv)))
    return Pass(results)


def _warm_up(cli, requests) -> None:
    """One request of each command and family kind, untimed."""
    seen = set()
    for req in requests:
        key = (req.command, (req.family or "").split(":")[0], req.replicas > 0)
        if key not in seen:
            seen.add(key)
            _call(cli, req.argv)


def _tail(latencies: list[float]) -> tuple[float, float]:
    """Value with TAIL_SAMPLES samples above it, and its percentile."""
    ordered = sorted(latencies)
    k = len(ordered) - TAIL_SAMPLES - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def judge(checker, requests, passes: list[Pass]) -> dict:
    """Check every distinct request once and every repeat byte for byte."""
    verdicts = []
    failed_requests = []
    for i, req in enumerate(requests):
        rc, out, _ = passes[0].results[i]
        verdict = checker.check(req, rc, out)
        if verdict.ok and any(p.results[i][:2] != (rc, out) for p in passes[1:]):
            verdict = checker.Verdict(False, "output differs between passes")
        if not verdict.ok:
            failed_requests.append({"argv": " ".join(req.argv), "reason": verdict.reason})
        verdicts.append(verdict)
    return {"verdicts": verdicts, "failed_requests": failed_requests}


def _per_request(passes: list[Pass], scaled: bool = False) -> list[float]:
    """Each request's median latency over the passes, in wall or reference-speed seconds."""
    if scaled:
        return [statistics.median(p.scaled(i) for p in passes) for i in range(len(passes[0].results))]
    return [statistics.median(p.results[i][2] for p in passes) for i in range(len(passes[0].results))]


def end_to_end(requests, passes: list[Pass], verdicts, scaled: bool = True) -> dict:
    per_request = _per_request(passes, scaled)
    tail, tail_pct = _tail(per_request)
    mc_time = sum(t for t, r in zip(per_request, requests) if r.samples)
    forests = sum(v.forests for v in verdicts)
    exact_time = sum(t for t, v in zip(per_request, verdicts) if v.exact_values)
    exact = sum(v.exact_values for v in verdicts)
    return {
        "latency_p50_s": statistics.median(per_request),
        "latency_tail_s": tail,
        "forests_per_s": forests / mc_time if mc_time else 0.0,
        "exact_values_per_s": exact / exact_time if exact_time else 0.0,
        "_tail_percentile": tail_pct,
    }


UNITS = {
    "latency_p50_s": "ref_s",
    "latency_tail_s": "ref_s",
    "forests_per_s": "1/ref_s",
    "exact_values_per_s": "1/ref_s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer(tracer, traced_passes: int, overhead: float) -> dict:
    t, c, k = tracer, tracer.counters, traced_passes
    steps = c["wilson.walk_steps"]
    sample_s = t.incl_s("wilson.ForestSampler.sample")
    request_ns = t.sites["cli.request"].incl_ns
    closed = [n for n in t.sites if n.startswith("closed_forms.")]
    brute = ["enumeration.brute_z", "enumeration.brute_event", "enumeration.brute_correlation", "enumeration.russo_check"]
    dispatch = ["estimators.exact_correlation", "estimators.closed_form_correlation"]
    reduce_names = [n for n in t.sites if n.startswith("estimators.") and n not in dispatch]
    values = {
        "cli.self_s": (t.layers["cli"].self_ns / 1e9, "s"),
        "graphs.make_family_s": (t.incl_s("graphs.make_family"), "s"),
        "graphs.laplacian_s": (t.incl_s("graphs.laplacian"), "s"),
        "graphs.laplacian_calls": (t.calls("graphs.laplacian"), "count"),
        "graphs.edges_built": (c["graphs.edges_built"], "count"),
        "spectral.partition_function_s": (t.incl_s("spectral.partition_function"), "s"),
        "spectral.green_kernel_s": (t.incl_s("spectral.green_kernel"), "s"),
        "spectral.tree_pair_build_s": (t.incl_s("spectral.TreePairCorrelation.__init__"), "s"),
        "spectral.tree_pair_at_s": (t.incl_s("spectral.TreePairCorrelation.at"), "s"),
        "spectral.factorizations": (c["spectral.factorizations"], "count"),
        "spectral.lu_flops_computed": (c["spectral.lu_flops_computed"], "flop"),
        "spectral.lu_bytes_computed": (c["spectral.lu_bytes_computed"], "B"),
        "wilson.sample_s": (sample_s, "s"),
        "wilson.forests": (t.calls("wilson.ForestSampler.sample"), "count"),
        "wilson.walk_steps": (steps, "count"),
        "wilson.seeding_s": (t.incl_s("wilson.split_seed", "wilson.Random"), "s"),
        "wilson.sampler_init_s": (t.incl_s("wilson.ForestSampler.__init__"), "s"),
        "wilson.partition_of_s": (t.incl_s("wilson.partition_of"), "s"),
        "estimators.reduce_s": (t.self_s(*reduce_names), "s"),
        "estimators.exact_dispatch_s": (t.incl_s(*dispatch), "s"),
        "enumeration.enumerate_s": (t.incl_s("enumeration.enumerate_forests"), "s"),
        "enumeration.forests_enumerated": (c["enumeration.forests_enumerated"], "count"),
        "enumeration.brute_event_s": (t.incl_s(*brute), "s"),
        "closed_forms.calls": (t.calls(*closed), "count"),
        "closed_forms.s": (t.layers["closed_forms"].incl_ns / 1e9, "s"),
        "checks.run_checks_s": (t.incl_s("checks.run_checks"), "s"),
    }
    metrics = {name: {"value": v / k, "unit": u} for name, (v, u) in values.items()}
    metrics["wilson.ns_per_step"] = {"value": sample_s * 1e9 / steps if steps else 0.0, "unit": "ns"}
    metrics["wilson.useful_step_ratio"] = {"value": c["wilson.vertices_sampled"] / steps if steps else 0.0, "unit": "1"}
    for layer, site in t.layers.items():
        metrics[f"{layer}.self_pct"] = {"value": 100.0 * site.self_ns / request_ns, "unit": "%"}
    metrics["trace.overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lepart" / "cli.py").is_file():
        print(f"error: lepart sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import checker
    import lepart.cli as cli
    from layer_checks import baseline_table, work_counter_check
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    requests = WORKLOADS[args.workload](args.seed)
    report: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "blas_threads": BLAS_THREADS}

    # the checker must count this known-bad output as a failure
    probe_rc, probe_out, _ = _call(cli, checker.NAN_PROBE.argv)
    report["nan_probe_caught"] = not checker.check(checker.NAN_PROBE, probe_rc, probe_out).ok

    kernel = REFERENCE_KERNEL[args.workload]
    setup_times: list[float] = []  # (wall seconds, reference-speed seconds)
    if args.trace == 0:
        import_seconds()  # writes the bytecode cache; untimed
    _warm_up(cli, requests)
    # Freeze what the imports, the checker and the warm-up left on the heap:
    # a full collection then scans only what requests allocate, instead of
    # adding a pause of tens of ms to whichever request the order puts there.
    gc.collect()
    gc.freeze()

    passes: list[Pass] = []
    traced: list[Pass] = []  # the traced run alternates untraced and traced passes
    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cli, requests, kernel))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(run_pass(cli, requests, kernel, tracer))
            finally:
                tracer.uninstall()
        elapsed = time.perf_counter() - start
        due = len(setup_times) * args.seconds / SETUP_REPEATS
        if args.trace == 0 and len(setup_times) < SETUP_REPEATS and elapsed >= due:
            # the fresh-interpreter imports are spread over the run, so that
            # setup_s samples the host's speed over the same time as the requests
            setup_times.append(timed_import(kernel))
            elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
    while args.trace == 0 and len(setup_times) < SETUP_REPEATS:
        setup_times.append(timed_import(kernel))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before the oracles allocate

    judged = judge(checker, requests, passes + traced)
    verdicts = judged["verdicts"]
    failed = len(passes + traced) * sum(1 for v in verdicts if not v.ok)
    attempted = len(passes + traced) * len(requests)

    # determinism: one MC request issued again must print the same bytes
    probe = next(i for i, r in enumerate(requests) if r.samples)
    again = _call(cli, requests[probe].argv)[:2]
    report["determinism_ok"] = again == passes[0].results[probe][:2]
    attempted += 1
    failed += 0 if report["determinism_ok"] else 1

    report["pass_seconds"] = [p.seconds for p in passes]
    report["traced_pass_seconds"] = [p.seconds for p in traced]
    report.update(passes=len(passes), traced_passes=len(traced), requests=len(requests), attempted=attempted, failed=failed)
    report["failed_frac"] = failed / attempted
    report["failed_requests"] = judged["failed_requests"][:20]
    report["latencies"] = [
        {"argv": " ".join(r.argv), "seconds": [p.results[i][2] for p in passes]} for i, r in enumerate(requests)
    ]
    correct = failed == 0 and report["nan_probe_caught"]

    if args.trace == 0:
        e2e = end_to_end(requests, passes, verdicts)
        e2e.update(peak_rss_mb=peak_rss_mb, setup_s=statistics.median(t[1] for t in setup_times))
        report["tail_percentile"] = e2e.pop("_tail_percentile")
        wall = end_to_end(requests, passes, verdicts, scaled=False)
        wall.pop("_tail_percentile")
        wall["setup_s"] = statistics.median(t[0] for t in setup_times)
        report["wall_clock"] = wall
        report["kernel"] = kernel.__name__
        report["ref_kernel_s"] = statistics.median(t for p in passes for t in p.ref)
        report["setup_seconds"] = setup_times
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in UNITS.items()}
    else:
        overhead = sum(_per_request(traced)) / sum(_per_request(passes)) - 1.0
        metrics = per_layer(tracer, len(traced), overhead)
        work = work_counter_check(args.seed)
        report["work_counter"] = work
        correct = correct and all(case["ok"] for case in work)
        baseline = baseline_table()
        report["baseline"] = baseline
        for name, value in baseline.items():
            metrics[f"baseline.{name}"] = {"value": value, "unit": "us" if name.endswith("_us") else "s"}
        report["spans_kept"] = len(tracer.spans)
        report["spans_dropped"] = tracer.dropped
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans_{args.workload}_seed{args.seed}.jsonl")

    report["correct"] = correct
    report["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    (OUT / f"result_{args.workload}_trace{args.trace}_seed{args.seed}.json").write_text(json.dumps(report, indent=1) + "\n")
    _print_report(report)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _print_report(report: dict) -> None:
    err = sys.stderr
    print(
        f"# {report['workload']} seed={report['seed']} trace={report['trace']} blas_threads={report['blas_threads']} "
        f"requests={report['requests']} pass_seconds={[round(s, 2) for s in report['pass_seconds']]} "
        f"traced_pass_seconds={[round(s, 2) for s in report['traced_pass_seconds']]}",
        file=err,
    )
    print(
        f"# attempted={report['attempted']} failed={report['failed']} failed_frac={report['failed_frac']:.4g} "
        f"nan_probe_caught={report['nan_probe_caught']} determinism_ok={report['determinism_ok']}",
        file=err,
    )
    if "tail_percentile" in report:
        print(f"# latency_tail_s is p{report['tail_percentile']:.4g} of {report['requests']} per-request latencies", file=err)
        wall = " ".join(f"{k}={v:.4g}" for k, v in report["wall_clock"].items())
        print(f"# wall clock: {wall}; reference kernel {report['kernel']} {report['ref_kernel_s'] * 1e3:.3f} ms (REF_S {REF_S * 1e3:g} ms)", file=err)
    for item in report["failed_requests"]:
        print(f"# FAILED {item['argv']}: {item['reason']}", file=err)
    for case in report.get("work_counter", []):
        print(f"# work counter {case['case']}: {case['mean_steps']:.2f} steps/forest vs formula {case['expected']:.2f} (z={case['z']:+.2f})", file=err)
    for name, m in report["metrics"].items():
        print(f"{name:36s} {m['value']:14.6g} {m['unit']}", file=err)


if __name__ == "__main__":
    sys.exit(main())
