"""Benchmark of the ipmdro package: one workload per process, from the source tree.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
``src/``.  The inputs are a deterministic function of the workload and the
seed.  A pass runs every operation of the workload once.  A warm-up pass
comes first; timed passes repeat until the next one would end more than
``--seconds`` after the warm-up began (at least one runs).  After the timed
phase every output of the warm-up pass is checked against an independent
reference (HiGHS through scipy, or a closed form), and every later pass must
reproduce it exactly.

Times are reported at nominal host speed (see ``speed``): wall_s is the mean
time of a timed pass, op_ms_p50 and op_ms_tail are read from each
operation's median latency over the timed passes, and setup_s is the median
of several set-up samples.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate, and it reports the
per-layer metrics of the traced passes (per pass) plus the tracing overhead.
Details (failures with case, exception type and message, latency tail, the
measured times beside the nominal ones, per-function table, BLAS setting) go
to ``bench/out/``.
"""

import os

# Pin BLAS to one thread before numpy is loaded: the dense simplex updates run
# measurably slower, and far less steadily, with two threads on two cores.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from speed import SpeedProbe  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
WORKLOADS = ("small_exact", "quad_small", "lp_path_large", "lp_euclid")
SETUP_SAMPLES = 5  # one in this process, the rest in fresh interpreters
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10  # samples required beyond the reported tail percentile

END_TO_END_UNITS = {
    "wall_s": "s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-function metrics of the traced run, by wrapped public function
TRACED_FUNCTIONS = {
    "solvers.solve_lp": ("calls", "self_s", "fail"),
    "solvers.maximize_concave_quadratic_over_simplex": ("calls", "self_s"),
    "solvers.minimize_scalar_convex": ("calls", "self_s"),
    "solvers.project_simplex": ("calls", "self_s"),
    "penalties.lambda_penalty": ("calls", "self_s", "fail"),
    "penalties.theta": ("calls", "self_s"),
    "penalties.centered_theta": ("calls", "self_s"),
    "ipm.ipm_distance": ("calls", "self_s", "fail"),
    "dro.worst_case_expectation": ("calls", "self_s", "fail"),
    "dro.verify_identity": ("calls", "self_s"),
    "dro.corollary_bound": ("calls", "self_s"),
    "critic.check_alignment": ("calls", "self_s"),
    "core.make_space": ("calls", "self_s"),
    "core.discretize_structured_class": ("calls", "self_s"),
    "cli.main": ("calls", "self_s"),
    "cli.parse_config": ("calls", "self_s"),
    "cli.emit_report": ("calls", "self_s"),
}


def per_layer_units() -> dict:
    units = {}
    for name, fields in TRACED_FUNCTIONS.items():
        for field in fields:
            units[f"{name}.{field}"] = "s" if field == "self_s" else "count"
    units["solvers.solve_lp.iters"] = "count"
    units["solvers.solve_lp.update_bytes"] = "B"
    for layer in LAYERS:
        units[f"layer.{layer}.calls"] = "count"
        units[f"layer.{layer}.self_s"] = "s"
    units["bench.self_s"] = "s"
    units["trace.spans"] = "count"
    units["trace_overhead_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# set-up


def import_package():
    """Import ipmdro from this checkout's src/, never from site-packages."""
    if not (SRC / "ipmdro" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package source at {SRC / 'ipmdro'}")
    sys.path.insert(0, str(SRC))
    import ipmdro

    if Path(ipmdro.__file__).resolve().parent != SRC / "ipmdro":
        raise SystemExit(f"bench: imported ipmdro from {ipmdro.__file__}")
    return ipmdro


def build(workload, seed, scale):
    """Import the package and build the seeded operations; returns (seconds, ops)."""
    start = perf_counter()
    import_package()
    import workloads

    ops = workloads.BUILDERS[workload](seed, scale, ROOT, OUT / f"{workload}-seed{seed}")
    return perf_counter() - start, ops


def setup_probe(workload, seed, scale) -> tuple:
    """Set-up time in a fresh interpreter, so the import is cold; returns
    (measured, at nominal host speed)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--scale", repr(scale)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return tuple(float(x) for x in done.stdout.strip().splitlines()[-1].split())


# ---------------------------------------------------------------------------
# timed phase


def run_pass(ops, probe, tracer=None):
    """Run every operation once; returns [(start, seconds, output, error)]."""
    records = []
    for op in ops:
        probe.before_op()
        start = perf_counter()
        try:
            if tracer is None:
                out = op.call()
            else:
                with tracer.root(op.kind):
                    out = op.call()
            err = None
        except Exception as exc:  # a refused or broken operation is recorded, not fatal
            out = None
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            err = {"type": type(exc).__name__, "message": str(exc),
                   "where": f"{Path(frame.filename).name}:{frame.lineno} {frame.name}"}
        seconds = perf_counter() - start
        probe.after_op(seconds)
        records.append((start, seconds, out, err))
    return records


class Passes:
    """One mode's timed passes: every operation's (start, seconds) samples.

    The host's speed drifts within a run and between runs, so a run reports
    each operation's median latency over every timed pass, at nominal host
    speed (see ``speed``), and the mean pass time at nominal speed.
    """

    def __init__(self, count):
        self.samples = [[] for _ in range(count)]
        self.passes = 0

    def add(self, records):
        self.passes += 1
        for samples, rec in zip(self.samples, records):
            samples.append(rec[:2])

    def latencies(self, convert):
        """Per operation, its samples' seconds passed through ``convert``."""
        return [[convert(start, seconds) for start, seconds in samples]
                for samples in self.samples]


def timed_phase(ops, seconds, probe, tracer=None):
    """A warm-up pass, then timed rounds until the next one would end more
    than ``seconds`` after the warm-up began; at least one round runs.  A
    round is an untraced pass, followed by a traced pass when a tracer is
    given.  The warm-up pass's outputs are the ones checked.

    Returns (first, differs, plain, traced): the warm-up pass's records, which
    operations ever returned something else, and the two modes' timed Passes.
    """
    deadline = perf_counter() + seconds
    first = run_pass(ops, probe)
    differs = [False] * len(ops)
    plain, traced = Passes(len(ops)), Passes(len(ops))

    def one_pass(timing, with_tracer=None):
        records = run_pass(ops, probe, with_tracer)
        timing.add(records)
        for i, (rec, ref) in enumerate(zip(records, first)):
            differs[i] = differs[i] or rec[2:] != ref[2:]

    while True:
        r0 = perf_counter()
        one_pass(plain)
        if tracer is not None:
            tracer.install()
            try:
                one_pass(traced, tracer)
            finally:
                tracer.uninstall()
        r1 = perf_counter()
        if r1 + (r1 - r0) > deadline:
            return first, differs, plain, traced


# ---------------------------------------------------------------------------
# checks


def check_outputs(ops, first, differs):
    """Verdict per operation from the first pass's output.

    Returns (failed per pass, failures, correct).  An exception is a failed
    operation; a value outside its reference tolerance, a check that could not
    run, or a later pass that differs from the first are failed and incorrect.
    """
    failures = []
    correct = True
    for op, (_, _, out, err), differ in zip(ops, first, differs):
        entry = {"case": op.case, "kind": op.kind}
        if err is not None:
            entry.update(err)
        else:
            try:
                problems = op.check(out)
            except Exception as exc:  # the reference itself failed: unverified
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                entry.update({"type": "WrongValue", "message": "; ".join(problems)})
                correct = False
        if differ:
            entry.setdefault("type", "Nondeterministic")
            entry["message"] = entry.get("message", "") + " (a later pass differs)"
            correct = False
        if len(entry) > 2:
            failures.append(entry)
    return len(failures), failures, correct


# ---------------------------------------------------------------------------
# metrics


def tail(latencies_ms):
    """Highest ladder percentile with at least TAIL_BEYOND samples beyond it;
    the maximum (percentile None) when there are too few samples."""
    ordered = sorted(latencies_ms)
    count = len(ordered)
    for pct in TAIL_LADDER:
        if count * (100.0 - pct) / 100.0 >= TAIL_BEYOND:
            return pct, ordered[math.ceil(count * pct / 100.0) - 1], count
    return None, ordered[-1], count


def central(values, share=0.2):
    """Mean of the middle ``share`` of the values: the median operation, read so
    that it does not jump across the gaps between a few dozen unequal ones."""
    ordered = sorted(values)
    lo = int(len(ordered) * (0.5 - share / 2))
    hi = max(lo + 1, math.ceil(len(ordered) * (0.5 + share / 2)))
    return statistics.fmean(ordered[lo:hi])


def timings(passes, convert):
    """wall_s (mean pass time), op_ms_p50 and op_ms_tail of one mode's passes,
    with the tail's percentile and sample count; ``convert`` maps a sample's
    (start, seconds) to the seconds reported."""
    latencies = passes.latencies(convert)
    medians_ms = [statistics.median(lat) * 1e3 for lat in latencies]
    pct, tail_ms, count = tail(medians_ms)
    wall_s = sum(statistics.fmean(lat) for lat in latencies)
    return {"wall_s": wall_s, "op_ms_p50": central(medians_ms), "op_ms_tail": tail_ms}, pct, count


def measured(start, seconds):
    """The ``convert`` of ``timings`` that keeps times as measured."""
    return seconds


def end_to_end(plain, probe, setup_samples, peak_rss_kb, ok_ratio):
    metrics, pct, count = timings(plain, probe.to_nominal)
    metrics.update({
        "ok_ratio": ok_ratio,
        "setup_s": statistics.median(nominal for _, nominal in setup_samples),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    })
    detail = {"op_ms_tail_percentile": pct, "op_ms_tail_samples": count,
              "passes": plain.passes, "measured": timings(plain, measured)[0],
              "speed_kernel_ms": {"median": statistics.median(probe.seconds) * 1e3,
                                  "runs": len(probe.seconds)},
              "setup_samples_s": {"measured": [m for m, _ in setup_samples],
                                  "nominal": [n for _, n in setup_samples]}}
    return metrics, detail


def per_layer(tracer, probe, plain, traced):
    passes = traced.passes
    table = tracer.per_function()
    metrics = {}
    for name, fields in TRACED_FUNCTIONS.items():
        row = table.get(name, {"calls": 0, "self_s": 0.0, "fail": 0})
        for field in fields:
            metrics[f"{name}.{field}"] = row[field] / passes
    metrics["solvers.solve_lp.iters"] = tracer.lp_iterations / passes
    metrics["solvers.solve_lp.update_bytes"] = tracer.lp_update_bytes / passes
    for layer in LAYERS:
        rows = [r for n, r in table.items() if n.split(".")[0] == layer]
        metrics[f"layer.{layer}.calls"] = sum(r["calls"] for r in rows) / passes
        metrics[f"layer.{layer}.self_s"] = sum(r["self_s"] for r in rows) / passes
    metrics["bench.self_s"] = table.get("bench", {"self_s": 0.0})["self_s"] / passes
    metrics["trace.spans"] = len(tracer.spans) / passes
    metrics["trace_overhead_s"] = (timings(traced, probe.to_nominal)[0]["wall_s"]
                                   - timings(plain, probe.to_nominal)[0]["wall_s"])
    return metrics, table


# ---------------------------------------------------------------------------
# entry point


def run(workload, seed, seconds, trace, scale=1.0, probes=True):
    """One benchmark run; returns the result object printed as the last line."""
    setup_s, ops = build(workload, seed, scale)
    probe = SpeedProbe()
    setup_samples = [(setup_s, probe.setup_to_nominal(setup_s))]
    if probes:
        setup_samples += [setup_probe(workload, seed, scale)
                          for _ in range(SETUP_SAMPLES - 1)]

    tracer = None
    if trace:
        import ipmdro

        tracer = Tracer(ipmdro)
    first, differs, plain, traced = timed_phase(ops, seconds, probe, tracer)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    counted = traced.passes if trace else 1 + plain.passes  # with the warm-up
    failed_per_pass, failures, correct = check_outputs(ops, first, differs)
    attempted = len(ops) * counted
    failed = failed_per_pass * counted
    metrics, detail = end_to_end(plain, probe, setup_samples, peak_rss_kb,
                                 (attempted - failed) / attempted)
    units = dict(END_TO_END_UNITS)
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "scale": scale, "blas_env": BLAS_ENV, "ops_per_pass": len(ops),
              "attempted": attempted, "failed": failed, "correct": correct,
              "failures": failures, "end_to_end": metrics, **detail,
              "samples_ms": {op.case: [round(t * 1e3, 4) for t in lat]
                             for op, lat in zip(ops, plain.latencies(measured))}}
    if trace:
        metrics, table = per_layer(tracer, probe, plain, traced)
        units = per_layer_units()
        report["per_layer"] = metrics
        report["per_function"] = table
        tracer.write(OUT / f"trace-{workload}-seed{seed}.json", table)
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"result-{workload}-seed{seed}-trace{trace}.json", "w",
              encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, default=str)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        seconds, _ = build(args.workload, args.seed, args.scale)
        print(repr(seconds), repr(SpeedProbe().setup_to_nominal(seconds)))
        return 0
    result, report = run(args.workload, args.seed, args.seconds, args.trace, args.scale)
    print(f"workload {args.workload} seed {args.seed}: {report['ops_per_pass']} operations "
          f"per pass, a warm-up and {report['passes']} timed passes, BLAS threads pinned to 1")
    pct = report["op_ms_tail_percentile"]
    print(f"fail_ratio = {report['failed']}/{report['attempted']}; op_ms_tail is the "
          f"{f'p{pct}' if pct else 'maximum'} of {report['op_ms_tail_samples']} operations")
    for failure in report["failures"]:
        print(f"FAILED {failure['case']}: {failure['type']}: {failure['message']}")
    for name, entry in result["metrics"].items():
        print(f"{name} = {entry['value']!r} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
