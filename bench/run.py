"""viscoshock benchmark: seeded closed-loop workloads, end-to-end and
per-layer metrics.

Run from the root of a source checkout:

    python3 bench/run.py --workload wave_refine --seed 0 --seconds 25 --trace 0

The package is imported from ``src/`` of the checkout; without it the
script exits with code 2 and prints no result.  BLAS/OpenMP pools are
limited to one thread (one client, one case at a time).

A run draws the workload's cases from ``--seed`` and repeats passes over
them for about ``--seconds``.  Every case is checked; a pass must repeat
the previous pass's outcomes, work counts and emitted bytes exactly.

``--trace 0`` times untraced passes and reports the end-to-end metrics
(each case's time is its median over the passes; ``setup_s`` is the
median of seven set-ups, six of them in fresh interpreters).
``--trace 1`` alternates untraced and traced passes and reports
per-layer metrics from the spans of the traced ones: self-time shares of
the traced wall time, throughputs and exact work counts; on
``alpha_sweep`` it also counts the known-defect refusals of a profile
probe over the whole README domain.  Spans and the full result go to
``.bench_out/``.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import time

T0 = time.perf_counter()         # setup_s runs from here to the first case

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PASS_DIR = OUT / f"passes-{os.getpid()}"   # emitted files, removed per pass
MIN_PASSES = 3
SETUP_PROBES = 6


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="measure one set-up, print it and exit")
    return parser.parse_args(argv)


def _environment():
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


@dataclass
class PassResult:
    wall: float
    case_walls: list
    case_cpus: list
    outcomes: list                     # per case: "ok" or (kind, cause)
    counts: Counter
    results: list


def _run_pass(workload, cases, meter, index):
    from workloads import attempt
    out_dir = PASS_DIR / f"pass{index}"
    case_dirs = [out_dir / f"case{i}" for i in range(len(cases))]
    for d in case_dirs:
        d.mkdir(parents=True)
    meter.counts = Counter()
    case_walls, case_cpus, outcomes, results = [], [], [], []
    wall0 = time.perf_counter()
    for i, case in enumerate(cases):
        t, c = time.perf_counter(), time.process_time()
        with meter.case(f"{index}.{i}"):
            outcome, result = attempt(workload.run_case, case, meter,
                                      case_dirs[i])
        case_walls.append(time.perf_counter() - t)
        case_cpus.append(time.process_time() - c)
        outcomes.append(outcome)
        results.append(result)
    wall = time.perf_counter() - wall0
    meter.count("bench.cases", len(cases))
    return PassResult(wall, case_walls, case_cpus, outcomes, meter.counts,
                      results)


def _verify_files(p, index, reference):
    """Emitted CSVs re-parse to the in-memory values (first pass) and are
    byte-identical to the first pass (later passes)."""
    import numpy as np
    for i, result in enumerate(p.results):
        for path, rows in result.get("files", ()):
            data = path.read_bytes()
            key = (i, path.name)
            if key not in reference:
                reference[key] = data
                lines = data.decode("utf-8").splitlines()
                parsed = np.array([[float(x) for x in line.split(",")]
                                   for line in lines[1:]])
                ok = parsed.shape == rows.shape and np.array_equal(parsed,
                                                                   rows)
                what = "does not re-parse to the values written"
            else:
                ok = data == reference[key]
                what = "differs from the first pass"
            if not ok and p.outcomes[i] == "ok":
                p.outcomes[i] = ("wrong", f"{path.name} {what}")
    shutil.rmtree(PASS_DIR / f"pass{index}", ignore_errors=True)


def _measure(workload, cases, seconds, meters):
    """Repeat rounds of passes, one pass per meter in turn, until the
    next round would end after `seconds`."""
    passes = []
    files = {}
    min_rounds = MIN_PASSES if len(meters) == 1 else 1
    start = time.perf_counter()
    while True:
        for meter in meters:
            index = len(passes)
            passes.append(_run_pass(workload, cases, meter, index))
            _verify_files(passes[-1], index, files)
        rounds = len(passes) // len(meters)
        round_s = (time.perf_counter() - start) / rounds
        if (rounds >= min_rounds
                and time.perf_counter() - start + round_s > seconds):
            return passes


def _setup_samples(args, own):
    samples = [own]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--setup-probe"]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=30, check=True)
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def _end_to_end(passes, setup, rss_mb):
    """Each case's time is its median over the passes, which drops
    passes slowed by other tenants of the machine; a pass costs the sum
    of its cases."""
    import numpy as np
    walls = np.median([p.case_walls for p in passes], axis=0)
    cpus = np.median([p.case_cpus for p in passes], axis=0)
    return {
        "wall_s": (float(np.sum(walls)), "s"),
        "cpu_s": (float(np.sum(cpus)), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "case_p50_s": (float(np.quantile(walls, 0.5)), "s"),
        "case_p90_s": (float(np.quantile(walls, 0.9)), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def _busy(meter):
    """Self seconds per span name and per (name, tag)."""
    busy = defaultdict(float)
    for span, t in zip(meter.spans, meter.self_times()):
        busy[span.name] += t
        busy[span.name, span.tag] += t
    return busy


def _per_layer(traced, untraced, meter, breakdown, probe):
    """Per-layer metrics from the spans of the traced passes: self-time
    shares of the traced wall time, throughputs over self time, and the
    work counts of one pass; `probe` holds the outcome kinds of the
    README-domain profile probe."""
    from workloads import REFINE_LEVELS, SWEEP_ALPHAS
    wall = sum(p.wall for p in traced)
    work = sum((p.counts for p in traced), Counter())
    per_pass = traced[-1].counts
    busy = _busy(meter)

    def share(name):
        return (busy[name] / wall, "frac")

    def rate(count, name, tag=None, unit="1/s"):
        seconds = busy[name] if tag is None else busy[name, tag]
        return (work[count] / seconds if seconds > 0.0 else 0.0, unit)

    def count(name, unit="count"):
        return (per_pass[name], unit)

    run = "lagrangian_solver.run"
    snap = "energy_diagnostics.energy_snapshot"
    prof = "shock_profile.compute_profile"
    emit = "cli_io.emit_csv"
    traced_wall = statistics.median(p.wall for p in traced)
    out = {
        "trace_overhead_frac": (
            traced_wall / statistics.median(p.wall for p in untraced) - 1.0,
            "frac"),
        "traced_wall_s": (traced_wall, "s"),
        "lagrangian_solver.run_self_frac": share(run),
        "lagrangian_solver.init_state_frac":
            share("lagrangian_solver.init_state"),
        "lagrangian_solver.steps": count("lagrangian_solver.steps"),
        "lagrangian_solver.cell_steps": count("lagrangian_solver.cell_steps"),
        "lagrangian_solver.cell_steps_per_s":
            rate("lagrangian_solver.cell_steps", run),
    }
    for k in range(len(REFINE_LEVELS)):
        out[f"lagrangian_solver.steps_per_s.lvl{k}"] = rate(
            f"lagrangian_solver.steps.lvl{k}", run, f"lvl{k}")
    out.update({
        "lagrangian_solver.err_sup": (max(
            (r.get("err_sup", 0.0) for r in traced[-1].results),
            default=0.0), "1"),
        "energy_diagnostics.snapshot_frac": share(snap),
        "energy_diagnostics.snapshots": count("energy_diagnostics.snapshots"),
        "energy_diagnostics.snapshots_per_s":
            rate("energy_diagnostics.snapshots", snap),
        "energy_diagnostics.decay_check_frac":
            share("energy_diagnostics.longtime_decay_check"),
        "shock_profile.compute_profile_frac": share(prof),
        "shock_profile.compute_profile_calls":
            count("shock_profile.compute_profile_calls"),
        "shock_profile.compute_profile_per_s":
            rate("shock_profile.compute_profile_calls", prof),
        "shock_profile.verify_frac":
            share("shock_profile.verify_profile_properties"),
        "shock_profile.residual_frac": share("shock_profile.profile_residual"),
        "shock_profile.eval_frac":
            share("shock_profile.rescaled_profile_eval"),
        "shock_profile.readme_domain_refusals": (
            probe["refused"] + probe["defect"], "count"),
        "convergence_harness.alpha_sweep_frac":
            share("convergence_harness.alpha_sweep"),
    })
    # shares of the per-alpha breakdown, which runs after the passes
    b_busy = _busy(breakdown)
    b_wall = sum(t for key, t in b_busy.items() if isinstance(key, str))
    for alpha in SWEEP_ALPHAS:
        seconds = b_busy["convergence_harness.full_error", f"a{alpha:g}"]
        out[f"convergence_harness.full_error_frac.a{alpha:g}"] = (
            seconds / b_wall if b_wall else 0.0, "frac")
    seconds = b_busy["convergence_harness.profile_only_error"]
    out.update({
        "convergence_harness.profile_only_error_frac": (
            seconds / b_wall if b_wall else 0.0, "frac"),
        "convergence_harness.full_error_cells": (
            breakdown.counts["convergence_harness.full_error_cells"],
            "count"),
        "cli_io.emit_csv_frac": share(emit),
        "cli_io.emit_csv_rows": count("cli_io.emit_csv_rows"),
        "cli_io.emit_csv_bytes": count("cli_io.emit_csv_bytes", "B"),
        "cli_io.emit_csv_bytes_per_s":
            rate("cli_io.emit_csv_bytes", emit, unit="B/s"),
        "euler_waves.build_shock_frac": share("euler_waves.build_shock"),
        "bench.cases": count("bench.cases"),
    })
    return out


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "viscoshock" / "__init__.py").is_file():
        print(f"error: no viscoshock sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import viscoshock as vs
    if not Path(vs.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported viscoshock from {vs.__file__}",
              file=sys.stderr)
        return 2
    from tracing import Meter
    from workloads import WORKLOADS, attempt
    import numpy as np

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              + ", ".join(WORKLOADS), file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    cases = workload.draw(np.random.default_rng(args.seed))
    setup = time.perf_counter() - T0
    if args.setup_probe:
        print(json.dumps({"setup_s": setup}))
        return 0

    OUT.mkdir(exist_ok=True)
    env = _environment()
    print("environment " + json.dumps(env, sort_keys=True))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    breakdown_error = None
    probe = Counter()
    if args.trace:
        meter = Meter(trace=True)
        passes = _measure(workload, cases, args.seconds,
                          [Meter(trace=False), meter])
        breakdown = Meter(trace=True)
        if workload.breakdown is not None:
            outcome, _ = attempt(workload.breakdown, cases,
                                 passes[-1].results, breakdown)
            breakdown_error = None if outcome == "ok" else outcome
        if workload.probe is not None:
            probe = workload.probe(np.random.default_rng(args.seed),
                                   Meter(trace=False))
        traced = passes[1::2]
        metrics = _per_layer(traced, passes[0::2], meter, breakdown, probe)
        meter.write_spans(OUT / f"spans-{stem}.jsonl")
        breakdown.write_spans(OUT / f"spans-{stem}-breakdown.jsonl")
    else:
        setup_samples = _setup_samples(args, setup)
        passes = _measure(workload, cases, args.seconds, [Meter(trace=False)])
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = _end_to_end(passes, setup_samples, rss_mb)

    shutil.rmtree(PASS_DIR, ignore_errors=True)
    attempted = sum(len(p.outcomes) for p in passes)
    failures = Counter(o for p in passes for o in p.outcomes if o != "ok")
    failed = sum(failures.values())
    repeatable = all(p.outcomes == passes[0].outcomes
                     and p.counts == passes[0].counts for p in passes)
    probe_wrong = {k: n for k, n in probe.items()
                   if k not in ("ok", "refused", "defect")}
    correct = (repeatable and not failures and breakdown_error is None
               and not probe_wrong)

    counts = dict(sorted(passes[0].counts.items()))
    print("counts per pass " + json.dumps(counts))
    print(f"passes {len(passes)}, cases per pass {len(cases)}, "
          f"repeatable {repeatable}")
    for (kind, cause), n in sorted(failures.items()):
        print(f"failure x{n} [{kind}] {cause}")
    if breakdown_error:
        print(f"breakdown failure {breakdown_error}")
    if probe:
        print("README-domain profile probe " + json.dumps(dict(probe)))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    with open(OUT / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "environment": env,
                   "counts_per_pass": counts,
                   "pass_walls_s": [p.wall for p in passes],
                   "failures": [[k, c, n] for (k, c), n in failures.items()],
                   "readme_domain_probe": dict(probe),
                   **result}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
