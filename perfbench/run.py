"""Benchmark of the nchilb Chow pipeline.  Run from the repository root:

    python3 perfbench/run.py --workload verify-cold --seed 1 --seconds 40 --trace 0

Workloads are in `common.WORKLOADS` and explained in `perfbench/NOTES.md`.
One pass runs every instance of the workload once, in a random order drawn
from --seed, each instance in a fresh child interpreter, one child at a
time (closed loop, one client).  Passes repeat while another one fits in
--seconds, and at least MIN_PASSES run.

--trace 0 reports the end-to-end metrics.  Each is a per-instance median
over the passes, summed (or, for memory, maximised) over the instances:
  wall_s       timed work of one pass
  cpu_s        user+sys CPU of the pass's children up to the end of
               their work, set-up included
  setup_s      interpreter start, imports and stored-input loading of a pass
  peak_rss_mb  largest child maximum resident set size
The three times are in reference seconds: each child's measured seconds
times REFERENCE_S over that child's time of the fixed kernel
`common.reference_seconds` (the mean of one run before it loads its
inputs, one every second of its work and one right after it; wall time
for wall_s and setup_s, CPU time for cpu_s).  The kernel runs during the
work are taken out of wall_s and cpu_s.  On a shared virtual machine, such as the 2-vCPU Xeon
where this benchmark was defined, speed moves by 20-30% within seconds and
between minutes; the kernel moves with it and never calls nchilb, so the
ratio keeps the machine's drift out and every change in nchilb in.  The
measured seconds are in the info line.
--trace 1 alternates traced and untraced passes, starting traced, so that
at least MIN_PASSES traced passes and one untraced pass run.  It reports
the per-layer metrics of the traced passes (self times as medians over
them; exact counts, which must agree between them) and the tracing
overhead; it also writes every span to perfbench/out/.

The last line of stdout is the result object; the line before it records
the run environment (rational backend, Python version, nproc), the
failed_ratio and the per-pass values.  The exit code is 0 only when
every instance passed its correctness checks.  The run stops with exit
code 2 and no result when nchilb's sources are missing or when a child
finds a stored input that does not match its manifest sha256.
"""

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

import common
from tracer import self_times

HARD_LIMIT_S = 170
MIN_PASSES = 2
# time of `common.reference_seconds` on an idle core of the machine the
# benchmark was defined on (2 vCPU Intel Xeon, Python 3.11)
REFERENCE_S = 0.05
OUT = os.path.join(common.HERE, "out")

# per-layer metrics: self-time sums of these spans, as "<span>_s"
SELF_TIME_SPANS = (
    "coha.kernel_generators",
    "polynomial.schur",
    "polynomial.is_symmetric",
    "polynomial.to_elementary",
    "polynomial.parse",
    "groebner.buchberger",
    "groebner.hilbert_function",
    "groebner.standard_monomials",
    "groebner.normal_form",
    "presentation.chern_basis",
    "presentation.poincare_match",
    "presentation.minimal_subset",
    "presentation.local_multiplicity",
    "forests.census",
    "forests.btuples",
)
CALL_COUNTS = ("groebner.buchberger", "groebner.normal_form")
COUNTS = (
    "coha.generators",
    "coha.x_terms",
    "polynomial.e_terms",
    "polynomial.e_coef_bits_max",
    "groebner.basis_polys",
    "groebner.basis_terms",
    "groebner.basis_coef_bits_max",
    "groebner.quotient_dim",
    "presentation.minimal_generators",
    "forests.forests",
)


def run_child(instance, traced, env, deadline):
    """Run one instance; returns (child result or None, spawn time, error)."""
    task, m, d = instance
    cmd = [sys.executable, os.path.join(common.HERE, "child.py"), "--task", task, "--trace", str(int(traced))]
    if m is not None:
        cmd += ["--m", str(m), "--d", str(d)]
    spawned = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=common.ROOT, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(deadline - time.perf_counter(), 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, spawned, "timed out"
    if proc.returncode == common.INPUT_MISMATCH_EXIT:
        raise common.InputMismatch(stderr.strip())
    if proc.returncode != 0:
        return None, spawned, f"exit code {proc.returncode}: {stderr.strip()[-2000:]}"
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None, spawned, "no result line"
    return result, spawned, "; ".join(result["errors"]) or None


def run_pass(index, order, traced, env, deadline, spans_out):
    """One pass: every instance once.  Returns the pass record and its failed instances."""
    record = {"traced": traced, "instances": {}, "counts": {}, "self": {}}
    failures = []
    for instance in order:
        name = common.instance_name(*instance)
        result, spawned, error = run_child(instance, traced, env, deadline)
        if error is not None:
            failures.append(f"pass {index} {name}: {error}")
        if result is None:
            continue
        record["backend"] = result["backend"]
        # reference_s lists the kernel runs before, during and after the work
        record["instances"][name] = {
            "wall_s": result["done"] - result["ready"] - sum(result["reference_s"][1:-1]),
            "setup_s": result["ready"] - spawned - result["reference_s"][0],
            "cpu_s": result["cpu_s"] - sum(result["reference_cpu_s"][:-1]),
            "peak_rss_mb": result["maxrss_kb"] / 1024,
            "reference_s": statistics.mean(result["reference_s"]),
            "reference_cpu_s": statistics.mean(result["reference_cpu_s"]),
        }
        counts = record["counts"]
        for key, value in result["counts"].items():
            counts[key] = max(counts.get(key, 0), value) if key.endswith("_max") else counts.get(key, 0) + value
        if traced:
            spans = result["spans"]
            for i, (span, own) in enumerate(zip(spans, self_times(spans))):
                counts["spans." + span[0]] = counts.get("spans." + span[0], 0) + 1
                record["self"][span[0]] = record["self"].get(span[0], 0.0) + own
                spans_out.append([f"{index}:{name}", i, *span])
    return record, failures


def instance_medians(passes, field, reference=None):
    """Per instance, the median of `field` over the passes where it ran.

    With `reference` ("reference_s" or "reference_cpu_s") each value is
    first turned into reference seconds by that kernel time of its child.
    """
    values = {}
    for p in passes:
        for name, row in p["instances"].items():
            scale = REFERENCE_S / row[reference] if reference else 1.0
            values.setdefault(name, []).append(row[field] * scale)
    return {name: statistics.median(v) for name, v in values.items()}


def end_to_end_metrics(passes):
    return {
        "wall_s": ("s", sum(instance_medians(passes, "wall_s", "reference_s").values())),
        "cpu_s": ("s", sum(instance_medians(passes, "cpu_s", "reference_cpu_s").values())),
        "setup_s": ("s", sum(instance_medians(passes, "setup_s", "reference_s").values())),
        "peak_rss_mb": ("MB", max(instance_medians(passes, "peak_rss_mb").values())),
    }


def layer_metrics(workload, passes, failures):
    """Per-layer metrics over the traced passes.

    Appends to `failures` a required span that never fired and an exact
    count that differs between traced passes.
    """
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    metrics = {}
    for span in SELF_TIME_SPANS:
        metrics[span + "_s"] = ("s", statistics.median(p["self"].get(span, 0.0) for p in traced))
    metrics["cli.self_s"] = ("s", statistics.median(p["self"].get("cli.main", 0.0) for p in traced))
    exact = [(span + "_calls", "spans." + span) for span in CALL_COUNTS] + [(name, name) for name in COUNTS]
    for metric, key in exact:
        values = {p["counts"].get(key, 0) for p in traced}
        if len(values) > 1:
            failures.append(f"{metric} differs between traced passes: {sorted(values)}")
        metrics[metric] = ("count", max(values))
    overhead = sum(instance_medians(traced, "wall_s").values()) - sum(instance_medians(plain, "wall_s").values())
    metrics["trace.overhead_s"] = ("s", overhead)
    for span in common.REQUIRED_SPANS[workload]:
        for i, p in enumerate(traced):
            if not p["counts"].get("spans." + span):
                failures.append(f"traced pass {i}: span {span} never fired")
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(common.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(common.SRC, "nchilb", "__init__.py")):
        print(f"error: no nchilb sources under {common.SRC}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    rng = random.Random(args.seed)
    env = common.child_env()
    instances = list(common.WORKLOADS[args.workload])
    min_passes = 2 * MIN_PASSES - 1 if args.trace else MIN_PASSES
    passes, failed_instances, failures, spans_out, durations = [], [], [], [], []
    while len(passes) < min_passes or time.perf_counter() - start + statistics.median(durations) <= args.seconds:
        rng.shuffle(instances)
        traced = bool(args.trace) and len(passes) % 2 == 0
        began = time.perf_counter()
        try:
            record, failed = run_pass(len(passes), list(instances), traced, env, deadline, spans_out)
        except common.InputMismatch as exc:
            print(exc, file=sys.stderr)  # the child's own "error: ..." line
            return 2
        durations.append(time.perf_counter() - began)
        passes.append(record)
        failed_instances += failed
        if time.perf_counter() >= deadline:
            failures.append("stopped at the hard time limit")
            break
    for failure in failed_instances + failures:
        print("FAILED", failure, file=sys.stderr)

    measured = [p for p in passes if len(p["instances"]) == len(instances)]
    if not measured or (args.trace and not any(p["traced"] for p in measured)):
        print("error: no complete pass to measure", file=sys.stderr)
        return 1
    if args.trace:
        metrics = layer_metrics(args.workload, measured, failures)
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"columns": ["instance", "index", "name", "start", "end", "parent"], "spans": spans_out}, fh)
    else:
        metrics = end_to_end_metrics(measured)

    attempted = len(passes) * len(instances)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "backend": next((p["backend"] for p in passes if "backend" in p), None),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "passes": len(passes),
        "failed_ratio": len(failed_instances) / attempted,
        "measured_s": {f: sum(instance_medians(measured, f).values()) for f in ("wall_s", "cpu_s", "setup_s")},
        "reference_s": statistics.median(row["reference_s"] for p in measured for row in p["instances"].values()),
        "elapsed_s": time.perf_counter() - start,
        "per_pass": [{k: v for k, v in p.items() if k != "self"} for p in passes],
    }
    print(json.dumps(info))
    result = {
        "correct": not (failed_instances or failures),
        "attempted": attempted,
        "failed": len(failed_instances),
        "metrics": {name: {"value": value, "unit": unit} for name, (unit, value) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
