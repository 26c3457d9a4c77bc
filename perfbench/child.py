"""One benchmark instance, run in a fresh interpreter by `run.py`.

    PYTHONPATH=src python3 perfbench/child.py --task verify --m 2 --d 5 --trace 0

Set-up (interpreter start, `import nchilb`, reading, digest-checking and
parsing stored inputs) ends at `ready`; a stored input that does not match
its manifest sha256 ends the child with exit code
`common.INPUT_MISMATCH_EXIT`.  The timed work runs from `ready` to `done`;
the correctness checks run after `done` and are neither timed nor traced.

The child times the fixed reference kernel `common.reference_seconds`
between the imports and the loading, every SAMPLE_EVERY_S seconds of the
work of an untraced child, and right after `done`.  The last line of
stdout is one JSON object with the two timestamps, the wall and CPU times
of those kernel runs in order, the CPU time and peak RSS as of `done`, the
counts, the spans of a traced run, and the list of failed checks (empty
when the instance is correct).
"""

import argparse
import contextlib
import io
import json
import resource
import signal
import sys
import time
import traceback

import common

# The kernel runs during the work too (by SIGALRM), so that an instance of
# several seconds is scaled by the machine's speed during it, not only at
# its two ends: the speed of a shared machine moves within seconds.
SAMPLE_EVERY_S = 1.0


def _coef_bits(polys):
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for g in polys for c in g.terms.values()),
        default=0,
    )


def _load_generators(m, d, manifest):
    import nchilb.polynomial

    text = common.read_generators_text(m, d, manifest)
    return [nchilb.polynomial.poly_from_text(line, nvars=d) for line in text.splitlines()]


def _run_cli(argv):
    import nchilb.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = nchilb.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _basis_checks(m, d, gb, quotient_dim, manifest, counts):
    """Seed digest and Fuss-Catalan count of one reduced basis; records its invariants."""
    counts["groebner.basis_polys"] = len(gb.polys)
    counts["groebner.basis_terms"] = sum(len(g.terms) for g in gb.polys)
    counts["groebner.basis_coef_bits_max"] = _coef_bits(gb.polys)
    counts["groebner.quotient_dim"] = quotient_dim
    errors = []
    if common.basis_digest(gb) != manifest["bases"][common.key(m, d)]["sha256"]:
        errors.append(f"({m}, {d}): reduced basis differs from the stored seed basis")
    if quotient_dim != common.fuss_catalan(m, d):
        errors.append(
            f"({m}, {d}): quotient dimension {quotient_dim} != Fuss-Catalan {common.fuss_catalan(m, d)}"
        )
    return errors


class Verify:
    """`nchilb chow verify --format json` through `nchilb.cli.main`."""

    def __init__(self, m, d, manifest, traced):
        import nchilb.cli  # noqa: F401  (the CLI user's import)

        self.m, self.d, self.manifest = m, d, manifest
        self.loaded = []
        # the traced run checks the computed e-generators against the stored ones
        self.stored = None
        if traced and common.key(m, d) in manifest["generators"]:
            self.stored = common.read_generators_text(m, d, manifest)

    def run(self):
        return _run_cli(["chow", "verify", "--m", str(self.m), "--d", str(self.d), "--format", "json"])

    def check(self, output, counts, tracer):
        import nchilb.cli

        code, stdout = output
        errors = [] if code == 0 else [f"exit code {code}"]
        try:
            verdicts = json.loads(stdout)
        except ValueError:
            verdicts = stdout
        if verdicts != {"chern_basis": True, "poincare_match": True}:
            errors.append(f"verdicts {verdicts!r}")
        gb = nchilb.cli.kernel_ideal(self.m, self.d)  # cached by the run
        errors += _basis_checks(self.m, self.d, gb, gb.quotient_dimension(), self.manifest, counts)
        if self.stored is not None:
            computed = common.generators_text(tracer.results["polynomial.to_elementary"])
            if computed != self.stored:
                errors.append(f"({self.m}, {self.d}): e-generators differ from the stored file")
        return errors


class PaperExample:
    """`nchilb paper-example --format json` through `nchilb.cli.main`."""

    def __init__(self, m, d, manifest, traced):
        import nchilb.cli  # noqa: F401

        self.loaded = []

    def run(self):
        return _run_cli(["paper-example", "--format", "json"])

    def check(self, output, counts, tracer):
        code, stdout = output
        errors = [] if code == 0 else [f"exit code {code}"]
        try:
            all_ok = json.loads(stdout)["all_ok"]
        except (ValueError, KeyError, TypeError):
            all_ok = None
        if all_ok is not True:
            errors.append(f"paper-example all_ok is {all_ok!r}")
        return errors


class Reduce:
    """The rest of `presentation_report` on stored e-generators."""

    def __init__(self, m, d, manifest, traced):
        import nchilb

        self.m, self.d, self.manifest = m, d, manifest
        self.presentation = nchilb.presentation
        self.max_deg = nchilb.forests.ambient_dimension(m, d, 1)
        self.loaded = _load_generators(m, d, manifest)

    def run(self):
        p = self.presentation
        gb = p.buchberger(self.loaded, p.e_weights(self.d))
        hilbert = gb.hilbert_function(self.max_deg)
        standard = gb.standard_monomials()
        chern = p.verify_chern_basis(self.m, self.d, gb)
        poincare = p.verify_poincare_match(self.m, self.d, gb)
        return gb, hilbert, standard, chern, poincare

    def check(self, output, counts, tracer):
        gb, hilbert, standard, chern, poincare = output
        errors = _basis_checks(self.m, self.d, gb, len(standard), self.manifest, counts)
        if sum(hilbert) != len(standard):
            errors.append(f"({self.m}, {self.d}): Hilbert function sums to {sum(hilbert)}, not {len(standard)}")
        if not (chern and poincare):
            errors.append(f"({self.m}, {self.d}): verdicts chern_basis={chern} poincare_match={poincare}")
        return errors


class Minimal:
    """`minimal_generator_subset` on stored e-generators."""

    def __init__(self, m, d, manifest, traced):
        import nchilb

        self.m, self.d, self.manifest = m, d, manifest
        self.presentation = nchilb.presentation
        self.groebner = nchilb.groebner
        self.loaded = _load_generators(m, d, manifest)

    def run(self):
        p = self.presentation
        return p.minimal_generator_subset(self.loaded, p.e_weights(self.d))

    def check(self, subset, counts, tracer):
        weights = self.presentation.e_weights(self.d)
        counts["presentation.minimal_generators"] = len(subset)
        errors = []
        rest = iter(self.loaded)
        if not all(any(g == h for h in rest) for g in subset):
            errors.append(f"({self.m}, {self.d}): subset is not a sub-list of the generators")
        full = self.groebner.buchberger(self.loaded, weights)
        errors += _basis_checks(self.m, self.d, full, full.quotient_dimension(), self.manifest, counts)
        if not subset or not self.groebner.ideal_equals(self.groebner.buchberger(subset, weights), full):
            errors.append(f"({self.m}, {self.d}): subset does not generate the kernel ideal")
        # inclusion-minimal: no member lies in the ideal of the others
        for i, g in enumerate(subset):
            rest = subset[:i] + subset[i + 1 :]
            if rest and self.groebner.buchberger(rest, weights).contains(g):
                errors.append(f"({self.m}, {self.d}): subset is not inclusion-minimal")
                break
        return errors


class Multiplicity:
    """`local_multiplicity` of the worked example with 200 trials."""

    def __init__(self, m, d, manifest, traced):
        import nchilb.cli

        self.presentation = nchilb.presentation
        self.pair = nchilb.cli._worked_example_pair()
        self.loaded = []

    def run(self):
        return self.presentation.local_multiplicity(self.pair, trials=200, seed=0)

    def check(self, value, counts, tracer):
        return [] if value == 4 else [f"local multiplicity {value!r}, expected 4"]


TASKS = {
    "verify": Verify,
    "paper-example": PaperExample,
    "reduce": Reduce,
    "minimal": Minimal,
    "multiplicity": Multiplicity,
}


def _layer_counts(tracer, task, counts):
    gens = [g for result in tracer.results["coha.kernel_generators"] for g in result]
    counts["coha.generators"] = len(gens)
    counts["coha.x_terms"] = sum(len(g.poly.terms) for g in gens)
    e_gens = tracer.results["polynomial.to_elementary"] + task.loaded
    counts["polynomial.e_terms"] = sum(len(g.terms) for g in e_gens)
    counts["polynomial.e_coef_bits_max"] = _coef_bits(e_gens)
    counts["forests.forests"] = sum(sum(c) for c in tracer.results["forests.census"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--task", choices=sorted(TASKS), required=True)
    parser.add_argument("--m", type=int)
    parser.add_argument("--d", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import nchilb

    reference_before = common.reference_seconds()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        task = TASKS[args.task](args.m, args.d, common.load_manifest(), bool(tracer))
    except common.InputMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return common.INPUT_MISMATCH_EXIT

    samples = []
    signal.signal(signal.SIGALRM, lambda signum, frame: samples.append(common.reference_seconds()))
    ready = time.perf_counter()
    if tracer is None:  # spans of a traced pass hold no kernel runs
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    errors = []
    output = None
    try:
        output = task.run()
    except Exception:
        errors.append(traceback.format_exc())
    signal.setitimer(signal.ITIMER_REAL, 0)
    done = time.perf_counter()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    reference_after = common.reference_seconds()

    counts = {}
    if tracer is not None:
        tracer.enabled = False
    if not errors:
        try:
            errors += task.check(output, counts, tracer)
            if tracer is not None:
                _layer_counts(tracer, task, counts)
        except Exception:
            errors.append(traceback.format_exc())
    result = {
        "ready": ready,
        "reference_s": [reference_before[0]] + [s[0] for s in samples] + [reference_after[0]],
        "reference_cpu_s": [reference_before[1]] + [s[1] for s in samples] + [reference_after[1]],
        "done": done,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "backend": nchilb.BACKEND,
        "errors": errors,
        "counts": counts,
        "spans": tracer.spans if tracer is not None else None,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
