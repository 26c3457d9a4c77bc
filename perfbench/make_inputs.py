"""Regenerate the benchmark's stored inputs from the library.

Writes `inputs/m<m>_d<d>.txt` (the e-coordinate kernel generators) for every
(m, d) in `common.STORED_GENERATORS`, and `inputs/manifest.json` with the
sha256 of each file and of the reduced basis for every (m, d) in
`common.STORED_BASES`.  Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_inputs.py

It takes a few minutes with the Fraction backend, almost all of it (2, 6)
and (3, 5).  Regenerating on a library whose output differs makes every
later benchmark run compare against the new output, so only do it on a
commit whose generators and bases are known to be right.
"""

import json
import os
import platform
import sys
import time

import common


def main():
    from nchilb.presentation import buchberger, e_weights, kernel_ideal, kernel_ideal_generators
    from nchilb.rationals import BACKEND

    os.makedirs(common.INPUTS, exist_ok=True)
    manifest = {"backend": BACKEND, "python": platform.python_version(), "generators": {}, "bases": {}}
    for m, d in common.STORED_BASES:
        start = time.perf_counter()
        if (m, d) in common.STORED_GENERATORS:
            gens = kernel_ideal_generators(d, m)
            gb = buchberger(gens, e_weights(d))
            data = common.generators_text(gens).encode()
            name = common.key(m, d) + ".txt"
            with open(os.path.join(common.INPUTS, name), "wb") as fh:
                fh.write(data)
            manifest["generators"][common.key(m, d)] = {
                "m": m,
                "d": d,
                "file": name,
                "sha256": common.sha256_hex(data),
                "count": len(gens),
            }
        else:
            gb = kernel_ideal(m, d)
        quotient_dim = gb.quotient_dimension()
        if quotient_dim != common.fuss_catalan(m, d):
            sys.exit(f"(m, d) = ({m}, {d}): quotient dimension {quotient_dim} is not the Fuss-Catalan count")
        manifest["bases"][common.key(m, d)] = {
            "m": m,
            "d": d,
            "sha256": common.basis_digest(gb),
            "polys": len(gb.polys),
            "quotient_dim": quotient_dim,
        }
        print(f"({m}, {d}): {time.perf_counter() - start:.1f} s", file=sys.stderr)
    with open(common.MANIFEST, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
