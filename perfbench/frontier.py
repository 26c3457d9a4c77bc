"""Frontier probe: the largest d at which `nchilb chow verify` passes in time.

    python3 perfbench/frontier.py

For each m in MS, runs `chow verify --m m --d d` for d = 1, 2, .. in a fresh
interpreter, one at a time, and stops at the first d that fails or does not
finish within LIMIT_S seconds (that instance is killed).  Prints one JSON
object: per m, the largest passing d and the seconds every tried d took.
This takes minutes, so `run.py` never runs it and nothing gates on it.
"""

import json
import subprocess
import sys
import time

import common

LIMIT_S = 60
MS = (2, 3, 4)


def verify_seconds(m, d, env):
    """Wall seconds of one passing `chow verify`, or None on failure or timeout."""
    cmd = [sys.executable, "-m", "nchilb.cli", "chow", "verify", "--m", str(m), "--d", str(d), "--format", "json"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, cwd=common.ROOT, text=True)
    try:
        stdout, _ = proc.communicate(timeout=LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None
    elapsed = time.perf_counter() - start
    try:
        verdicts = json.loads(stdout)
    except ValueError:
        return None
    if proc.returncode != 0 or verdicts != {"chern_basis": True, "poincare_match": True}:
        return None
    return elapsed


def main():
    env = common.child_env()
    frontier = {}
    for m in MS:
        tried = {}
        d = 1
        while True:
            seconds = verify_seconds(m, d, env)
            tried[d] = seconds
            print(f"m={m} d={d}: {'over the limit or failed' if seconds is None else f'{seconds:.2f} s'}", file=sys.stderr)
            if seconds is None:
                break
            d += 1
        frontier[m] = {"largest_d": d - 1, "seconds": tried}
    print(json.dumps({"limit_s": LIMIT_S, "frontier": frontier}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
