"""dpgfem benchmark: fixed workloads, end to end or traced per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload study_2d --seed 0 --seconds 25 --trace 0

Every round of a workload runs in a fresh process (``bench/round.py``),
so each round pays, and times apart, what a user's process pays:
``setup_s`` is the import plus the first Discretization, ``wall_s`` the
whole workload after it, ``peak_rss_mb`` the process's peak memory.

With ``--trace 0`` it runs rounds until ``--seconds`` have passed (at
least one, and two for verify, whose rounds are compared with each
other), each followed by one set-up-only process so that the set-up
samples span the run, adds set-up-only processes up to five set-up
samples, and reports the medians.  With ``--trace 1`` it runs one
untraced and one traced round and reports the per-layer metrics of the
traced one plus the tracing overhead.  Every round's reports must be
byte-identical to another round's, traced or not.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.

The workloads are fixed inputs; ``--seed`` is accepted and recorded but
changes nothing, since the only seeds the program takes (verify's seed
and the opnorm start vector) are pinned at 0 so that reports stay
comparable byte for byte.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("study_2d", "study_maxwell", "adaptive_lshape", "verify")
# One process, one compute thread: BLAS capped before numpy loads, and
# verify keeps its default single worker.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 5
ROUND_TIMEOUT_S = 150

# Byte-identity of the reports across rounds is itself one of the listed
# operations only for verify; elsewhere it decides whether a run is
# correct.
IDENTITY_OPS = {"verify": "verify/JSONL identical across runs"}


def _environ():
    env = dict(os.environ)
    env.update(THREADS)
    env.pop("DPG_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def child(workload, *args):
    """Run bench/round.py in a fresh process and return its JSON."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "round.py"), "--workload", workload,
         *args],
        env=_environ(), cwd=ROOT, capture_output=True, text=True,
        timeout=ROUND_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"round process failed ({proc.returncode}):\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def identical(rounds):
    """Per round, whether its reports match those of another round
    (round 0 is compared with round 1, the others with round 0); a
    lone round has nothing to differ from."""
    if len(rounds) == 1:
        return [True]
    same = []
    for i, rnd in enumerate(rounds):
        other = rounds[1 if i == 0 else 0]
        same.append(len(rnd["reports"]) == len(other["reports"]) and all(
            Path(a).read_bytes() == Path(b).read_bytes()
            for a, b in zip(rnd["reports"], other["reports"])))
    return same


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_per_cell"):
        return "ratio"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dpgfem" / "__init__.py").is_file():
        print(f"bench: no dpgfem sources under {SRC}", file=sys.stderr)
        return 2

    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    rounds = []
    setups = []
    if args.trace:
        rounds.append(child(args.workload, "--out", str(out / "untraced")))
        rounds.append(child(args.workload, "--out", str(out / "traced"),
                            "--trace", "1"))
    else:
        # Set-up-only processes are interleaved with the rounds, so that
        # the set-up samples span the whole run as the rounds do.
        least = 2 if args.workload in IDENTITY_OPS else 1
        start = time.perf_counter()
        while (len(rounds) < least
               or time.perf_counter() - start < args.seconds):
            rounds.append(child(args.workload,
                                "--out", str(out / f"round{len(rounds)}")))
            setups.append(child(args.workload, "--setup-only")["setup_s"])
        setups.extend(r["setup_s"] for r in rounds)
        while len(setups) < SETUP_SAMPLES:
            setups.append(child(args.workload, "--setup-only")["setup_s"])

    same = identical(rounds)
    failures = [tuple(f) for r in rounds for f in r["failures"]]
    attempted = sum(r["attempted"] for r in rounds)
    if args.workload in IDENTITY_OPS:
        attempted += len(rounds)
        failures += [(IDENTITY_OPS[args.workload], "reports differ", None)
                     for ok in same if not ok]
    correct = all(same) and all(note for _, _, note in failures)

    walls = [r["wall_s"] for r in rounds]
    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} "
          f"rounds, wall_s " + ", ".join(f"{w:.3f}" for w in walls))
    for label, detail, note in dict.fromkeys(failures):
        print(f"FAILED {label}: {detail}" + (f" [{note}]" if note else ""))
    if not all(same):
        print("FAILED reports are not byte-identical across rounds")

    if args.trace:
        traced = rounds[1]
        metrics = {name: {"value": value, "unit": _unit(name)}
                   for name, value in traced["layers"].items()}
        metrics["trace.overhead_s"] = {"value": walls[1] - walls[0],
                                       "unit": "s"}
        metrics["trace.spans"] = {"value": traced["spans"], "unit": "count"}
        print(f"tracing: spans written to {out / 'traced' / 'trace.jsonl'}")
    else:
        print("setup_s " + ", ".join(f"{t:.4f}" for t in setups))
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                r["peak_rss_mb"] for r in rounds), "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  operations attempted {attempted}, failed {len(failures)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
