"""One round of one workload, in a fresh process.

Run by ``bench/run.py`` with ``src`` on PYTHONPATH:

    python3 bench/round.py --workload W --out DIR [--trace 1] [--setup-only]

It first times what a fresh dpgfem process pays before its first solve:
importing dpgfem plus building the workload's first formulation, mesh
and Discretization while the process-wide caches (modal and conforming
bases, quadrature rules) are still cold; for verify the import alone.
Then, unless ``--setup-only``, it times the whole workload in this now
warm process, with the tracer installed when ``--trace 1``.  The last
line of standard output is one JSON object with the figures.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

FIRST = {
    "study_2d": (("primal_poisson", 1, {}), "poisson_sine_2d",
                 ("unit-square", 2)),
    "study_maxwell": (("maxwell_primal_E", 1,
                       {"delta": 2, "mode": "economy"}),
                      "maxwell_sine_3d", ("unit-cube", 1)),
    "adaptive_lshape": (("primal_poisson", 2, {}), "poisson_lshape_singular",
                        ("l-shape", 2)),
    "verify": None,
}


def setup(workload):
    """Seconds to import dpgfem and build the first Discretization."""
    t0 = time.perf_counter()
    import dpgfem
    first = FIRST[workload]
    if first is not None:
        (fid, p, kw), case, (domain, n) = first
        form = dpgfem.make_formulation(fid, p, **kw)
        dpgfem.manufactured_case(case)
        dpgfem.Discretization(form, dpgfem.build_structured(domain, n))
    elapsed = time.perf_counter() - t0
    if Path(dpgfem.__file__).resolve().parent != SRC / "dpgfem":
        raise RuntimeError(f"imported dpgfem from {dpgfem.__file__}, "
                           f"not from {SRC}")
    return elapsed


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(FIRST))
    parser.add_argument("--out")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    result = {"setup_s": setup(args.workload)}
    if not args.setup_only:
        from tracer import Tracer
        from workloads import WORKLOADS, Round
        rnd = Round(args.workload, args.out)
        tracer = Tracer() if args.trace else None
        t0 = time.perf_counter()
        if tracer is None:
            WORKLOADS[args.workload](rnd)
        else:
            with tracer:
                WORKLOADS[args.workload](rnd)
        result["wall_s"] = time.perf_counter() - t0
        result["attempted"] = rnd.attempted
        result["failures"] = rnd.failures
        result["reports"] = [str(p) for p in rnd.reports]
        if tracer is not None:
            result["layers"] = tracer.layer_metrics()
            result["spans"] = len(tracer.spans)
            tracer.write(rnd.out / "trace.jsonl")
            with open(rnd.out / "trace_summary.json", "w",
                      encoding="utf-8") as fh:
                json.dump(tracer.summary(), fh, indent=1)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
