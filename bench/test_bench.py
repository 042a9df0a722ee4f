"""Tests of the benchmark itself: ``python3 -m pytest bench`` from the root.

They check that every count the traced run reports repeats exactly,
that each property check can fail, that the known ultraweak_dcr fault is
what fails, and that the benchmark refuses to run without dpgfem's
sources.  The workload runs take about two minutes on two cores.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import dpgfem  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import COUNT_METRICS, Tracer  # noqa: E402


def _traced_round(workload, out):
    return run.child(workload, "--out", str(out), "--trace", "1")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_repeat_exactly(workload, tmp_path):
    a = _traced_round(workload, tmp_path / "a")
    b = _traced_round(workload, tmp_path / "b")
    counts = list(COUNT_METRICS) + ["formulations.element_systems_per_cell"]
    assert {k: a["layers"][k] for k in counts} == \
        {k: b["layers"][k] for k in counts}
    assert (a["attempted"], a["failures"]) == (b["attempted"], b["failures"])
    assert run.identical([a, b]) == [True, True]
    assert all(note for _, _, note in a["failures"])


def test_only_the_known_fault_fails_in_study_2d(tmp_path):
    rnd = run.child("study_2d", "--out", str(tmp_path))
    assert [label for label, _, _ in rnd["failures"]] == \
        ["study_2d/ultraweak_dcr L2 rates"]


def test_rate_check_rejects_cli_and_accepts_case_params(tmp_path):
    path = tmp_path / "dcr.csv"
    assert wl.run_cli("dcr_study.cfg", path) == 0
    rows = wl.read_csv(path)
    hs = wl.column(rows, "h")
    assert not wl.check_rate(hs, wl.column(rows, "err_sigma"), 0.8)[0]

    case = dpgfem.manufactured_case("dcr_sine_2d")
    form = dpgfem.make_formulation("ultraweak_dcr", 1, params=case.params)
    lib = wl.solve_ladder(form, dpgfem.build_structured("unit-square", 2),
                          case, wl.DCR_LEVELS)
    hs = wl.column(lib, "h")
    for slot in ("u", "sigma"):
        assert wl.check_rate(hs, wl.column(lib, f"err_{slot}"), 0.8)[0]


@pytest.mark.parametrize("check, good, bad", [
    (wl.check_rate, ([0.5, 0.25], [1.0, 0.25], 1.8),
     ([0.5, 0.25], [1.0, 0.5], 1.8)),
    (wl.check_drift, ([1.0, 1.5], [1.0, 1.0]), ([1.0, 2.5], [1.0, 1.0])),
    (wl.check_effectivity, (1.0, 1.0, 1.0), (1.1, 1.0, 1.0)),
    (wl.check_rising_to, ([10, 20, 4000], 4000), ([10, 10, 4000], 4000)),
    (wl.check_rising_to, ([10, 20, 4000], 4000), ([10, 20, 3999], 4000)),
    (wl.check_falling, ([3.0, 2.0, 1.0],), ([3.0, 3.0, 1.0],)),
    (wl.check_slope, ([10, 100, 1000, 10000], [1.0, 0.05, 0.0025, 1.25e-4]),
     ([10, 100, 1000, 10000], [1.0, 0.46, 0.21, 0.1])),
    (wl.check_equal, ([5, 40, 320], [5, 40, 320]),
     ([5, 40, 160], [5, 40, 320])),
    (wl.check_below, ([1e-14, 1e-13], 1e-9), ([1e-14, 1e-6], 1e-9)),
])
def test_each_property_check_can_fail(check, good, bad):
    assert check(*good)[0]
    assert not check(*bad)[0]


def test_round_counts_missing_levels_and_records_as_failed(tmp_path):
    rnd = wl.Round("study_2d", tmp_path)
    rnd.levels("primal_poisson", [{"err_total": "0.1", "eta": "1.0"},
                                  {"err_total": "0.1", "eta": "nan"}], 3)
    assert rnd.attempted == 3
    assert [d for _, d, _ in rnd.failures] == ["non-finite result", "missing"]


def test_reports_that_differ_are_caught(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.write_text('{"pass": true}\n')
    b.write_text('{"pass": false}\n')
    rounds = [{"reports": [str(a)]}, {"reports": [str(b)]}]
    assert run.identical(rounds) == [False, False]


def test_tracer_restores_every_original():
    import dpgfem.system as system
    before = (system.cho_factor, system.trace_mass,
              system.Discretization.__dict__["assemble"])
    with Tracer() as tracer:
        assert system.cho_factor is not before[0]
        mesh = dpgfem.build_structured("unit-square", 1)
        dpgfem.refine_uniform(mesh)
    assert (system.cho_factor, system.trace_mass,
            system.Discretization.__dict__["assemble"]) == before
    assert tracer.layer_metrics()["meshes.cells"] == 2 + 8


def test_refuses_to_run_without_dpgfem_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    with pytest.raises(json.JSONDecodeError):
        json.loads(last)
