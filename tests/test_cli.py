"""Report writers and the config-driven command line driver."""

import csv
import json
import math

import numpy as np
import pytest

from dpgfem.cli import main, parse_config
from dpgfem.formulations import make_formulation, manufactured_case
from dpgfem.meshes import build_structured
from dpgfem.reports import fitted_rate, write_report
from dpgfem.system import Discretization


def _write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return reader.fieldnames, list(reader)


# -- report writing --------------------------------------------------------


def test_write_report_header_only_for_empty_records(tmp_path):
    out = tmp_path / "empty.csv"
    write_report([], out, "csv", fieldnames=["a", "b"])
    assert out.read_text() == "a,b\n"


def test_write_report_needs_fieldnames_when_empty(tmp_path):
    with pytest.raises(ValueError):
        write_report([], tmp_path / "x.csv", "csv")


def test_write_report_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="format"):
        write_report([{"a": 1}], tmp_path / "x.bin", "binary")


def test_csv_floats_round_trip(tmp_path):
    val = 0.1 + 0.2
    out = tmp_path / "v.csv"
    write_report([{"v": val, "flag": True, "n": 3}], out, "csv")
    names, rows = _read_csv(out)
    assert names == ["v", "flag", "n"]
    assert float(rows[0]["v"]) == val
    assert rows[0]["flag"] == "true"
    assert rows[0]["n"] == "3"


def test_jsonl_round_trip(tmp_path):
    recs = [{"suite": "s", "value": 0.25, "pass": True},
            {"suite": "t", "value": float("inf"), "pass": False}]
    out = tmp_path / "r.jsonl"
    write_report(recs, out, "jsonl")
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0]) == recs[0]


def test_fitted_rate_recovers_exact_power():
    hs = [1.0, 0.5, 0.25]
    errs = [0.7 * h ** 2 for h in hs]
    assert fitted_rate(hs, errs) == pytest.approx(2.0, abs=1e-12)
    assert fitted_rate(hs, errs, all_levels=True) == pytest.approx(2.0,
                                                                   abs=1e-12)


def test_fitted_rate_guards():
    assert math.isnan(fitted_rate([1.0], [0.5]))
    assert math.isnan(fitted_rate([1.0, 0.5], [0.5, 0.0]))


# -- config parsing and validation ------------------------------------------


def test_unknown_config_key_is_named(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "mode = verify\nfoo = 1\n")
    assert main([cfg]) == 2
    assert "'foo'" in capsys.readouterr().err


def test_missing_required_keys_are_listed(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "mode = study\n")
    assert main([cfg]) == 2
    err = capsys.readouterr().err
    for key in ("formulation", "case", "domain", "levels", "out"):
        assert key in err


def test_malformed_line_is_located(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "mode verify\n")
    assert main([cfg]) == 2
    assert "key=value" in capsys.readouterr().err


def test_key_given_twice_is_rejected(tmp_path, capsys):
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    cfg = _write_cfg(tmp_path, f"mode = verify\nout = {first}\n# again\n"
                               f"out = {second}\n")
    assert main([cfg]) == 2
    assert (f"{cfg}:4: config key 'out' is given again (first on line 2)"
            in capsys.readouterr().err)
    assert not first.exists() and not second.exists()


def test_command_line_overrides_the_file(tmp_path):
    cfg = _write_cfg(tmp_path, "mode = describe\nformulation = primal_poisson"
                               "\nout = a.json\nseed = 1\n")
    got = parse_config(cfg, overrides={"mode": "verify", "out": "b.jsonl",
                                       "seed": 2})
    assert (got.mode, got.out, got.seed) == ("verify", "b.jsonl", 2)
    kept = parse_config(cfg, overrides={"mode": None, "out": None,
                                        "seed": None})
    assert (kept.mode, kept.out, kept.seed) == ("describe", "a.json", 1)


def test_integer_key_rejects_text(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "mode = study\np = abc\n")
    assert main([cfg]) == 2
    assert "integer" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert main([str(tmp_path / "nope.cfg")]) == 2
    assert "error" in capsys.readouterr().err


def test_adaptive_requires_stop_key(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "\n".join([
        "mode = adaptive", "formulation = primal_poisson",
        "case = poisson_lshape_singular", "domain = l-shape",
        "out = x.csv"]) + "\n")
    assert main([cfg]) == 2
    assert "max_iterations or max_dofs" in capsys.readouterr().err


@pytest.mark.parametrize("line,message", [
    ("max_iterations = 0", "max_iterations must be a positive integer"),
    ("max_dofs = -5", "max_dofs must be a positive integer"),
    ("seed = -1", "seed must be a nonnegative integer"),
    ("p = 0", "p must be a positive integer"),
    ("delta = 0", "delta must be a positive integer"),
    ("levels = 0", "levels must be a positive integer"),
])
def test_adaptive_limits_are_checked(tmp_path, capsys, line, message):
    stop = "" if line.startswith("max_") else "max_iterations = 2\n"
    cfg = _write_cfg(tmp_path, "\n".join([
        "mode = adaptive", "formulation = primal_poisson",
        "case = poisson_lshape_singular", "domain = l-shape",
        "out = x.csv", line]) + "\n" + stop)
    assert main([cfg]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("mode,formulation,case,domain,message", [
    ("study", "primal_poisson", "maxwell_sine_3d", "unit-cube",
     "case 'maxwell_sine_3d' has no field 'f2'"),
    ("study", "primal_poisson", "poisson_sine_2d", "unit-cube",
     "case 'poisson_sine_2d' is 2-dimensional"),
    ("adaptive", "maxwell_primal_E", "poisson_lshape_singular", "unit-cube",
     "case 'poisson_lshape_singular' is 2-dimensional"),
], ids=["study-missing-field", "study-dimension", "adaptive-dimension"])
def test_case_that_does_not_fit_is_a_config_error(tmp_path, capsys, mode,
                                                  formulation, case, domain,
                                                  message):
    cfg = _write_cfg(tmp_path, "\n".join([
        f"mode = {mode}", f"formulation = {formulation}", f"case = {case}",
        f"domain = {domain}", "subdivisions = 1", "levels = 2",
        "max_iterations = 2", "out = x.csv"]) + "\n")
    assert main([cfg]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_discretization_names_a_missing_case_field():
    form = make_formulation("primal_poisson", 1, dim=3)
    disc = Discretization(form, build_structured("unit-cube", 1))
    case = manufactured_case("maxwell_sine_3d")
    with pytest.raises(ValueError, match="'maxwell_sine_3d' has no field 'f2'"):
        disc.assemble(case)


# -- driver runs -------------------------------------------------------------


_STUDY = """
# three uniform levels of the smooth sine case
mode = study
formulation = primal_poisson
p = 1
case = poisson_sine_2d
domain = unit-square
subdivisions = 2
levels = 3
out = {out}
"""


def test_study_writes_convergence_table(tmp_path):
    out = tmp_path / "study.csv"
    cfg = _write_cfg(tmp_path, _STUDY.format(out=out))
    assert main([cfg]) == 0
    names, rows = _read_csv(out)
    assert names == ["level", "h", "dofs", "err_u", "err_sighat",
                     "err_total", "eta", "rate"]
    assert len(rows) == 3
    assert [r["level"] for r in rows] == ["0", "1", "2"]
    assert float(rows[0]["err_u"]) == pytest.approx(0.46688724557331429,
                                                    rel=1e-9)
    assert math.isnan(float(rows[0]["rate"]))
    assert math.isnan(float(rows[1]["rate"]))
    assert float(rows[2]["rate"]) == pytest.approx(1.9556611429838529,
                                                   rel=1e-9)


def test_study_rate_all_levels_flag(tmp_path):
    out = tmp_path / "study.csv"
    cfg = _write_cfg(tmp_path, _STUDY.format(out=out))
    assert main([cfg, "--rate-all-levels"]) == 0
    _, rows = _read_csv(out)
    fitted = float(rows[2]["rate"])
    assert fitted == pytest.approx(1.91, abs=0.05)
    assert fitted != pytest.approx(1.9556611429838529, rel=1e-9)


def test_adaptive_writes_history(tmp_path):
    out = tmp_path / "adapt.csv"
    cfg = _write_cfg(tmp_path, "\n".join([
        "mode = adaptive", "formulation = primal_poisson", "p = 1",
        "case = poisson_lshape_singular", "domain = l-shape",
        "subdivisions = 2", "theta = 0.5", "max_iterations = 3",
        f"out = {out}"]) + "\n")
    assert main([cfg]) == 0
    with open(out) as fh:
        header = fh.readline().rstrip("\n")
    assert header == "iteration,dofs,eta,error_total_or_nan,cells"
    names, rows = _read_csv(out)
    assert len(rows) == 3
    assert math.isnan(float(rows[0]["error_total_or_nan"]))
    dofs = [int(r["dofs"]) for r in rows]
    assert dofs == sorted(dofs) and len(set(dofs)) == 3


def test_verify_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    base = "mode = verify\nsuites = stability\nout = {}\n"
    assert main([_write_cfg(tmp_path, base.format(out1), "v1.cfg")]) == 0
    assert main([_write_cfg(tmp_path, base.format(out2), "v2.cfg")]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    recs = [json.loads(line) for line in out1.read_text().splitlines()]
    assert len(recs) == 2
    assert all(set(r) == {"suite", "case", "value", "tolerance", "pass"}
               for r in recs)
    assert all(r["pass"] is True for r in recs)


def test_verify_unknown_suite(tmp_path, capsys):
    cfg = _write_cfg(tmp_path,
                     "mode = verify\nsuites = nope\nout = x.jsonl\n")
    assert main([cfg]) == 2
    assert "suite" in capsys.readouterr().err


@pytest.mark.parametrize("suites,message", [
    (",", "suites names no verification suite"),
    ("", "suites names no verification suite"),
    ("stability, stability", "suites names 'stability' twice"),
], ids=["comma", "blank", "repeated"])
def test_verify_suites_must_name_each_suite_once(tmp_path, capsys, suites,
                                                 message):
    out = tmp_path / "x.jsonl"
    cfg = _write_cfg(tmp_path, f"mode = verify\nsuites = {suites}\n"
                               f"out = {out}\n")
    assert main([cfg]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_describe_prints_structure(tmp_path, capsys):
    cfg = _write_cfg(tmp_path,
                     "mode = describe\nformulation = maxwell_ultraweak\n")
    assert main([cfg]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["dim"] == 3
    assert info["dtype"] == "complex128"
    assert sorted(s["name"] for s in info["trial_slots"]) == ["E", "H"]
    assert sorted(s["name"] for s in info["interface_slots"]) \
        == ["Ehat", "Hhat"]
    assert len(info["test_slots"]) == 2


def test_mode_override_wins(tmp_path):
    out = tmp_path / "d.json"
    cfg = _write_cfg(tmp_path, "\n".join([
        "mode = verify", "formulation = primal_poisson",
        f"out = {out}"]) + "\n")
    assert main([cfg, "--mode", "describe"]) == 0
    info = json.loads(out.read_text())
    assert info["formulation"] == "primal_poisson"
