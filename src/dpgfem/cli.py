"""Config-driven driver for studies, adaptive runs and verification.

The config is a flat key=value text file with "#" comments.  One
positional argument names the file; --mode, --out and --seed override
the corresponding keys.  The keys are tables, each read by one loop:
their types (``_TYPES``), defaults, the keys each mode requires, and
the least value of each integer key that has one.
"""

import argparse
import json
import sys

import numpy as np

from .adaptivity import HISTORY_COLUMNS, adaptive_solve
from .formulations import check_case, make_formulation, manufactured_case
from .meshes import build_structured, refine_uniform
from .reports import fitted_rate, write_report
from .system import Discretization
from .verification import verify_records


class ConfigError(ValueError):
    pass


# every config key and the type its text is read as
_TYPES = (dict.fromkeys(("p", "delta", "subdivisions", "levels",
                         "max_iterations", "max_dofs", "seed"), int)
          | {"theta": float}
          | dict.fromkeys(("mode", "formulation", "domain", "case", "out",
                           "suites"), str))

_REQUIRED = {
    "study": ("formulation", "case", "domain", "levels", "out"),
    "adaptive": ("formulation", "case", "domain", "out"),
    "verify": ("out",),
    "describe": ("formulation",),
}

_MODES = tuple(_REQUIRED)

_DEFAULTS = {"p": 1, "delta": 3, "subdivisions": 2, "theta": 0.5, "seed": 0}

# the least value of an integer key, checked whenever the key is given
_LEAST = {"p": 1, "delta": 1, "levels": 1, "max_iterations": 1,
          "max_dofs": 1, "seed": 0}


class StudyConfig:
    """Validated flat configuration for one driver run; its keys are
    those of ``_TYPES``, already checked by ``_coerce``."""

    def __init__(self, values):
        merged = dict(_DEFAULTS)
        merged.update(values)
        mode = merged.get("mode")
        if mode is None:
            raise ConfigError("missing required config keys: mode")
        if mode not in _MODES:
            raise ConfigError(
                f"mode must be one of {', '.join(_MODES)}, got {mode!r}")
        missing = [k for k in _REQUIRED[mode] if k not in merged]
        if mode == "adaptive" and "max_iterations" not in merged \
                and "max_dofs" not in merged:
            missing.append("max_iterations or max_dofs")
        if missing:
            raise ConfigError(
                "missing required config keys: " + ", ".join(missing))
        for key, least in _LEAST.items():
            if key in merged and merged[key] < least:
                kind = "positive" if least else "nonnegative"
                raise ConfigError(f"{key} must be a {kind} integer, got "
                                  f"{merged[key]}")
        if not 0.0 < merged["theta"] <= 1.0:
            raise ConfigError("theta must lie in (0, 1]")
        for k, v in merged.items():
            setattr(self, k, v)
        self.values = merged

    def get(self, key, default=None):
        return self.values.get(key, default)


def _coerce(key, raw):
    kind = _TYPES.get(key)
    if kind is None:
        raise ConfigError(f"unknown config key {key!r}")
    try:
        return kind(raw)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(
            f"config key {key!r} needs {what}, got {raw!r}") from None


def parse_config(path, overrides=None):
    """The file's keys, each given once, then the command-line overrides
    (``--mode``, ``--out``, ``--seed``) that are not None."""
    values, seen = {}, {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(
                    f"{path}:{lineno}: expected key=value, got {text!r}")
            key, raw = (s.strip() for s in text.split("=", 1))
            if key in seen:
                raise ConfigError(f"{path}:{lineno}: config key {key!r} "
                                  f"is given again (first on line "
                                  f"{seen[key]})")
            seen[key] = lineno
            values[key] = _coerce(key, raw)
    for key, raw in (overrides or {}).items():
        if raw is not None:
            values[key] = _coerce(key, str(raw))
    return StudyConfig(values)


def _formulation_for(cfg, mesh_dim):
    try:
        return make_formulation(cfg.formulation, p=cfg.p, delta=cfg.delta,
                                dim=mesh_dim)
    except (KeyError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def _case_for(cfg):
    try:
        return manufactured_case(cfg.case)
    except (KeyError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def _problem(cfg):
    """The level-0 mesh, the case and the formulation of a study or an
    adaptive run, with the case checked against the formulation."""
    try:
        mesh = build_structured(cfg.domain, cfg.subdivisions)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    case = _case_for(cfg)
    form = _formulation_for(cfg, mesh.dim)
    try:
        check_case(form, case)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return mesh, case, form


def run_study(cfg, rate_all_levels=False):
    mesh, case, form = _problem(cfg)
    slot_names = [s.name for s in form.trial_slots + form.interface_slots]
    fields = ["level", "h", "dofs"] + [f"err_{n}" for n in slot_names] \
        + ["err_total", "eta", "rate"]
    rows = []
    hs, errs = [], []
    for level in range(cfg.levels):
        if level > 0:
            mesh = refine_uniform(mesh)
        disc = Discretization(form, mesh)
        A, f = disc.assemble(case)
        x = disc.solve(A, f)
        est = disc.estimate(x, case)
        row = {"level": level, "h": mesh.mesh_size, "dofs": disc.ndof,
               "eta": est.eta, "rate": float("nan")}
        if case.has_exact:
            errors = disc.measure_error(x, case)
            for n in slot_names:
                row[f"err_{n}"] = errors[n]["natural"]
            row["err_total"] = errors["total"]
        else:
            for n in slot_names:
                row[f"err_{n}"] = float("nan")
            row["err_total"] = float("nan")
        hs.append(row["h"])
        errs.append(row["err_total"] if case.has_exact else row["eta"])
        rows.append(row)
    if len(rows) > 1:
        rows[-1]["rate"] = fitted_rate(hs, errs, all_levels=rate_all_levels)
    write_report(rows, cfg.out, "csv", fieldnames=fields)
    return 0


def run_adaptive(cfg):
    mesh0, case, form = _problem(cfg)
    history, _ = adaptive_solve(
        form, mesh0, case, cfg.theta,
        max_iterations=cfg.get("max_iterations"),
        max_dofs=cfg.get("max_dofs"))
    write_report(history.rows(), cfg.out, "csv",
                 fieldnames=list(HISTORY_COLUMNS))
    return 0


def run_verify(cfg):
    suites = None
    if cfg.get("suites") is not None:
        suites = tuple(s.strip() for s in cfg.suites.split(",") if s.strip())
    try:
        records = verify_records(seed=cfg.seed, suites=suites)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    write_report(records, cfg.out, "jsonl",
                 fieldnames=["suite", "case", "value", "tolerance", "pass"])
    return 0 if all(r["pass"] for r in records) else 1


def run_describe(cfg, stream=None):
    stream = stream or sys.stdout
    form = _formulation_for(cfg, None)

    def slot_info(s):
        return {"name": s.name, "family": s.family, "degree": s.degree,
                "continuity": s.continuity, "ncomp": s.ncomp,
                "zero_boundary": s.zero_boundary}

    info = {
        "formulation": cfg.formulation,
        "dim": form.dim,
        "dtype": str(np.dtype(form.dtype)),
        "trial_slots": [slot_info(s) for s in form.trial_slots],
        "interface_slots": [slot_info(s) for s in form.interface_slots],
        "test_slots": [slot_info(s) for s in form.test_slots],
    }
    text = json.dumps(info, indent=2)
    if cfg.get("out"):
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text, file=stream)
    return 0


def run_config(cfg, rate_all_levels=False):
    if cfg.mode == "study":
        return run_study(cfg, rate_all_levels=rate_all_levels)
    if cfg.mode == "adaptive":
        return run_adaptive(cfg)
    if cfg.mode == "verify":
        return run_verify(cfg)
    return run_describe(cfg)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="dpgfem",
        description="Run a convergence study, adaptive loop, or "
                    "verification suite from a key=value config file.")
    parser.add_argument("config", help="path to the config file")
    parser.add_argument("--mode", choices=_MODES)
    parser.add_argument("--out", help="override the output path")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--rate-all-levels", action="store_true",
                        help="fit the study rate over all levels instead "
                             "of the last two")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config, overrides={
            "mode": args.mode, "out": args.out, "seed": args.seed})
        return run_config(cfg, rate_all_levels=args.rate_all_levels)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
