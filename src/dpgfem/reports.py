"""Deterministic CSV and JSON-lines writers for study and verify output."""

import json

import numpy as np


def format_value(v):
    """One CSV cell. Floats carry 17 significant digits so they
    round-trip exactly through a text parse."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def _jsonable(v):
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    return v


def write_report(records, path, format="csv", fieldnames=None):
    """Write homogeneous records to path as csv or jsonl.

    Column order follows fieldnames when given, otherwise the key order
    of the first record.  An empty record list with explicit fieldnames
    produces a header-only CSV.
    """
    if format not in ("csv", "jsonl"):
        raise ValueError(f"unknown report format {format!r}")
    if fieldnames is None:
        if not records:
            raise ValueError("fieldnames are required for an empty record list")
        fieldnames = list(records[0].keys())
    lines = []
    if format == "csv":
        lines.append(",".join(fieldnames))
        for rec in records:
            lines.append(",".join(format_value(rec[k]) for k in fieldnames))
    else:
        for rec in records:
            lines.append(json.dumps({k: _jsonable(rec[k]) for k in fieldnames}))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")
    return path


def fitted_rate(hs, errors, all_levels=False):
    """Log-log convergence slope.

    Default uses the last two levels; all_levels fits a least-squares
    line through every level.  Zero or negative entries yield nan.
    """
    hs = np.asarray(hs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if len(hs) < 2 or len(hs) != len(errors):
        return float("nan")
    if np.any(hs <= 0) or np.any(errors <= 0):
        return float("nan")
    if all_levels:
        slope = np.polyfit(np.log(hs), np.log(errors), 1)[0]
        return float(slope)
    return float(np.log(errors[-2] / errors[-1]) / np.log(hs[-2] / hs[-1]))
