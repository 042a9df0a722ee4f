"""In-memory span tracer that wraps dpgfem's layer boundaries from outside.

The program's source is not touched.  ``Tracer.install()`` swaps each
traced function for a timing wrapper wherever a dpgfem module binds it
(``from .spaces import trace_mass`` in ``system`` included), and
``Tracer.remove()`` puts every original back.  Spans are kept in memory
as ``[name, parent, start, end]`` and written out after the run; a
span's self time is its duration minus that of its direct children.
"""

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name).  A module-level function is replaced
# in every dpgfem module that binds it; a scipy function only in the
# module named, so that only the calls that module makes are counted.
FUNCTIONS = (
    ("dpgfem.meshes", "build_structured", "meshes.build_structured"),
    ("dpgfem.meshes", "refine_uniform", "meshes.refine_uniform"),
    ("dpgfem.meshes", "refine_marked", "meshes.refine_marked"),
    ("dpgfem.formulations", "y_gram", "formulations.y_gram"),
    ("dpgfem.formulations", "b0_block", "formulations.b0_block"),
    ("dpgfem.formulations", "bhat_block", "formulations.bhat_block"),
    ("dpgfem.formulations", "load_vector", "formulations.load_vector"),
    ("dpgfem.system", "condense", "system.condense"),
    ("dpgfem.system", "cho_factor", "system.cho_factor"),
    ("dpgfem.system", "splu", "system.splu"),
    ("dpgfem.spaces", "trace_mass", "spaces.trace_mass"),
    ("dpgfem.spaces", "trace_rhs", "spaces.trace_rhs"),
    ("dpgfem.spaces", "skeleton_quotient_apply",
     "spaces.skeleton_quotient_apply"),
    ("dpgfem.spaces", "skeleton_quotient_gram",
     "spaces.skeleton_quotient_gram"),
    ("dpgfem.adaptivity", "mark", "adaptivity.mark"),
    ("dpgfem.adaptivity", "adaptive_solve", "adaptivity.adaptive_solve"),
    ("dpgfem.fortin", "fortin_build", "fortin.fortin_build"),
    ("dpgfem.fortin", "fortin_moments", "fortin.fortin_moments"),
    ("dpgfem.fortin", "fortin_commuting", "fortin.fortin_commuting"),
    ("dpgfem.verification", "duality_suite", "verification.duality_suite"),
    ("dpgfem.verification", "duality_norms", "verification.duality_norms"),
    ("dpgfem.verification", "annihilation_check",
     "verification.annihilation_check"),
    ("dpgfem.verification", "infsup_survey", "verification.infsup_survey"),
    ("dpgfem.verification", "broken_stability_bound",
     "verification.broken_stability_bound"),
    ("dpgfem.verification", "verify_records", "verification.verify_records"),
    ("dpgfem.reports", "write_report", "reports.write_report"),
)

# Functions that scipy provides and dpgfem.system imports by name.
_FOREIGN = {"cho_factor", "splu"}

METHODS = (
    ("dpgfem.system", "Discretization", "__init__", "system.setup"),
    ("dpgfem.system", "Discretization", "element_system",
     "formulations.element_system"),
    ("dpgfem.system", "Discretization", "assemble", "system.assemble"),
    ("dpgfem.system", "Discretization", "solve", "system.solve"),
    ("dpgfem.system", "Discretization", "estimate", "system.estimate"),
    ("dpgfem.system", "Discretization", "measure_error",
     "system.measure_error"),
    ("dpgfem.system", "Discretization", "opnorm", "system.opnorm"),
)


def _count_cells(tracer, parent, args, result):
    tracer.counts["meshes.cells"] += result.ncells


def _count_element_system(tracer, parent, args, result):
    G, B, _ = result
    counts = tracer.counts
    counts["formulations.element_systems"] += 1
    counts["formulations.ntest_local"] = max(
        counts["formulations.ntest_local"], G.shape[0])
    counts["formulations.ntrial_local"] = max(
        counts["formulations.ntrial_local"], B.shape[1])


def _count_solve(tracer, parent, args, result):
    disc, A = args[0], args[1]
    tracer.counts["system.solves"] += 1
    tracer.counts["system.cells_solved"] += disc.mesh.ncells
    tracer.counts["system.ndof"] += disc.ndof
    tracer.counts["system.nnz"] += A.nnz


def _count_splu(tracer, parent, args, result):
    # only the factorization of the condensed system, not the trace masses
    if parent >= 0 and tracer.spans[parent][0] == "system.solve":
        tracer.counts["system.lu_nnz"] += result.L.nnz + result.U.nnz


def _count_calls(key):
    def hook(tracer, parent, args, result):
        tracer.counts[key] += 1
    return hook


def _count_len(key, pick=lambda result: result):
    def hook(tracer, parent, args, result):
        tracer.counts[key] += len(pick(result))
    return hook


HOOKS = {
    "meshes.build_structured": _count_cells,
    "meshes.refine_uniform": _count_cells,
    "meshes.refine_marked": _count_cells,
    "formulations.element_system": _count_element_system,
    "system.setup": _count_calls("system.setups"),
    "system.solve": _count_solve,
    "system.splu": _count_splu,
    "system.cho_factor": _count_calls("system.cholesky_factorizations"),
    "adaptivity.mark": _count_len("adaptivity.marked_cells"),
    "adaptivity.adaptive_solve": _count_len("adaptivity.iterations",
                                            lambda result: result[0]),
    "verification.duality_norms": _count_calls(
        "verification.duality_norms_calls"),
    "verification.verify_records": _count_len("verification.records"),
}

# Per-layer time metric -> span names whose outermost occurrences it sums.
TIME_METRICS = {
    "meshes.refine_uniform_s": {"meshes.refine_uniform"},
    "meshes.refine_marked_s": {"meshes.refine_marked"},
    "system.setup_s": {"system.setup"},
    "formulations.y_gram_s": {"formulations.y_gram"},
    "formulations.b0_block_s": {"formulations.b0_block"},
    "formulations.bhat_block_s": {"formulations.bhat_block"},
    "formulations.load_vector_s": {"formulations.load_vector"},
    "formulations.element_system_s": {"formulations.element_system"},
    "system.condense_s": {"system.condense"},
    "system.assemble_s": {"system.assemble"},
    "system.solve_s": {"system.solve"},
    "system.estimate_s": {"system.estimate"},
    "system.measure_error_s": {"system.measure_error"},
    "spaces.trace_mass_s": {"spaces.trace_mass"},
    "spaces.trace_rhs_s": {"spaces.trace_rhs"},
    "spaces.skeleton_quotient_s": {"spaces.skeleton_quotient_apply",
                                   "spaces.skeleton_quotient_gram"},
    "system.opnorm_s": {"system.opnorm"},
    "adaptivity.mark_s": {"adaptivity.mark"},
    "verification.fortin_s": {"fortin.fortin_build", "fortin.fortin_moments",
                              "fortin.fortin_commuting"},
    "verification.duality_s": {"verification.duality_suite"},
    "verification.annihilation_s": {"verification.annihilation_check"},
    "verification.infsup_s": {"verification.infsup_survey"},
    "verification.stability_s": {"verification.broken_stability_bound"},
    "reports.write_report_s": {"reports.write_report"},
}

# Per-layer metric -> span name whose self time it sums.
SELF_METRICS = {"system.assemble_self_s": "system.assemble"}

COUNT_METRICS = (
    "meshes.cells",
    "system.setups",
    "formulations.element_systems",
    "formulations.ntest_local",
    "formulations.ntrial_local",
    "system.ndof",
    "system.nnz",
    "system.lu_nnz",
    "system.cholesky_factorizations",
    "adaptivity.iterations",
    "adaptivity.marked_cells",
    "verification.duality_norms_calls",
    "verification.records",
)


class Tracer:
    """Spans and counters for one traced round."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._undo = []

    def _wrap(self, fn, name):
        hook = HOOKS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, parent, clock(), None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[3] = clock()
            if hook is not None:
                hook(self, parent, args, result)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every traced function and method; import dpgfem first."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "dpgfem"
                                         or n.startswith("dpgfem."))]
        for modname, attr, name in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(original, name)
            targets = [sys.modules[modname]] if attr in _FOREIGN else modules
            for mod in targets:
                if getattr(mod, attr, None) is original:
                    self._set(mod, attr, wrapper)
        for modname, clsname, attr, name in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            self._set(cls, attr, self._wrap(cls.__dict__[attr], name))

    def remove(self):
        """Restore every original, newest patch first."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- derived figures ------------------------------------------------

    def self_times(self):
        """Duration minus the durations of direct children, per span."""
        own = [end - start for _, _, start, end in self.spans]
        for _, parent, start, end in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def _outermost_total(self, names):
        total = 0.0
        for name, parent, start, end in self.spans:
            if name not in names:
                continue
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][1]
            if parent < 0:
                total += end - start
        return total

    def layer_metrics(self):
        """Per-layer metric name -> value, every metric always present."""
        out = {}
        for metric, names in TIME_METRICS.items():
            out[metric] = self._outermost_total(names)
        own = self.self_times()
        for metric, name in SELF_METRICS.items():
            out[metric] = sum(t for t, rec in zip(own, self.spans)
                              if rec[0] == name)
        for key in COUNT_METRICS:
            out[key] = self.counts[key]
        cells = self.counts["system.cells_solved"]
        out["formulations.element_systems_per_cell"] = (
            self.counts["formulations.element_systems"] / cells
            if cells else 0.0)
        return out

    def summary(self):
        """Span name -> calls, total and self seconds."""
        table = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                     "self_s": 0.0})
        for (name, _, start, end), own in zip(self.spans, self.self_times()):
            row = table[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += own
        return dict(sorted(table.items()))

    def write(self, path):
        """One JSON line per span: name, parent index, start, dur, self."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, ((name, parent, start, end), own) in enumerate(
                    zip(self.spans, self.self_times())):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "start_s": start - t0,
                                     "dur_s": end - start,
                                     "self_s": own}) + "\n")
