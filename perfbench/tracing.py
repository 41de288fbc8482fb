"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public functions of ``crowdprice`` from the outside: every
module-level binding of a target function (including the names other
modules imported with ``from .x import y``) is replaced by a wrapper that
records a span, so calls made inside the package are traced too.  Nothing
under ``src/`` is changed, and :meth:`Tracer.uninstall` restores every
binding.

A span is (name, start, end, parent, op id).  Spans are kept in flat
arrays while the run lasts and written out once at the end.  A span's self
time is its duration minus the time covered by its child spans; the run is
single-threaded, so children never overlap and that covered time is the sum
of their durations.
"""

from __future__ import annotations

import builtins
import functools
import importlib
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

# (module, attribute, span name).  "Class.method" attributes patch the class.
TARGETS = (
    ("crowdprice.workers", "empirical_regime", "workers.empirical_regime"),
    ("crowdprice.bonus", "translate", "bonus.translate"),
    ("crowdprice.bonus", "bm_array", "bonus.bm_array"),
    ("crowdprice.bonus", "invert_bm_array", "bonus.invert_bm_array"),
    ("crowdprice.utilities", "UtilityFunction.evaluate", "utilities.evaluate"),
    ("crowdprice.utilities", "UtilityFunction.evaluate_many", "utilities.evaluate_many"),
    ("crowdprice.personalized", "solve_gkp_exact", "personalized.solve_gkp_exact"),
    ("crowdprice.personalized", "modified_greedy", "personalized.modified_greedy"),
    ("crowdprice.halfplane", "feasible_point", "halfplane.feasible_point"),
    ("crowdprice.halfplane", "repair_strict", "halfplane.repair_strict"),
    ("crowdprice.common", "make_report", "common.make_report"),
    ("crowdprice.common", "cp_unres", "common.cp_unres"),
    ("crowdprice.common", "cp_subres", "common.cp_subres"),
    ("crowdprice.common", "cp_res", "common.cp_res"),
    ("crowdprice.common", "cp_no_bonus", "common.cp_no_bonus"),
    ("crowdprice.common", "cp_exact_oracle", "common.cp_exact_oracle"),
    ("crowdprice.comparisons", "poa_audit", "comparisons.poa_audit"),
    ("crowdprice.comparisons", "pob_ratio", "comparisons.pob_ratio"),
    ("crowdprice.scenario", "run_scenario", "scenario.run_scenario"),
    ("crowdprice.scenario", "emit_plot_data", "scenario.emit_plot_data"),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _is_bisection(args, kwargs) -> bool:
    # m = 1 and m = M invert in closed form; only the bisection is a span
    M, m = _arg(args, kwargs, 1, "M"), _arg(args, kwargs, 2, "m")
    return m not in (1, M)


def _count_rows(tracer, args, kwargs, out):
    rows = int(np.shape(_arg(args, kwargs, 1, "rows"))[0])
    tracer.counters["utilities.rows"] += rows
    if tracer.open_name() == "common.cp_exact_oracle":
        tracer.counters["common.oracle_sets"] += rows


def _count_row(tracer, args, kwargs, out):
    tracer.counters["utilities.rows"] += 1


def _count_subsets(tracer, args, kwargs, out):
    n = len(_arg(args, kwargs, 0, "instance").workers)
    limit = sys.modules["crowdprice.personalized"].ENUMERATION_LIMIT
    if n <= limit:
        tracer.counters["personalized.subsets"] += 2**n


def _count_feasible(tracer, args, kwargs, out):
    tracer.counters["halfplane.feasible"] += bool(out.feasible)


def _count_repaired(tracer, args, kwargs, out):
    tracer.counters["halfplane.repaired"] += out is not None


def _count_bytes(tracer, args, kwargs, out):
    tracer.counters["scenario.bytes_written"] += sum(Path(p).stat().st_size for p in out)


AFTER = {
    "utilities.evaluate": _count_row,
    "utilities.evaluate_many": _count_rows,
    "personalized.solve_gkp_exact": _count_subsets,
    "halfplane.feasible_point": _count_feasible,
    "halfplane.repair_strict": _count_repaired,
    "scenario.emit_plot_data": _count_bytes,
}
WHEN = {"bonus.invert_bm_array": _is_bisection}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name: str) -> int:
        index = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Record a span measured elsewhere (e.g. by a child process)."""
        index = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(parent)
        self.op.append(self.op_id)
        self.start.append(start)
        self.end.append(end)
        return index

    def current(self) -> int:
        return self._stack[-1] if self._stack else -1

    def open_name(self) -> str | None:
        return self.names[self.name[self._stack[-1]]] if self._stack else None

    # -- patching ----------------------------------------------------------

    def _wrap(self, span: str, fn):
        after, when = AFTER.get(span), WHEN.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if when is not None and not when(args, kwargs):
                return fn(*args, **kwargs)
            index = self.open(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(self, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Replace every binding of each target inside ``crowdprice``."""
        for module_name, attr, span in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self._wrap(span, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(span, original)
            for name, mod in list(sys.modules.items()):
                if name != "crowdprice" and not name.startswith("crowdprice."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        self._watch_scipy_import()

    def _watch_scipy_import(self) -> None:
        """Time the lazy first import of scipy.interpolate as its own span."""
        real_import = builtins.__import__
        tracer = self

        def timed_import(name, *args, **kwargs):
            if name != "scipy.interpolate" or name in sys.modules:
                return real_import(name, *args, **kwargs)
            index = tracer.open("cli.import_scipy_interpolate")
            try:
                return real_import(name, *args, **kwargs)
            finally:
                tracer.close(index)

        self._restore.append((builtins, "__import__", real_import))
        builtins.__import__ = timed_import

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- output ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
        }

    def spans_json(self) -> str:
        return json.dumps(
            {
                "names": self.names,
                "spans": [
                    [self.name[i], self.start[i], self.end[i], self.parent[i], self.op[i]]
                    for i in range(len(self.start))
                ],
                "counters": dict(self.counters),
            }
        )

    def merge_json(self, text: str, parent: int) -> None:
        """Adopt a child process's spans under the local span ``parent``,
        as spans of the current op."""
        data = json.loads(text)
        base = len(self.start)
        for name_id, start, end, child_parent, _ in data["spans"]:
            self.add(
                data["names"][name_id],
                start,
                end,
                parent if child_parent < 0 else base + child_parent,
            )
        for key, value in data["counters"].items():
            self.counters[key] += value

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive seconds, self seconds)."""
        a = self.arrays()
        duration = a["end"] - a["start"]
        covered = np.zeros_like(duration)
        child = a["parent"] >= 0
        np.add.at(covered, a["parent"][child], duration[child])
        own = duration - covered
        out = {}
        for name_id, name in enumerate(self.names):
            mask = a["name"] == name_id
            out[name] = (int(mask.sum()), float(duration[mask].sum()), float(own[mask].sum()))
        return out


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-op layer figures from the spans and counters of ``ops`` traced ops."""
    t = tracer.totals()
    c = tracer.counters

    def calls(*names):
        return sum(t.get(n, (0, 0.0, 0.0))[0] for n in names)

    def incl(*names):
        return sum(t.get(n, (0, 0.0, 0.0))[1] for n in names)

    def own(*names):
        return sum(t.get(n, (0, 0.0, 0.0))[2] for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    per = 1.0 / ops
    ms = 1000.0 * per
    utility_spans = ("utilities.evaluate", "utilities.evaluate_many")
    halfplane_spans = ("halfplane.feasible_point", "halfplane.repair_strict")
    regime_spans = ("common.cp_unres", "common.cp_subres", "common.cp_res")
    return {
        "cli.interpreter_start_ms": (incl("cli.interpreter_start") * ms, "ms"),
        "cli.import_crowdprice_ms": (incl("cli.import_crowdprice") * ms, "ms"),
        "cli.import_scipy_interpolate_ms": (incl("cli.import_scipy_interpolate") * ms, "ms"),
        "cli.verb_ms": ((incl("cli.verb") - incl("cli.import_scipy_interpolate")) * ms, "ms"),
        "workers.empirical_regime_calls": (calls("workers.empirical_regime") * per, "count"),
        "workers.empirical_regime_ms": (incl("workers.empirical_regime") * ms, "ms"),
        "bonus.translate_ms": (incl("bonus.translate") * ms, "ms"),
        "bonus.bm_array_calls": (calls("bonus.bm_array") * per, "count"),
        "bonus.bm_array_ms": (incl("bonus.bm_array") * ms, "ms"),
        "bonus.invert_calls": (calls("bonus.invert_bm_array") * per, "count"),
        "bonus.invert_ms": (incl("bonus.invert_bm_array") * ms, "ms"),
        "utilities.evaluate_calls": (calls("utilities.evaluate") * per, "count"),
        "utilities.evaluate_many_calls": (calls("utilities.evaluate_many") * per, "count"),
        "utilities.rows_evaluated": (c["utilities.rows"] * per, "count"),
        "utilities.self_ms": (own(*utility_spans) * ms, "ms"),
        "utilities.rows_per_s": (ratio(c["utilities.rows"], incl(*utility_spans)), "1/s"),
        "personalized.exact_ms": (incl("personalized.solve_gkp_exact") * ms, "ms"),
        "personalized.subsets_enumerated": (c["personalized.subsets"] * per, "count"),
        "personalized.greedy_ms": (incl("personalized.modified_greedy") * ms, "ms"),
        "halfplane.feasible_point_calls": (calls("halfplane.feasible_point") * per, "count"),
        "halfplane.feasible_ratio": (
            ratio(c["halfplane.feasible"], calls("halfplane.feasible_point")), "ratio"),
        "halfplane.repair_strict_calls": (calls("halfplane.repair_strict") * per, "count"),
        "halfplane.repair_ok_ratio": (
            ratio(c["halfplane.repaired"], calls("halfplane.repair_strict")), "ratio"),
        "halfplane.self_ms": (own(*halfplane_spans) * ms, "ms"),
        "common.oracle_ms": (incl("common.cp_exact_oracle") * ms, "ms"),
        "common.oracle_sets": (c["common.oracle_sets"] * per, "count"),
        "common.regime_solver_ms": (incl(*regime_spans) * ms, "ms"),
        "common.no_bonus_ms": (incl("common.cp_no_bonus") * ms, "ms"),
        "common.make_report_calls": (calls("common.make_report") * per, "count"),
        "comparisons.poa_audit_ms": (incl("comparisons.poa_audit") * ms, "ms"),
        "comparisons.pob_ratio_ms": (incl("comparisons.pob_ratio") * ms, "ms"),
        "scenario.run_self_ms": (own("scenario.run_scenario") * ms, "ms"),
        "scenario.emit_ms": (incl("scenario.emit_plot_data") * ms, "ms"),
        "scenario.bytes_written": (c["scenario.bytes_written"] * per, "B"),
    }
