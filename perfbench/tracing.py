"""Outside-in tracing of paraortho: spans around every public function.

The benchmark wraps, from its own files, each public module-level
function of `coeffs`, `szego`, `para`, `zeros`, `theorems` and `cli`,
plus the memoised prefix `VerblunskySequence.alphas`.  A wrapper is
installed under every name the package binds the original to (``from
.para import real_form_grid`` makes a second binding in `zeros`), so
calls are traced whichever module makes them.  Nothing in `src/` is
changed.

Each call becomes a span: name, parent span, start, end, the pass it
belongs to and, for kernels, a computed work count (points x recursion
levels, or mpmath products).  Spans stay in memory; `aggregate` turns
them into the per-layer metrics named in BENCHMARK.json.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

import numpy as np

from workloads import zero_set_errors

MODULES = ("coeffs", "szego", "para", "zeros", "theorems", "cli")
CALIBRATION_CALLS, CALIBRATION_LOOPS = 20000, 5  # span-cost calibration, about 0.2 s

# theorems.check_* function -> theorem id used in reports and metric names
CHECK_IDS = {
    "check_theorem1": "theorem1",
    "check_gap_theorem": "gap",
    "check_interlacing_first_second": "theorem2",
    "check_consecutive_interlacing": "consecutive",
    "check_second_kind_exclusion": "main_lemma",
    "check_theorem3": "theorem3",
}

# span names whose descendants are attributed to them as "public parent"
PARENT_GROUPS = {
    "zeros.find_zeros_sweep": "under_sweep",
    "zeros.find_zeros": "under_find_zeros",
    "theorems.estimate_support": "under_estimate_support",
}


def _size(z) -> int:
    return int(np.size(z))


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


# Computed work per call, as (points, levels): a kernel evaluates
# points x levels (point, recursion level) pairs.  These are counted from
# the arguments, not measured, and are labelled "computed" in the README.
def _work_real_form_grid(args, kwargs):
    p = _arg(args, kwargs, 0, "p")
    return _size(_arg(args, kwargs, 1, "thetas")), p.n - 1


def _work_para_eval(args, kwargs):
    p = _arg(args, kwargs, 0, "p")
    definition = _arg(args, kwargs, 2, "definition", "level_nm1")
    return _size(_arg(args, kwargs, 1, "z")), p.n if definition == "level_n" else p.n - 1


def _work_eval_pair(args, kwargs):
    return _size(_arg(args, kwargs, 2, "z")), int(_arg(args, kwargs, 1, "n"))


def _work_cd_kernel(args, kwargs):
    n = int(_arg(args, kwargs, 1, "n"))
    mode = _arg(args, kwargs, 4, "mode", "sum")
    points = _size(_arg(args, kwargs, 2, "z")) + _size(_arg(args, kwargs, 3, "y"))
    return points, n - 1 if mode == "sum" else n


def _work_hp_levinson(args, kwargs):
    # level m costs 3 (m + 1) mpmath complex products: numerator,
    # denominator and the update of the monic polynomial
    count = int(_arg(args, kwargs, 1, "count"))
    return 3 * count * (count + 1) // 2, 1


def _name_arc_moments(args, kwargs):
    dps = _arg(args, kwargs, 5, "dps")
    return "coeffs.hp_moments" if dps is not None else "coeffs.exact_arc_mass_moments"


# span names that depend on the arguments
RENAME = {"coeffs.exact_arc_mass_moments": _name_arc_moments}

WORK = {
    "para.real_form_grid": _work_real_form_grid,
    "para.para_eval": _work_para_eval,
    "szego.eval_pair": _work_eval_pair,
    "szego.cd_kernel": _work_cd_kernel,
    "coeffs.verblunsky_from_moments_hp": _work_hp_levinson,
}


class Tracer:
    """Span recorder; `install` wraps the package, `uninstall` restores it.

    Spans are kept as parallel lists (name, parent index, start, end,
    points, levels, pass) so that recording one costs a few appends.
    """

    def __init__(self):
        self.name: list[str] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.points: list[int] = []
        self.levels: list[int] = []
        self.pass_id: list[int] = []
        self.current_pass = -1
        self.pass_walls: list[float] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # outcomes read from return values; zero_calls maps a zero-finding
        # span to (zero sets requested, zero sets returned, zeros returned)
        self.zero_calls: dict[int, tuple[int, int, int]] = {}
        self.zero_set_errors: list[str] = []  # correctness gate, as in workloads
        self.interlace_verdicts: dict[str, int] = defaultdict(int)
        self.verdicts = 0

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        work_fn = WORK.get(name)
        rename = RENAME.get(name)
        on_exit = self._exit_hook(name)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.name)
            tracer.name.append(rename(args, kwargs) if rename else name)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.pass_id.append(tracer.current_pass)
            points, levels = work_fn(args, kwargs) if work_fn else (0, 0)
            tracer.points.append(points)
            tracer.levels.append(levels)
            tracer.end.append(0.0)
            stack.append(idx)
            result = None
            tracer.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter()
                stack.pop()
                if on_exit is not None:
                    on_exit(idx, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def _exit_hook(self, name):
        """Outcome recorder for one span name; `result` is None on a raise."""
        if name == "zeros.find_zeros_sweep":
            def hook(idx, result, args, kwargs):
                requested = len(set(int(n) for n in _arg(args, kwargs, 3, "n_values")))
                self._zero_call(idx, requested, list(result.values()) if result else [])
            return hook
        if name == "zeros.find_zeros":
            def hook(idx, result, args, kwargs):
                self._zero_call(idx, 1, [result] if result is not None else [])
            return hook
        if name == "zeros.interlace":
            def hook(idx, result, args, kwargs):
                if result is not None:
                    self.interlace_verdicts[result.verdict] += 1
            return hook
        short = name.split(".", 1)[1]
        if name.startswith("theorems.") and (short in CHECK_IDS or short == "audit_lemma_bounds"):
            def hook(idx, result, args, kwargs):
                self.verdicts += result is not None
            return hook
        return None

    def _zero_call(self, idx, requested, sets):
        self.zero_calls[idx] = (requested, len(sets), sum(int(zs.n) for zs in sets))
        for zs in sets:
            self.zero_set_errors += zero_set_errors(zs, f"traced {zs.kind} n={zs.n}")

    # -- installation ------------------------------------------------------

    def install(self):
        holders = [
            mod for key, mod in sys.modules.items()
            if key == "paraortho" or key.startswith("paraortho.")
        ]
        for short in MODULES:
            mod = sys.modules[f"paraortho.{short}"]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(f"{short}.{attr}", fn)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._patches.append((holder, key, value))
                            setattr(holder, key, wrapped)
        seq_cls = sys.modules["paraortho.coeffs"].VerblunskySequence
        self._patches.append((seq_cls, "alphas", seq_cls.alphas))
        seq_cls.alphas = self._wrap("coeffs.alphas", seq_cls.alphas)

    def uninstall(self):
        for holder, key, value in reversed(self._patches):
            setattr(holder, key, value)
        self._patches.clear()

    # -- aggregation -------------------------------------------------------

    def spans(self) -> dict:
        """All spans as columns, for writing out when the run ends."""
        return {
            "name": self.name, "parent": self.parent, "start": self.start,
            "end": self.end, "points": self.points, "levels": self.levels,
            "pass": self.pass_id,
        }

    @staticmethod
    def span_cost() -> float:
        """Seconds that recording one span adds to a call.

        The median time of a wrapped no-op minus that of the bare no-op,
        over CALIBRATION_LOOPS loops of CALIBRATION_CALLS calls each, on a
        scratch tracer.
        """
        def noop():
            return None

        wrapped = Tracer()._wrap("calibration.noop", noop)
        loops = {noop: [], wrapped: []}
        for _ in range(CALIBRATION_LOOPS):
            for fn, times in loops.items():
                t = time.perf_counter()
                for _ in range(CALIBRATION_CALLS):
                    fn()
                times.append(time.perf_counter() - t)
        extra = float(np.median(loops[wrapped]) - np.median(loops[noop]))
        return max(0.0, extra / CALIBRATION_CALLS)

    def aggregate(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans.

        Counts and seconds are means per traced pass; rates, ratios and
        shares are taken over all traced passes.  The tracing overhead is
        the spans of a pass times the calibrated cost of one span: the
        difference between a traced and an untraced pass is mostly the
        machine's drift when a pass has few spans.
        """
        count = len(self.name)
        passes = max(1, len(self.pass_walls))
        traced_wall = float(sum(self.pass_walls))
        dur = np.array(self.end) - np.array(self.start)
        parent = np.array(self.parent, dtype=int)
        work = np.array(self.points, dtype=float) * np.array(self.levels, dtype=float)
        child = np.zeros(count)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_time = dur - child

        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        work_sum = defaultdict(float)
        group = [""] * count  # label of the nearest public parent of interest
        grouped = defaultdict(float)
        module_self = defaultdict(float)
        top_level = 0.0
        grid_points = 0.0
        for i, nm in enumerate(self.name):
            calls[nm] += 1
            total[nm] += dur[i]
            own[nm] += self_time[i]
            work_sum[nm] += work[i]
            module_self[nm.split(".", 1)[0]] += self_time[i]
            p = parent[i]
            if p < 0:
                top_level += dur[i]
            else:
                group[i] = PARENT_GROUPS.get(self.name[p], group[p])
            if nm in ("para.real_form_grid", "zeros.find_zeros"):
                label = group[i] or "under_other"
                grouped[(nm, label, "calls")] += 1
                grouped[(nm, label, "s")] += dur[i]
                grouped[(nm, label, "work")] += work[i]
                if nm == "para.real_form_grid" and label != "under_other":
                    grid_points += self.points[i]

        requested = returned = zeros = 0
        for i, (req, ret, nz) in self.zero_calls.items():
            if group[i] != "under_sweep":  # a fallback is counted by its sweep
                requested += req
                returned += ret
                zeros += nz

        def per_pass(value):
            return float(value) / passes

        def ratio(num, den):
            return float(num) / den if den else 0.0

        m: dict[str, float] = {}
        rfg = "para.real_form_grid"
        m[f"{rfg}.calls"] = per_pass(calls[rfg])
        m[f"{rfg}.s"] = per_pass(total[rfg])
        m[f"{rfg}.points_levels"] = per_pass(work_sum[rfg])
        m[f"{rfg}.points_levels_per_s"] = ratio(work_sum[rfg], total[rfg])
        for label in ("under_sweep", "under_find_zeros", "under_other"):
            m[f"{rfg}.{label}.s"] = per_pass(grouped[(rfg, label, "s")])
            m[f"{rfg}.{label}.points_levels"] = per_pass(grouped[(rfg, label, "work")])
        m["para.para_eval.calls"] = per_pass(calls["para.para_eval"])
        m["para.para_eval.s"] = per_pass(total["para.para_eval"])

        for nm in ("zeros.find_zeros_sweep", "zeros.find_zeros"):
            m[f"{nm}.calls"] = per_pass(calls[nm])
            m[f"{nm}.s"] = per_pass(total[nm])
            m[f"{nm}.self_s"] = per_pass(own[nm])
        fz = "zeros.find_zeros"
        for label in ("under_sweep", "under_estimate_support", "under_other"):
            m[f"{fz}.{label}.calls"] = per_pass(grouped[(fz, label, "calls")])
            m[f"{fz}.{label}.s"] = per_pass(grouped[(fz, label, "s")])
        m["zeros.fallback_degrees"] = m["zeros.find_zeros.under_sweep.calls"]
        m["zeros.grid_points_per_zero"] = ratio(grid_points, zeros)
        m["zeros.resolved_ratio"] = ratio(returned, requested)
        m["zeros.interlace.calls"] = per_pass(calls["zeros.interlace"])
        m["zeros.interlace.s"] = per_pass(total["zeros.interlace"])
        for verdict in ("pass", "inconclusive", "fail"):
            m[f"zeros.interlace.{verdict}"] = per_pass(self.interlace_verdicts[verdict])

        est = "theorems.estimate_support"
        m[f"{est}.calls"] = per_pass(calls[est])
        m[f"{est}.s"] = per_pass(total[est])
        m[f"{est}.calls_per_verdict"] = ratio(calls[est], self.verdicts)
        for fn_name, theorem_id in CHECK_IDS.items():
            nm = f"theorems.{fn_name}"
            m[f"theorems.check.{theorem_id}.calls"] = per_pass(calls[nm])
            m[f"theorems.check.{theorem_id}.s"] = per_pass(total[nm])
            m[f"theorems.check.{theorem_id}.self_s"] = per_pass(own[nm])
        m["theorems.audit_lemma_bounds.calls"] = per_pass(calls["theorems.audit_lemma_bounds"])
        m["theorems.audit_lemma_bounds.s"] = per_pass(total["theorems.audit_lemma_bounds"])

        for nm in ("szego.eval_pair", "szego.cd_kernel"):
            m[f"{nm}.calls"] = per_pass(calls[nm])
            m[f"{nm}.s"] = per_pass(total[nm])
        szego_work = work_sum["szego.eval_pair"] + work_sum["szego.cd_kernel"]
        szego_s = total["szego.eval_pair"] + total["szego.cd_kernel"]
        m["szego.points_levels"] = per_pass(szego_work)
        m["szego.points_levels_per_s"] = ratio(szego_work, szego_s)

        m["cli.run.calls"] = per_pass(calls["cli.run"])
        m["cli.run.s"] = per_pass(total["cli.run"])
        m["cli.run.self_s"] = per_pass(own["cli.run"])

        hp = "coeffs.verblunsky_from_moments_hp"
        m["coeffs.hp_levinson.calls"] = per_pass(calls[hp])
        m["coeffs.hp_levinson.s"] = per_pass(total[hp])
        m["coeffs.hp_levinson.mul"] = per_pass(work_sum[hp])
        m["coeffs.hp_moments.s"] = per_pass(total["coeffs.hp_moments"])
        m["coeffs.moments_table.s"] = per_pass(total["coeffs.moments_table"])
        m["coeffs.levinson.s"] = per_pass(total["coeffs.verblunsky_from_moments"])
        m["coeffs.alphas.calls"] = per_pass(calls["coeffs.alphas"])
        m["coeffs.alphas.s"] = per_pass(total["coeffs.alphas"])

        module_self["harness"] = traced_wall - top_level
        for mod in MODULES + ("harness",):
            m[f"layer.{mod}.self_s"] = per_pass(module_self[mod])
            m[f"layer.{mod}.share"] = ratio(module_self[mod], traced_wall)

        m["trace.spans"] = per_pass(count)
        m["trace.pass_s"] = per_pass(traced_wall)
        overhead = m["trace.spans"] * self.span_cost()
        m["trace.overhead_s"] = overhead
        m["trace.overhead_share"] = ratio(overhead, m["trace.pass_s"] - overhead)
        return m
