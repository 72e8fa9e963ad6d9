"""Span tracing from outside the program, and the per-layer metrics it yields.

The tracer replaces, for the duration of one traced operation, the module
attributes each caller looks up (``dtaxis.stepper._rhs_core`` for the step,
``dtaxis.cli.save_snapshot`` for the snapshot observer, ``Grid`` methods for
every caller).  Each wrapper appends one span (name, start, end, parent) to
flat in-memory arrays; nothing is aggregated while the program runs.  A layer
is a module of the package; a span's layer is the prefix of its name.

A hooked name that the program no longer has is recorded as missing, and every
metric that needs it is reported as 0 and listed under ``missing``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array
from pathlib import Path

import numpy as np

# (span name, module, attribute looked up by the callers).  Two lookup sites
# can feed one span name: the library run loop is reached as stepper.run by
# the benchmark and as cli.run by ``dtaxis run``.
HOOKS = [
    *((f"grid.{m}", "dtaxis.grid", f"Grid.{m}") for m in (
        "integrate", "face_gradient", "div_faces", "laplacian_neumann", "lp_norm",
        "face_dot", "cell_grad_sq")),
    ("model.rhs", "dtaxis.stepper", "_rhs_core"),
    ("model.face_average", "dtaxis.model", "face_average"),
    ("stepper.run", "dtaxis.stepper", "run"),
    ("stepper.run", "dtaxis.cli", "run"),
    ("stepper.step", "dtaxis.stepper", "step"),
    ("stepper.stable_dt", "dtaxis.stepper", "stable_dt"),
    ("stepper.max_principle_dt", "dtaxis.stepper", "max_principle_dt"),
    ("stepper.accumulators", "dtaxis.stepper", "_advance_accumulators"),
    *((f"diagnostics.{f}", "dtaxis.diagnostics", f) for f in (
        "monitor_row", "check_first_energy", "residual_v_energy",
        "residual_vq_identity", "residual_upvq_identity", "log_hessian_batch",
        "sobolev_batch")),
    ("exponents.verify_regime_lemmas", "dtaxis.exponents", "verify_regime_lemmas"),
    ("cli.main", "dtaxis.cli", "main"),
    ("cli.parse_config_file", "dtaxis.cli", "parse_config_file"),
    ("cli.load_snapshot", "dtaxis.cli", "load_snapshot"),
    ("cli.save_snapshot", "dtaxis.cli", "save_snapshot"),
    ("cli.write_csv", "dtaxis.cli", "_write_csv"),
    ("cli.residual_observer", "dtaxis.cli", "_ResidualObserver.__call__"),
]

OP_SPAN = "bench.op"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()
        self.steps = 0
        self.rejected = 0
        self.step_marks: list[array] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        def span(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
        return span

    def _wrap_run(self, name: str, fn):
        """Span the run loop, append a no-op observer that timestamps every
        accepted step, and read the step counters off the trajectory."""
        inner = self._wrap(name, fn)
        try:
            sig = inspect.signature(fn)
        except (TypeError, ValueError):
            sig = None
        clock = time.perf_counter

        def run(*args, **kwargs):
            marks = array("d")
            if sig is not None and "observers" in sig.parameters:
                bound = sig.bind(*args, **kwargs)
                bound.arguments["observers"] = [*bound.arguments.get("observers", ()),
                                                lambda prev, new, dt: marks.append(clock())]
                args, kwargs = bound.args, bound.kwargs
            traj = inner(*args, **kwargs)
            self.step_marks.append(marks)
            self.steps += getattr(traj, "n_steps", 0)
            self.rejected += getattr(traj, "n_rejected", 0)
            return traj
        return run

    def install(self) -> None:
        for name, module, attr in HOOKS:
            try:
                owner = importlib.import_module(module)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.add(name)
                continue
            wrap = self._wrap_run if name == "stepper.run" else self._wrap
            self._saved.append((owner, leaf, fn))
            setattr(owner, leaf, wrap(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, fn = self._saved.pop()
            setattr(owner, leaf, fn)

    def call(self, op):
        """Run one workload operation traced."""
        self.install()
        try:
            return self._wrap(OP_SPAN, op)()
        finally:
            self.uninstall()

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def write(self, path: Path, meta: dict) -> None:
        np.savez_compressed(path.with_suffix(".npz"), names=np.array(self.names),
                            **self.arrays())
        path.with_suffix(".json").write_text(json.dumps(meta, indent=1), encoding="utf-8")


# ---------------------------------------------------------------------------
# per-layer metrics

# name -> unit; the order is the print order.
LAYER_METRICS = {
    "grid.calls_per_step": "count",
    "grid.self_us_per_step": "us",
    "model.rhs_us": "us",
    "model.rhs_share": "frac",
    "model.ns_per_cell_step": "ns",
    "stepper.step_us.p50": "us",
    "stepper.step_us.p99": "us",
    "stepper.accumulators_us": "us",
    "stepper.dt_bounds_us": "us",
    "stepper.self_us": "us",
    "stepper.steps": "count",
    "stepper.rejected": "count",
    "stepper.accept_ratio": "frac",
    "stepper.ns_per_cell_step": "ns",
    "diagnostics.first_energy_us": "us",
    "diagnostics.monitor_row_us": "us",
    "diagnostics.residuals_us": "us",
    "diagnostics.inequality_batch_us": "us",
    "diagnostics.share": "frac",
    "exponents.verify_us": "us",
    "exponents.samples_per_s": "1/s",
    "cli.parse_config_us": "us",
    "cli.load_snapshot_us": "us",
    "cli.save_snapshot_us": "us",
    "cli.snapshot_bytes": "bytes",
    "cli.write_csv_us": "us",
    "trace.overhead_pct": "%",
}


class _Spans:
    """Read-side view of a tracer's spans; records which span names a metric
    consulted so a metric built on a missing hook can be flagged."""

    def __init__(self, tr: Tracer):
        a = tr.arrays()
        self.names = tr.names
        self.nid = a["name_id"]
        self.parent = a["parent"]
        self.dur = a["end"] - a["start"]
        n = len(self.dur)
        has_parent = self.parent >= 0
        self.child_time = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                                      minlength=n)
        self.n_children = np.bincount(self.parent[has_parent], minlength=n)
        self.self_time = self.dur - self.child_time
        layer_of_name = np.array([nm.split(".")[0] for nm in self.names] or [""])
        self.layer = layer_of_name[self.nid] if n else np.array([], dtype=str)
        self.used: set[str] = set()

    def mask(self, *names: str) -> np.ndarray:
        self.used.update(names)
        ids = [self.names.index(nm) for nm in names if nm in self.names]
        return np.isin(self.nid, ids)

    def med_us(self, *names: str) -> float:
        d = self.dur[self.mask(*names)]
        return float(np.median(d)) * 1e6 if d.size else 0.0

    def layer_mask(self, layer: str) -> np.ndarray:
        self.used.update(nm for nm, _, _ in HOOKS if nm.startswith(layer + "."))
        return self.layer == layer

    def inclusive(self, layer: str) -> float:
        """Time inside the layer, counting nested calls within it once."""
        inside = self.layer_mask(layer)
        parent_inside = np.zeros_like(inside)
        has_parent = self.parent >= 0
        parent_inside[has_parent] = inside[self.parent[has_parent]]
        return float(np.sum(self.dur[inside & ~parent_inside]))


def layer_metrics(tr: Tracer, wl, traced_wall: list[float], untraced_wall: list[float],
                  scale: float) -> tuple[dict[str, float], list[str]]:
    """Every per-layer metric, and the names of those built on missing hooks.

    Times are multiplied, and rates divided, by ``scale``, which takes them
    to the nominal machine speed.
    """
    s = _Spans(tr)
    units = max(len(traced_wall), 1)
    unit_total = float(np.sum(s.dur[s.mask(OP_SPAN)])) or 1.0
    steps, rejected = tr.steps, tr.rejected
    per_step = 1.0 / steps if steps else 0.0
    intervals = np.concatenate([np.diff(np.frombuffer(m, dtype=np.float64))
                                for m in tr.step_marks] or [np.zeros(0)]) * 1e6

    def pct(q):
        s.used.add("stepper.run")
        return float(np.percentile(intervals, q)) if intervals.size else 0.0

    def per_unit(count):
        s.used.add("stepper.run")
        return count / units

    def accept_ratio():
        s.used.add("stepper.run")
        return steps / (steps + rejected) if steps else 0.0

    def residuals_per_tick():
        """The residual observer's calls that did work: three residuals and
        check_first_energy at one monitor tick."""
        s.used.add("diagnostics.residual_v_energy")
        m = s.mask("cli.residual_observer") & (s.n_children > 0)
        return float(np.median(s.dur[m])) * 1e6 if m.any() else 0.0

    def samples_per_s():
        us = s.med_us("exponents.verify_regime_lemmas")
        return wl.exponent_samples / (us * 1e-6) if us else 0.0

    rhs_us = lambda: s.med_us("model.rhs")  # noqa: E731
    formulas = {
        "grid.calls_per_step": lambda: float(np.sum(s.layer_mask("grid"))) * per_step,
        "grid.self_us_per_step":
            lambda: float(np.sum(s.self_time[s.layer_mask("grid")])) * 1e6 * per_step,
        "model.rhs_us": rhs_us,
        "model.rhs_share": lambda: float(np.sum(s.dur[s.mask("model.rhs")])) / unit_total,
        "model.ns_per_cell_step": lambda: rhs_us() * 1e3 / wl.cells,
        "stepper.step_us.p50": lambda: pct(50),
        "stepper.step_us.p99": lambda: pct(99),
        "stepper.accumulators_us": lambda: s.med_us("stepper.accumulators"),
        "stepper.dt_bounds_us":
            lambda: s.med_us("stepper.stable_dt") + s.med_us("stepper.max_principle_dt"),
        "stepper.self_us":
            lambda: float(np.sum(s.self_time[s.layer_mask("stepper")])) * 1e6 * per_step,
        "stepper.steps": lambda: per_unit(steps),
        "stepper.rejected": lambda: per_unit(rejected),
        "stepper.accept_ratio": accept_ratio,
        "stepper.ns_per_cell_step": lambda: pct(50) * 1e3 / wl.cells,
        "diagnostics.first_energy_us": lambda: s.med_us("diagnostics.check_first_energy"),
        "diagnostics.monitor_row_us": lambda: s.med_us("diagnostics.monitor_row"),
        "diagnostics.residuals_us": residuals_per_tick,
        "diagnostics.inequality_batch_us":
            lambda: s.med_us("diagnostics.log_hessian_batch", "diagnostics.sobolev_batch"),
        "diagnostics.share": lambda: s.inclusive("diagnostics") / unit_total,
        "exponents.verify_us": lambda: s.med_us("exponents.verify_regime_lemmas"),
        "exponents.samples_per_s": samples_per_s,
        "cli.parse_config_us": lambda: s.med_us("cli.parse_config_file"),
        "cli.load_snapshot_us": lambda: s.med_us("cli.load_snapshot"),
        "cli.save_snapshot_us": lambda: s.med_us("cli.save_snapshot"),
        "cli.snapshot_bytes": lambda: float(wl.snapshot_bytes),
        "cli.write_csv_us": lambda: s.med_us("cli.write_csv"),
        "trace.overhead_pct": lambda: (float(np.median(traced_wall))
                                       / float(np.median(untraced_wall)) - 1.0) * 100.0,
    }
    values, missing = {}, []
    for name, unit in LAYER_METRICS.items():
        s.used.clear()
        values[name] = formulas[name]() * {"us": scale, "ns": scale, "1/s": 1 / scale}.get(
            unit, 1.0)
        if s.used & tr.missing:
            values[name] = 0.0
            missing.append(name)
    return values, missing
