"""dtaxis benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload mass_law_1d --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the result carries the end-to-end metrics (``wall_s``,
``setup_s``, ``peak_rss_mb``; times are speed-corrected, see ``SpeedProbe``);
with ``--trace 1`` it carries the per-layer metrics of a traced run.  Human-readable lines (environment, seed, every
metric with its unit, ``failed_frac``) precede the JSON line, which is always
the last line of standard output.

Everything runs in this one process, with no worker pool.  Outputs of the
program and the recorded spans go to ``perfbench/_work/<workload>-<size>/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import types
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 11


class SpeedProbe:
    """A fixed numpy kernel, timed after every timed interval.

    The machine this benchmark was defined on shares its cores with other
    tenants, and its speed drifts by up to 1.8x over minutes; raw wall times
    of identical runs spread by a third.  The program and this kernel slow
    down together, so each interval is scaled by ``NOMINAL_S`` (the kernel's
    median time there) over the mean kernel time just before and just after
    it, raised to the workload's ``speed_exponent``.  Reported times are thus
    seconds at that machine's nominal speed; raw times are printed next to
    them.
    """

    NOMINAL_S = 0.0100

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.random(256) + 1.0
        self.y = rng.random(256) + 1.0
        self.cube = rng.random((32, 32, 32)) + 1.0
        self.samples: list[float] = []
        self.last = self.measure()

    def _kernel(self) -> float:
        """Small-array calls (the 1D step's regime) and whole-cube passes
        (the 3D step's regime)."""
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(600):
            d = np.diff(self.x) * 256.0
            acc += float(np.sum(d * d * self.y[1:])) + float(np.sqrt(self.x * self.y).max())
        for _ in range(6):
            c = self.cube * self.cube + np.sqrt(self.cube)
            acc += float(np.sum(np.diff(c, axis=1)))
        return time.perf_counter() - t0

    def measure(self) -> float:
        self.samples.append(statistics.median(self._kernel() for _ in range(3)))
        return self.samples[-1]

    def correct(self, seconds: float, exponent: float = 1.0) -> float:
        """Scale an interval that has just ended to the nominal speed.

        ``exponent`` is how strongly the interval's work follows the kernel:
        1 for work dominated by small numpy calls, less for work that is not.
        """
        before, self.last = self.last, self.measure()
        return seconds * (self.NOMINAL_S / (0.5 * (before + self.last))) ** exponent


def load_package():
    """Import dtaxis afresh from ``src/``; earlier imports are discarded, so
    the cost of the import is paid again (numpy stays loaded)."""
    for key in [k for k in sys.modules if k == "dtaxis" or k.startswith("dtaxis.")]:
        del sys.modules[key]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = types.SimpleNamespace(dtaxis=importlib.import_module("dtaxis"))
    for mod in ("cli", "stepper", "diagnostics", "model", "grid", "exponents"):
        setattr(pkg, mod, importlib.import_module(f"dtaxis.{mod}"))
    if not Path(pkg.dtaxis.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"dtaxis imported from {pkg.dtaxis.__file__}, not {SRC}")
    return pkg


def environment() -> dict:
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            env["cpu"] = next((ln.split(":", 1)[1].strip() for ln in f
                               if ln.startswith("model name")), "unknown")
    except OSError:
        env["cpu"] = "unknown"
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(caches.glob("index*")):
        try:
            level, kind, size = ((idx / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction":
            env[f"L{level}"] = size
    return env


def _quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  size: str = "full", fault=None) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and the report lines.

    ``fault``, if given, is called with the freshly imported package before
    the measured loop; the smoke test uses it to plant a defect.
    """
    workdir = HERE / "_work" / f"{name}-{size}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[name](seed, size, workdir)

    pkg = load_package()
    wl.prepare(pkg)
    probe = SpeedProbe()
    setup_raw, setup_times = [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        pkg = load_package()
        wl.setup(pkg)
        setup_raw.append(time.perf_counter() - t0)
        setup_times.append(probe.correct(setup_raw[-1]))
    if fault is not None:
        fault(pkg)

    counts = {"attempted": 0, "failed": 0}
    messages: list[str] = []

    def judge(per_op_errors):
        for errs in per_op_errors:
            counts["attempted"] += 1
            counts["failed"] += bool(errs)
            messages.extend(errs[:3])

    def unit(call=None):
        """Run and check one unit; returns its raw and speed-corrected seconds.

        Each operation is timed, and speed-corrected, on its own: operations
        last a fraction of a second, which the machine's speed rarely
        outlasts, while a whole unit may not.
        """
        outputs, raw, corrected = [], 0.0, 0.0
        for op in wl.ops(pkg):
            t0 = time.perf_counter()
            try:
                outputs.append(op() if call is None else call(op))
            except Exception as exc:  # a crashing operation is a failed one
                outputs.append(exc)
            elapsed = time.perf_counter() - t0
            raw += elapsed
            corrected += probe.correct(elapsed, wl.speed_exponent)
        judge(wl.check(pkg, outputs))
        return raw, corrected

    # The first unit lets caches fill and lazy imports finish; it is checked
    # but not timed.
    deadline = time.perf_counter() + seconds
    unit()
    tr = tracer.Tracer() if trace else None
    raw: list[float] = []
    walls: list[float] = []
    traced: list[float] = []
    while True:
        if tr is not None and len(traced) < len(walls):
            traced.append(unit(tr.call)[1])
        else:
            r, c = unit()
            raw.append(r)
            walls.append(c)
        if time.perf_counter() >= deadline and (tr is None or traced):
            break
    try:
        judge([workloads.compare_reference(name, wl.canary(pkg))])
    except Exception as exc:  # a crashing canary is a failed operation
        judge([[f"canary {type(exc).__name__}: {exc}"]])

    attempted, failed = counts["attempted"], counts["failed"]
    env = environment()
    speed = probe.NOMINAL_S / statistics.median(probe.samples)
    lines = [f"workload {name} seed {seed} size {size} seconds {seconds:g} "
             f"trace {int(trace)}", "environment " + json.dumps(env),
             f"machine speed {speed:.3f} of nominal (median of {len(probe.samples)} probes)"]
    if tr is None:
        q1, q3 = _quartiles(walls)
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB"),
        }
        notes = {"wall_s": f"speed-corrected median of {len(walls)} units, p25 {q1:.6g} "
                           f"p75 {q3:.6g}; raw median {statistics.median(raw):.6g} s",
                 "setup_s": f"speed-corrected median of {len(setup_times)} set-ups; "
                            f"raw median {statistics.median(setup_raw):.6g} s"}
    else:
        values, missing = tracer.layer_metrics(tr, wl, traced, walls,
                                               speed ** wl.speed_exponent)
        metrics = {k: (v, tracer.LAYER_METRICS[k]) for k, v in values.items()}
        notes = {"trace.overhead_pct": f"speed-corrected median of {len(traced)} "
                                       f"traced vs {len(walls)} untraced units"}
        notes.update((k, "missing hook, reported as 0") for k in missing)
        meta = {"workload": name, "seed": seed, "size": size, "environment": env,
                "metrics": values, "missing": missing, "traced_wall_s": traced,
                "untraced_wall_s": walls, "steps": tr.steps, "rejected": tr.rejected}
        tr.write(workdir / "trace", meta)
        lines.append(f"spans {len(tr.start)} written to {workdir / 'trace.npz'}")
    for key, (value, u) in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        lines.append(f"{key} {value:.9g} {u}{note}")
    lines.append(f"failed_frac {failed / attempted:.6g}  "
                 f"({failed} of {attempted} operations failed)")
    lines += [f"failure: {m}" for m in messages[:20]]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "dtaxis" / "__init__.py").is_file():
        print(f"error: no dtaxis sources under {SRC}", file=sys.stderr)
        return 2
    result, lines = run_benchmark(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
