"""Configuration, experiment orchestration, persistence, and the command line.

Subcommands:

* ``run``                 one simulation; writes monitors.csv, residuals.csv
                          and (optionally) field snapshots at a fixed cadence
* ``sweep``               independent runs over a list of response exponents,
                          aggregated into one CSV tagged by regime
* ``eps-study``           identical runs differing only in the regularization
                          shift; reports successive L2 differences
* ``verify-inequalities`` randomized batches of the functional-inequality
                          testers, reported as JSON lines
* ``exponents``           prints a bootstrap exponent table as CSV
* ``verify-exponents``    randomized verification of the exponent recursions

Config files are line-oriented ``key = value`` with ``#`` comments; unknown
keys are rejected, missing required keys are reported by name.
"""

from __future__ import annotations

import argparse
import json
import math
import struct
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import diagnostics, exponents
from .diagnostics import MonitorRow
from .grid import Grid
from .model import (INITIAL_KINDS, InitialData, Params, State, build_initial,
                    build_initial_from_fields)
from .stepper import Cadence, StepControl, run

SNAPSHOT_MAGIC = b"DTXS1"

_REQUIRED = object()


def _parse_int_list(s: str) -> tuple[int, ...]:
    return tuple(int(x.strip()) for x in s.split(","))


def _parse_float_list(s: str) -> tuple[float, ...]:
    return tuple(float(x.strip()) for x in s.split(","))


_SCHEMA: dict = {
    "dim": (int, None),
    "cells": (_parse_int_list, _REQUIRED),
    "lengths": (_parse_float_list, None),
    "alpha": (float, _REQUIRED),
    "chi": (float, 1.0),
    "ell": (float, 0.0),
    "epsilon": (float, _REQUIRED),
    "cfl_safety": (float, 0.9),
    "avg_mode": (str, "geometric"),
    "u0_kind": (str, "gaussian_bump"),
    "u0_base": (float, 0.0),
    "u0_amplitude": (float, 1.0),
    "u0_width": (float, 0.15),
    "u0_mode": (int, 2),
    "v0_base": (float, 1.0),
    "v0_amplitude": (float, 0.0),
    "v0_mode": (int, 1),
    "v0_floor": (float, 1e-3),
    "snapshot_in": (str, None),
    "t_end": (float, _REQUIRED),
    "dt_max": (float, math.inf),
    "max_rejects": (int, 40),
    "monitor_cadence": (float, None),
    "snapshot_cadence": (float, None),
    "p_list": (_parse_float_list, (1.0, 2.0, 3.0)),
    "output_dir": (str, "out"),
}


@dataclass(frozen=True)
class RunConfig:
    grid: Grid
    initial: InitialData
    params: Params
    control: StepControl
    monitor_cadence: float
    snapshot_cadence: float | None
    p_list: tuple[float, ...]
    output_dir: str


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a key = value config into a RunConfig."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"invalid value for line {lineno}: {line!r} (expected key = value)")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _SCHEMA:
            raise ValueError(f"unknown key {key}")
        raw[key] = value.strip()

    vals: dict = {}
    for key, (parser, default) in _SCHEMA.items():
        if key in raw:
            try:
                vals[key] = parser(raw[key])
                if parser is not str and np.isnan(vals[key]).any():
                    raise ValueError
            except (TypeError, ValueError):
                raise ValueError(f"invalid value for {key}: {raw[key]!r}") from None
        elif default is _REQUIRED:
            raise ValueError(f"missing key {key}")
        else:
            vals[key] = default

    cells = vals["cells"]
    dim = vals["dim"] if vals["dim"] is not None else len(cells)
    if len(cells) == 1 and dim > 1:
        cells = cells * dim
    if len(cells) != dim:
        raise ValueError(f"invalid value for cells: {len(cells)} axes given, dim = {dim}")
    lengths = vals["lengths"]
    if lengths is None:
        lengths = (1.0,) * dim
    elif len(lengths) == 1 and dim > 1:
        lengths = lengths * dim
    if len(lengths) != dim:
        raise ValueError(f"invalid value for lengths: {len(lengths)} axes given, dim = {dim}")

    grid = Grid(cells, lengths)
    params = Params(alpha=vals["alpha"], epsilon=vals["epsilon"], chi=vals["chi"],
                    ell=vals["ell"], cfl_safety=vals["cfl_safety"],
                    avg_mode=vals["avg_mode"])
    if vals["u0_kind"] not in INITIAL_KINDS:
        raise ValueError(f"invalid value for u0_kind: {vals['u0_kind']!r}")
    if vals["u0_kind"] == "from_snapshot" and not vals["snapshot_in"]:
        raise ValueError("missing key snapshot_in")
    initial = InitialData(kind=vals["u0_kind"], u_base=vals["u0_base"],
                          u_amplitude=vals["u0_amplitude"], u_width=vals["u0_width"],
                          u_mode=vals["u0_mode"], v_base=vals["v0_base"],
                          v_amplitude=vals["v0_amplitude"], v_mode=vals["v0_mode"],
                          v_floor=vals["v0_floor"], snapshot_path=vals["snapshot_in"])
    control = StepControl(t_end=vals["t_end"], dt_max=vals["dt_max"],
                          max_rejects=vals["max_rejects"])
    for key in ("monitor_cadence", "snapshot_cadence"):
        if vals[key] is not None and not 0.0 < vals[key] < math.inf:
            raise ValueError(f"invalid value for {key}: {vals[key]}")
    cadence = vals["monitor_cadence"]
    if cadence is None:
        cadence = vals["t_end"] / 20.0
    return RunConfig(grid=grid, initial=initial, params=params, control=control,
                     monitor_cadence=cadence, snapshot_cadence=vals["snapshot_cadence"],
                     p_list=vals["p_list"], output_dir=vals["output_dir"])


def parse_config_file(path) -> RunConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# snapshot persistence


@dataclass(frozen=True)
class Snapshot:
    """A loaded field snapshot: the state plus the model constants it ran with."""

    state: State
    alpha: float
    chi: float
    ell: float
    epsilon: float


def save_snapshot(state: State, params: Params, path) -> None:
    """Binary snapshot: magic, grid header, (t, alpha, chi, ell, epsilon), u, v.

    All payload floats are little-endian 64-bit, row-major, so the round trip
    is bit exact.
    """
    g = state.grid
    with open(path, "wb") as f:
        f.write(SNAPSHOT_MAGIC)
        f.write(struct.pack("<I", g.dim))
        f.write(struct.pack(f"<{g.dim}I", *g.cells))
        f.write(struct.pack(f"<{g.dim}d", *g.lengths))
        f.write(struct.pack("<5d", state.t, params.alpha, params.chi,
                            params.ell, params.epsilon))
        f.write(np.ascontiguousarray(state.u, dtype="<f8").tobytes())
        f.write(np.ascontiguousarray(state.v, dtype="<f8").tobytes())


def load_snapshot(path, expect_grid: Grid | None = None) -> Snapshot:
    data = Path(path).read_bytes()
    if len(data) < len(SNAPSHOT_MAGIC) or not data.startswith(SNAPSHOT_MAGIC):
        raise ValueError("not a snapshot")
    off = len(SNAPSHOT_MAGIC)

    def take(fmt: str):
        nonlocal off
        size = struct.calcsize(fmt)
        if off + size > len(data):
            raise ValueError("corrupt snapshot")
        vals = struct.unpack_from(fmt, data, off)
        off += size
        return vals

    (dim,) = take("<I")
    if dim not in (1, 2, 3):
        raise ValueError("corrupt snapshot")
    cells = take(f"<{dim}I")
    lengths = take(f"<{dim}d")
    t, alpha, chi, ell, epsilon = take("<5d")
    n = int(np.prod(cells))
    if len(data) != off + 2 * 8 * n:
        raise ValueError("corrupt snapshot")
    u = np.frombuffer(data, dtype="<f8", count=n, offset=off).reshape(cells).copy()
    v = np.frombuffer(data, dtype="<f8", count=n, offset=off + 8 * n).reshape(cells).copy()
    grid = Grid(cells, lengths)
    if expect_grid is not None and grid != expect_grid:
        raise ValueError(
            f"grid mismatch: config cells={expect_grid.cells} lengths={expect_grid.lengths}"
            f" vs snapshot cells={grid.cells} lengths={grid.lengths}")
    return Snapshot(state=State(grid=grid, t=t, u=u, v=v),
                    alpha=alpha, chi=chi, ell=ell, epsilon=epsilon)


def build_state(config: RunConfig) -> State:
    """Starting state for a config, resolving snapshot-based initial data."""
    if config.initial.kind == "from_snapshot":
        snap = load_snapshot(config.initial.snapshot_path, expect_grid=config.grid)
        return build_initial_from_fields(config.grid, snap.state.u, snap.state.v,
                                         config.params, v_floor=config.initial.v_floor)
    return build_initial(config.grid, config.initial, config.params)


# ---------------------------------------------------------------------------
# run command


def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(x if isinstance(x, str) else _fmt(x) for x in row) + "\n")


class _ResidualObserver:
    """Evaluate the balance-law residuals for the step crossing each tick."""

    def __init__(self, params: Params, cadence: float, t_end: float):
        self.params = params
        self.ticks = Cadence(cadence, t_end)
        self.rows: list[list] = []

    def __call__(self, prev: State, new: State, dt: float):
        if self.ticks.due(new.t) is None:
            return
        reports = [
            diagnostics.residual_v_energy(prev, new, self.params),
            diagnostics.residual_vq_identity(prev, new, 2.0, self.params),
            diagnostics.residual_upvq_identity(prev, new, 0.5, 1.0, self.params),
        ]
        for rep in reports:
            self.rows.append([rep.name, rep.t0, rep.t1, rep.lhs, rep.rhs,
                              rep.residual, rep.normalizer, rep.rel, ""])
        fe = diagnostics.check_first_energy(prev, new, self.params)
        self.rows.append(["first_energy", fe.t0, fe.t1, fe.rate + fe.dissipation,
                          fe.rhs_equality, fe.residual, fe.normalizer, fe.rel,
                          _fmt(fe.slack)])


class _SnapshotObserver:
    """Write one snapshot per step that reaches a tick, numbered by the first."""

    def __init__(self, out_dir: Path, params: Params, cadence: float, t_end: float):
        self.out_dir = out_dir
        self.params = params
        self.ticks = Cadence(cadence, t_end)

    def __call__(self, prev: State, new: State, dt: float):
        k = self.ticks.due(new.t)
        if k is not None:
            save_snapshot(new, self.params, self.out_dir / f"snap_{k:04d}.dtxs")


RESIDCOLS = ["identity", "t0", "t1", "lhs", "rhs", "residual", "normalizer",
             "rel_residual", "first_energy_slack"]


def cmd_run(config: RunConfig, output_dir=None) -> int:
    """Execute one configured run and persist its outputs; 0 on success."""
    out = Path(output_dir if output_dir is not None else config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        state = build_state(config)
        resid = _ResidualObserver(config.params, config.monitor_cadence,
                                  config.control.t_end)
        observers = [resid]
        if config.snapshot_cadence is not None:
            observers.append(_SnapshotObserver(out, config.params,
                                               config.snapshot_cadence,
                                               config.control.t_end))
            save_snapshot(state, config.params, out / "snap_0000.dtxs")
        traj = run(state, config.params, config.control, observers=observers,
                   monitor_cadence=config.monitor_cadence, p_list=config.p_list)
        _write_csv(out / "monitors.csv", MonitorRow.csv_header(config.p_list),
                   [row.csv_values() for row in traj.rows])
        _write_csv(out / "residuals.csv", RESIDCOLS, resid.rows)
        return 0
    except (RuntimeError, FloatingPointError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


# ---------------------------------------------------------------------------
# sweep command


def regime_label(alpha: float) -> str:
    """Chemotactic-strength regime of a response exponent (endpoints closed left)."""
    if alpha <= 1.0:
        return "weak"
    if alpha <= 1.5:
        return "moderate"
    return "strong"


def _sweep_one(arg) -> tuple[float, str, str, list | None]:
    config, alpha, subdir = arg
    cfg = replace(config, params=replace(config.params, alpha=alpha))
    try:
        status = cmd_run(cfg, output_dir=subdir)
    except Exception as exc:  # isolation: a failing run must not kill the sweep
        print(f"error: {exc}", file=sys.stderr)
        status = 1
    final_row = None
    if status == 0:
        mon = Path(subdir) / "monitors.csv"
        final_row = mon.read_text(encoding="utf-8").strip().splitlines()[-1].split(",")
    return alpha, regime_label(alpha), "ok" if status == 0 else "failed", final_row


def run_sweep(config: RunConfig, alphas, output_dir=None, workers: int = 1) -> list:
    """Independent runs per response exponent; one aggregated CSV row each."""
    out = Path(output_dir if output_dir is not None else config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    jobs = [(config, float(a), str(out / f"alpha_{a:g}")) for a in alphas]
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_one, jobs))
    else:
        results = [_sweep_one(j) for j in jobs]
    header = ["alpha", "regime", "status"] + MonitorRow.csv_header(config.p_list)
    rows = []
    for alpha, regime, status, final in results:
        pad = final if final is not None else [""] * (len(header) - 3)
        rows.append([_fmt(alpha), regime, status] + list(pad))
    _write_csv(out / "sweep.csv", header, rows)
    return results


# ---------------------------------------------------------------------------
# epsilon study


@dataclass(frozen=True)
class EpsRow:
    eps_coarse: float
    eps_fine: float
    l2_diff_u: float
    l2_diff_v: float
    status: str


def run_eps_study(config: RunConfig, eps_list) -> list[EpsRow]:
    """Rerun one config over a decreasing list of regularization shifts.

    Reports the L2 distance between final fields of consecutive runs.  Only
    finiteness is asserted here: the underlying limit comes with no rate, so
    monotonicity of the differences is not a contract.
    """
    eps_list = [float(e) for e in eps_list]
    if any(not 0.0 < e < 1.0 for e in eps_list):
        raise ValueError("every epsilon must lie in (0, 1)")
    if any(b > a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("epsilon list must be decreasing")
    finals: list[State | None] = []
    for eps in eps_list:
        cfg = replace(config, params=replace(config.params, epsilon=eps))
        try:
            state = build_state(cfg)
            traj = run(state, cfg.params, cfg.control, monitor_cadence=None,
                       p_list=cfg.p_list)
            finals.append(traj.final)
        except (RuntimeError, FloatingPointError, ValueError) as exc:
            print(f"error: epsilon={eps}: {exc}", file=sys.stderr)
            finals.append(None)
    rows = []
    g = config.grid
    for (ea, fa), (eb, fb) in zip(zip(eps_list, finals), zip(eps_list[1:], finals[1:])):
        if fa is None or fb is None:
            rows.append(EpsRow(ea, eb, math.nan, math.nan, "failed"))
            continue
        rows.append(EpsRow(ea, eb,
                           g.lp_norm(fb.u - fa.u, 2.0),
                           g.lp_norm(fb.v - fa.v, 2.0), "ok"))
    return rows


def cmd_eps_study(config: RunConfig, eps_list, output_dir=None) -> int:
    out = Path(output_dir if output_dir is not None else config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        rows = run_eps_study(config, eps_list)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write_csv(out / "eps_study.csv",
               ["eps_coarse", "eps_fine", "l2_diff_u", "l2_diff_v", "status"],
               [[r.eps_coarse, r.eps_fine, r.l2_diff_u, r.l2_diff_v, r.status]
                for r in rows])
    return 0 if all(r.status == "ok" for r in rows) else 1


# ---------------------------------------------------------------------------
# inequality and exponent commands


def cmd_verify_inequalities(cells: int, samples: int, seed: int, qs, out=None) -> int:
    lines = []
    bad = 0
    for dim in (1, 2):
        grid = Grid(cells) if dim == 1 else Grid((max(16, cells // 2),) * 2)
        for q in qs:
            rep = diagnostics.log_hessian_batch(grid, q, samples, seed)
            bad += rep.violations
            lines.append({"check": "log_hessian", "dim": dim, "q": q,
                          "samples": rep.samples, "violations": rep.violations,
                          "max_ratio": rep.max_ratio})
    coarse = diagnostics.sobolev_batch(Grid(cells), samples, seed)
    fine = diagnostics.sobolev_batch(Grid(2 * cells), samples, seed)
    rel_change = abs(fine.max_ratio - coarse.max_ratio) / coarse.max_ratio
    lines.append({"check": "sobolev_product", "dim": 1, "samples": samples,
                  "max_ratio": coarse.max_ratio,
                  "max_ratio_refined": fine.max_ratio,
                  "rel_change_on_refinement": rel_change})
    text = "\n".join(json.dumps(line) for line in lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")
    return 1 if bad else 0


def cmd_exponents(regime: str, alpha: float, seed_value: float, count: int) -> int:
    w = sys.stdout.write
    if regime == "weak":
        w(f"# p0_sup = {exponents.p0_sup(alpha)!r}\n")
        w("k,r,p\n")
        r = seed_value
        for k in range(count):
            w(f"{k},{_fmt(r)},{_fmt(exponents.weak_feedback_p(r, alpha))}\n")
            r += 0.25
        return 0
    if regime == "moderate":
        seq = exponents.moderate_seq(seed_value, alpha, count)
        w("k,m,p,r\n")
    elif regime == "moderate-hat":
        seq = exponents.moderate_seq_hat(seed_value, alpha, count)
        w("k,m_hat,p_hat,r_hat\n")
    elif regime == "strong":
        seq = exponents.strong_seq(seed_value, alpha, count)
        w("k,q,p,r\n")
    else:
        print(f"error: unknown regime {regime!r}", file=sys.stderr)
        return 2
    for tr in seq:
        w(f"{tr.k},{_fmt(tr.first)},{_fmt(tr.p)},{_fmt(tr.r)}\n")
    return 0


def cmd_verify_exponents(samples: int, seed: int, iterations: int, out=None) -> int:
    report = exponents.verify_regime_lemmas(samples, seed, iterations)
    text = "\n".join(json.dumps(r.as_dict()) for r in report.reports()) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dtaxis",
                                 description="degenerate taxis numerical laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one configured simulation")
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir", default=None)

    p = sub.add_parser("sweep", help="independent runs over response exponents")
    p.add_argument("--config", required=True)
    p.add_argument("--alphas", required=True, help="comma list, each in [0, 2)")
    p.add_argument("--output-dir", default=None)
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("eps-study", help="convergence study in the shift epsilon")
    p.add_argument("--config", required=True)
    p.add_argument("--eps", required=True, help="strictly decreasing comma list in (0,1)")
    p.add_argument("--output-dir", default=None)

    p = sub.add_parser("verify-inequalities", help="randomized inequality batches")
    p.add_argument("--cells", type=int, default=64)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--qs", default="2,3,4")
    p.add_argument("--out", default=None)

    p = sub.add_parser("exponents", help="print one bootstrap exponent table")
    p.add_argument("--regime", required=True,
                   choices=["weak", "moderate", "moderate-hat", "strong"])
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--seed-value", type=float, required=True,
                   help="m0 / mhat0 / q0 / starting r")
    p.add_argument("--count", type=int, default=12)

    p = sub.add_parser("verify-exponents", help="randomized recursion checks")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iterations", type=int, default=200)
    p.add_argument("--out", default=None)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(parse_config_file(args.config), output_dir=args.output_dir)
        if args.command == "sweep":
            config = parse_config_file(args.config)
            alphas = [float(a) for a in args.alphas.split(",") if a.strip()]
            results = run_sweep(config, alphas, output_dir=args.output_dir,
                                workers=args.workers)
            return 0 if all(r[2] == "ok" for r in results) else 1
        if args.command == "eps-study":
            config = parse_config_file(args.config)
            eps = [float(e) for e in args.eps.split(",") if e.strip()]
            return cmd_eps_study(config, eps, output_dir=args.output_dir)
        if args.command == "verify-inequalities":
            qs = tuple(float(q) for q in args.qs.split(","))
            return cmd_verify_inequalities(args.cells, args.samples, args.seed,
                                           qs, out=args.out)
        if args.command == "exponents":
            return cmd_exponents(args.regime, args.alpha, args.seed_value, args.count)
        if args.command == "verify-exponents":
            return cmd_verify_exponents(args.samples, args.seed, args.iterations,
                                        out=args.out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
