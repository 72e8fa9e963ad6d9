"""Configuration, experiment orchestration, persistence, and the command line.

Subcommands:

* ``run``                 one simulation; writes monitors.csv, residuals.csv
                          and (optionally) field snapshots at a fixed cadence
* ``sweep``               a run per response exponent in ``alpha_<value>/``;
                          final rows in sweep.csv, tagged by ``exponents.regime``
* ``eps-study``           a run per regularization shift in ``epsilon_<value>/``;
                          successive L2 differences written to eps_study.csv
* ``verify-inequalities`` randomized batches of the functional-inequality
                          testers, reported as JSON lines
* ``exponents``           prints a bootstrap exponent table as CSV
* ``verify-exponents``    randomized verification of the exponent recursions

``_build_parser`` declares each subcommand's flags with its handler; ``main``
parses, calls it, and maps input rejected before any run to exit code 2.  Both
studies are one engine (``_study``) plus an aggregate; ``_config`` applies
``--output-dir``.  Every command builds the starting state of each run and study
member before it writes any output or starts any run.  Exit code 1: a run or a
member failed, an error writing its outputs included, or a study's aggregate or
an ``--out`` file could not be written once the work ran; a failed member is
reported and marked failed while the others run.

Config files are line-oriented ``key = value`` with ``#`` comments; unknown
keys and a key given twice are rejected, and a key whose record field has no
default is required.
A snapshot file is the magic, one ``_SNAPSHOT_HEADERS`` struct, then u and v.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import itertools
import json
import math
import struct
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import diagnostics, exponents
from .diagnostics import P_LIST, MonitorRow
from .grid import Grid
from .model import InitialData, Params, State, build_initial, build_initial_from_fields
from .stepper import Cadence, StepControl, Trajectory, run

SNAPSHOT_MAGIC = b"DTXS1"


def _tuple_of(kind):
    return lambda s: tuple(map(kind, s.split(",")))


def _grid(cells: tuple[int, ...], lengths=None) -> Grid:
    """The configured grid, one axis per entry of cells; one entry of lengths fills all."""
    return Grid(cells, lengths[0] if lengths and len(lengths) == 1 else lengths)


@dataclass(frozen=True)
class RunConfig:
    grid: Grid
    initial: InitialData
    params: Params
    control: StepControl
    monitor_cadence: float | None
    snapshot_cadence: float | None = None
    p_list: tuple[float, ...] = P_LIST
    output_dir: str = "out"

    def __post_init__(self):
        for key in ("monitor_cadence", "snapshot_cadence"):
            try:
                Cadence(getattr(self, key), self.control.t_end)
            except ValueError as exc:
                raise ValueError(f"invalid value for {key}: {exc}") from None
        for p in self.p_list:
            if not 0.0 < p < math.inf:
                raise ValueError(f"invalid value for p_list: {p}")
        header = MonitorRow.csv_header(self.p_list)
        if len(set(header)) < len(header):
            raise ValueError(f"invalid value for p_list: {self.p_list} repeats a monitor column")


# key: (parser, record, field).  An omitted key keeps the record field's default;
# monitor_cadence, the one RunConfig field without one, defaults to t_end / 20.
_SCHEMA: dict = {
    "cells": (_tuple_of(int), _grid, "cells"),
    "lengths": (_tuple_of(float), _grid, "lengths"),
    "alpha": (float, Params, "alpha"),
    "chi": (float, Params, "chi"),
    "ell": (float, Params, "ell"),
    "epsilon": (float, Params, "epsilon"),
    "cfl_safety": (float, Params, "cfl_safety"),
    "avg_mode": (str, Params, "avg_mode"),
    "u0_kind": (str, InitialData, "kind"),
    "u0_base": (float, InitialData, "u_base"),
    "u0_amplitude": (float, InitialData, "u_amplitude"),
    "u0_width": (float, InitialData, "u_width"),
    "u0_mode": (int, InitialData, "u_mode"),
    "v0_base": (float, InitialData, "v_base"),
    "v0_amplitude": (float, InitialData, "v_amplitude"),
    "v0_mode": (int, InitialData, "v_mode"),
    "v0_floor": (float, InitialData, "v_floor"),
    "snapshot_in": (str, InitialData, "snapshot_path"),
    "t_end": (float, StepControl, "t_end"),
    "dt_max": (float, StepControl, "dt_max"),
    "monitor_cadence": (float, RunConfig, "monitor_cadence"),
    "snapshot_cadence": (float, RunConfig, "snapshot_cadence"),
    "p_list": (_tuple_of(float), RunConfig, "p_list"),
    "output_dir": (str, RunConfig, "output_dir"),
}


@functools.cache
def _required(record) -> frozenset[str]:
    """The fields a record's constructor has no default for."""
    return frozenset(n for n, p in inspect.signature(record).parameters.items()
                     if p.default is p.empty)


def parse_config(text: str) -> RunConfig:
    """Parse a key = value config into a RunConfig; the records' constructors validate it."""
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
        if key in raw:
            raise ValueError(f"duplicate key {key} at line {lineno}")
        raw[key] = value.strip()

    kw: dict = {record: {} for _, record, _ in _SCHEMA.values()}
    for key, (parser, record, name) in _SCHEMA.items():
        if key in raw:
            try:
                value = parser(raw[key])
                if parser is not str and np.isnan(value).any():
                    raise ValueError
            except (TypeError, ValueError):
                raise ValueError(f"invalid value for {key}: {raw[key]!r}") from None
            kw[record][name] = value
        elif record is not RunConfig and name in _required(record):
            raise ValueError(f"missing key {key}")
    grid, params, initial, control = (record(**kw[record]) for record in
                                      (_grid, Params, InitialData, StepControl))
    kw[RunConfig].setdefault("monitor_cadence", control.t_end / 20.0)
    return RunConfig(grid, initial, params, control, **kw[RunConfig])


def parse_config_file(path) -> RunConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# snapshot persistence


class Snapshot(NamedTuple):
    """A loaded field snapshot: the state plus the model constants it ran with."""

    state: State
    alpha: float
    chi: float
    ell: float
    epsilon: float


# the fields after the magic, per grid dimension: dim, cells, lengths, t, alpha, chi, ell, epsilon
_SNAPSHOT_HEADERS = {dim: struct.Struct(f"<I{dim}I{dim}d5d") for dim in (1, 2, 3)}


def save_snapshot(state: State, params: Params, path) -> None:
    """Binary snapshot: magic, the header ``_SNAPSHOT_HEADERS[dim]``, then u and v as
    little-endian float64 in row-major order, so the round trip is bit exact."""
    g = state.grid
    with open(path, "wb") as f:
        f.write(SNAPSHOT_MAGIC)
        f.write(_SNAPSHOT_HEADERS[g.dim].pack(g.dim, *g.cells, *g.lengths, state.t, params.alpha,
                                              params.chi, params.ell, params.epsilon))
        f.write(np.ascontiguousarray(state.u, dtype="<f8").tobytes())
        f.write(np.ascontiguousarray(state.v, dtype="<f8").tobytes())


def load_snapshot(path, expect_grid: Grid | None = None) -> Snapshot:
    data = Path(path).read_bytes()
    if not data.startswith(SNAPSHOT_MAGIC):
        raise ValueError("not a snapshot")
    off = len(SNAPSHOT_MAGIC)
    header = _SNAPSHOT_HEADERS.get(int.from_bytes(data[off:off + 4], "little"))
    if header is None or len(data) < off + header.size:
        raise ValueError("corrupt snapshot")
    dim, *fields = header.unpack_from(data, off)
    cells, lengths, (t, alpha, chi, ell, epsilon) = fields[:dim], fields[dim:-5], fields[-5:]
    off += header.size
    if len(data) != off + 2 * 8 * math.prod(cells):
        raise ValueError("corrupt snapshot")
    u, v = np.frombuffer(data, dtype="<f8", offset=off).reshape(2, *cells).copy()
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


def _write_csv(path, header: list[str], rows: list[list]) -> list[list]:
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(x if isinstance(x, str) else _fmt(x) for x in row) + "\n")
    return rows


RESIDCOLS = ["identity", "t0", "t1", "lhs", "rhs", "residual", "normalizer", "rel_residual",
             "first_energy_slack"]


class _ResidualObserver:
    """Evaluate the balance-law residuals for the step crossing each tick."""

    def __init__(self, params: Params, cadence: float, t_end: float):
        self.params = params
        self.ticks = Cadence(cadence, t_end)
        self.rows: list[list] = []

    def __call__(self, prev: State, new: State, dt: float):
        if self.ticks.due(new.t) is None:
            return
        self.rows += [[*rep[:7], rep.rel, "" if rep.slack is None else rep.slack]
                      for rep in diagnostics.residual_rows(prev, new, self.params)]


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


def _output_dir(config: RunConfig) -> Path:
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_run(config: RunConfig, state: State) -> Trajectory:
    """Run a config from its starting state and persist its outputs; raises if the run fails."""
    out = _output_dir(config)
    resid = _ResidualObserver(config.params, config.monitor_cadence, config.control.t_end)
    observers = [resid]
    if config.snapshot_cadence is not None:
        observers.append(_SnapshotObserver(out, config.params, config.snapshot_cadence,
                                           config.control.t_end))
        save_snapshot(state, config.params, out / "snap_0000.dtxs")
    traj = run(state, config.params, config.control, observers=observers,
               monitor_cadence=config.monitor_cadence, p_list=config.p_list)
    _write_csv(out / "monitors.csv", MonitorRow.csv_header(config.p_list),
               [row.csv_values() for row in traj.rows])
    _write_csv(out / "residuals.csv", RESIDCOLS, resid.rows)
    return traj


def _started(fn, label: str, *args):
    """fn(*args) for a run whose input was accepted, or None after reporting its failure."""
    try:
        return fn(*args)
    except (RuntimeError, FloatingPointError, ValueError, OSError) as exc:
        print(f"error: {label}{exc}", file=sys.stderr)
        return None


def cmd_run(config: RunConfig) -> int:
    """Execute one configured run and persist its outputs; 0 on success, 1 on failure."""
    return 1 if _started(_write_run, "", config, build_state(config)) is None else 0


# ---------------------------------------------------------------------------
# studies: one run per value of a Params field, then an aggregate


def _study(config: RunConfig, key: str, values, workers: int = 1) -> dict:
    """Trajectory, or None if it failed, per distinct value of the Params field key: a run of
    config with key overridden, writing to ``{key}_{value!r}`` under config.output_dir.
    Every member's starting state is built before any directory is made or any run starts."""
    values = list(dict.fromkeys(values))
    configs = [replace(config, params=replace(config.params, **{key: v}),
                       output_dir=str(Path(config.output_dir) / f"{key}_{v!r}")) for v in values]
    jobs = (functools.partial(_started, _write_run), [f"{key}={v}: " for v in values],
            configs, [build_state(cfg) for cfg in configs])
    if workers > 1 and len(values) > 1:
        from concurrent.futures import ProcessPoolExecutor  # at the top, every command would pay
        with ProcessPoolExecutor(max_workers=min(workers, len(values))) as pool:
            return dict(zip(values, pool.map(*jobs)))
    return dict(zip(values, map(*jobs)))


def run_sweep(config: RunConfig, alphas, workers: int = 1) -> list | None:
    """Independent runs per response exponent, each distinct one once in ``alpha_{alpha!r}``;
    one sweep.csv row per requested alpha, or None, reported like a failed member, if the
    rows cannot be written."""
    alphas = [float(a) for a in alphas]
    trajs = _study(config, "alpha", alphas, workers)

    def aggregate():
        results = [(a, exponents.regime(a), "ok" if trajs[a] else "failed",
                    trajs[a] and [_fmt(x) for x in trajs[a].rows[-1].csv_values()]) for a in alphas]
        cols = MonitorRow.csv_header(config.p_list)
        _write_csv(_output_dir(config) / "sweep.csv", ["alpha", "regime", "status"] + cols,
                   [[a, regime, status, *(final or [""] * len(cols))]
                    for a, regime, status, final in results])
        return results
    return _started(aggregate, "")


class EpsRow(NamedTuple):
    eps_coarse: float
    eps_fine: float
    l2_diff_u: float
    l2_diff_v: float
    status: str


def run_eps_study(config: RunConfig, eps_list) -> list[EpsRow] | None:
    """Rerun one config over a strictly decreasing list of regularization shifts, each in
    ``epsilon_{eps!r}`` and with no monitor tick to clip its steps, and write the L2
    distances between final fields of consecutive runs to eps_study.csv; None, reported like
    a failed member, if computing or writing them fails.  Only finiteness is asserted: the
    underlying limit comes with no rate, so monotonicity of the differences is not a contract.
    """
    eps_list = [float(e) for e in eps_list]
    if len(eps_list) < 2:
        raise ValueError("eps-study needs at least two epsilons")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("epsilon list must be decreasing")
    finals = {eps: traj and traj.final for eps, traj in
              _study(replace(config, monitor_cadence=None), "epsilon", eps_list).items()}

    def aggregate():
        rows, g = [], config.grid
        for ea, eb in zip(eps_list, eps_list[1:]):
            fa, fb = finals[ea], finals[eb]
            ok = fa is not None and fb is not None
            rows.append(EpsRow(ea, eb, g.lp_norm(fb.u - fa.u, 2.0) if ok else math.nan,
                               g.lp_norm(fb.v - fa.v, 2.0) if ok else math.nan,
                               "ok" if ok else "failed"))
        return _write_csv(_output_dir(config) / "eps_study.csv", list(EpsRow._fields), rows)
    return _started(aggregate, "")


# ---------------------------------------------------------------------------
# inequality and exponent commands


def cmd_verify_inequalities(args) -> int:
    cells, samples, seed, qs = args.cells, args.samples, args.seed, args.qs
    # the 1D log-Hessian fields are the first samples of the Sobolev batch's 2 samples draws
    d1 = itertools.tee(diagnostics.cosine_field_draws(seed, 1, 2 * samples))
    lines = []
    for dim, grid, drawn in ((1, Grid(cells), d1[0]), (2, Grid([max(16, cells // 2)] * 2), None)):
        for q, rep in zip(qs, diagnostics.log_hessian_batch(grid, qs, samples, seed, drawn)):
            lines.append({"check": "log_hessian", "dim": dim, "q": q, "samples": rep.samples,
                          "violations": rep.violations, "max_ratio": rep.max_ratio})
    coarse, fine = diagnostics.sobolev_batch((Grid(cells), Grid(2 * cells)), samples, seed, d1[1])
    rel_change = abs(fine.max_ratio - coarse.max_ratio) / coarse.max_ratio
    lines.append({"check": "sobolev_product", "dim": 1, "samples": samples,
                  "max_ratio": coarse.max_ratio, "max_ratio_refined": fine.max_ratio,
                  "rel_change_on_refinement": rel_change})
    return _write_jsonl(lines, args.out, ok=not any(r.get("violations") for r in lines))


def _write_jsonl(records, out, ok: bool) -> int:
    """One JSON object per line, to the file out or else to stdout; exit code 0 if ok, else 1.
    A file that cannot be written is reported like a failed run, and exits 1."""
    text = "".join(json.dumps(r) + "\n" for r in records)
    if out is None:
        sys.stdout.write(text)
    elif _started(Path(out).write_text, "", text, "utf-8") is None:
        return 1
    return 0 if ok else 1


# regime: (bootstrap recursion, CSV header); the weak regime's feedback table has its own shape
_SEQUENCES = {
    "moderate": (exponents.moderate_seq, "k,m,p,r"),
    "moderate-hat": (exponents.moderate_seq_hat, "k,m_hat,p_hat,r_hat"),
    "strong": (exponents.strong_seq, "k,q,p,r"),
}


def cmd_exponents(args) -> int:
    """Print one exponent table, built and checked finite in full before any of it is written."""
    regime, alpha, seed_value, count = args.regime, args.alpha, args.seed_value, args.count
    lines = []
    if regime == "weak":
        lines.append(f"# p0_sup = {exponents.p0_sup(alpha)!r}")
        header, rows, r = "k,r,p", [], seed_value
        for k in range(count):
            rows.append((k, r, exponents.weak_feedback_p(r, alpha)))
            r += 0.25
    else:
        recursion, header = _SEQUENCES[regime]
        rows = [(tr.k, tr.first, tr.p, tr.r) for tr in recursion(seed_value, alpha, count)]
    for k, *values in rows:
        for name, x in zip(header.split(",")[1:], values):
            if not math.isfinite(x):
                raise ValueError(f"exponent {name} at k={k} must be finite, got {x}")
    lines += [header, *(",".join([str(k), *map(_fmt, values)]) for k, *values in rows)]
    sys.stdout.write("".join(line + "\n" for line in lines))
    return 0


def cmd_verify_exponents(args) -> int:
    report = exponents.verify_regime_lemmas(args.samples, args.seed, args.iterations)
    return _write_jsonl((r.as_dict() for r in report.reports()), args.out, report.ok)


# ---------------------------------------------------------------------------
# the command table: each subcommand's flags and its handler


def _positive_int(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _float_list(text: str) -> list[float]:
    """Comma list of numbers; empty entries are skipped, but one entry is required."""
    values = [float(x) for x in text.split(",") if x.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"expected a comma list of numbers, got {text!r}")
    return values


def _config(args) -> RunConfig:
    """The --config file, with --output-dir, when given, replacing its output_dir."""
    config = parse_config_file(args.config)
    return config if args.output_dir is None else replace(config, output_dir=args.output_dir)


def _all_ok(rows, status: int) -> int:
    """0 if a study's aggregate was written and each row's entry ``status`` is ok, else 1."""
    return 0 if rows is not None and all(row[status] == "ok" for row in rows) else 1


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dtaxis",
                                 description="degenerate taxis numerical laboratory")
    sub = ap.add_subparsers(dest="command", required=True)
    configured = argparse.ArgumentParser(add_help=False)
    configured.add_argument("--config", required=True)
    configured.add_argument("--output-dir", default=None)

    def command(name, help, func, *parents):
        p = sub.add_parser(name, help=help, parents=parents)
        p.set_defaults(func=func)
        return p

    command("run", "run one configured simulation", lambda a: cmd_run(_config(a)), configured)

    p = command("sweep", "independent runs over response exponents",
                lambda a: _all_ok(run_sweep(_config(a), a.alphas, a.workers), 2),
                configured)
    p.add_argument("--alphas", type=_float_list, required=True, help="comma list, each in [0, 2)")
    p.add_argument("--workers", type=_positive_int, default=1)

    p = command("eps-study", "convergence study in the shift epsilon",
                lambda a: _all_ok(run_eps_study(_config(a), a.eps), -1), configured)
    p.add_argument("--eps", type=_float_list, required=True,
                   help="strictly decreasing comma list in (0, 1)")

    p = command("verify-inequalities", "randomized inequality batches", cmd_verify_inequalities)
    p.add_argument("--cells", type=int, default=64)
    p.add_argument("--samples", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--qs", type=_float_list, default="2,3,4")
    p.add_argument("--out", default=None)

    p = command("exponents", "print one bootstrap exponent table", cmd_exponents)
    p.add_argument("--regime", required=True,
                   choices=["weak", *_SEQUENCES])
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--seed-value", type=float, required=True,
                   help="m0 / mhat0 / q0 / starting r")
    p.add_argument("--count", type=_positive_int, default=12)

    p = command("verify-exponents", "randomized recursion checks", cmd_verify_exponents)
    p.add_argument("--samples", type=_positive_int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iterations", type=_positive_int, default=200)
    p.add_argument("--out", default=None)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # input rejected before any run
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
