"""The four benchmark workloads: seeded inputs, one timed unit, and its checks.

A workload turns ``--seed`` into program inputs (config texts, a restart
snapshot, verify seeds), then repeats one *unit* of work for the measured
time.  A unit is a list of *operations* (one member run or one verify
command), each a zero-argument callable that the harness times on its own.
Every operation's output is checked after the unit, outside the timed
region, and each failed check or exception counts as one failed operation.

Every workload also runs one *canary* operation per benchmark run: a fixed,
seed-independent input whose final fields (or ratios) are compared against
``reference.json``.  The tolerance (``REF_RTOL``) allows a reordered
summation but catches a changed scheme.

Checks use the benchmark's own numpy arithmetic, not the program's
quadratures, wherever the quantity is simple enough to recompute.
"""

from __future__ import annotations

import json
import math
import shutil
import zlib
from pathlib import Path

import numpy as np

REF_RTOL = 1e-9          # canary fields vs reference.json, relative to max |ref|
MASS_RTOL = 1e-10        # telescoping mass law over a whole run
SUPV_ATOL = 1e-12        # sup v may not rise above its initial value
SLACK_TOL = 1e-8         # one-sided first-energy inequality, as in criterion 2/3
BUDGET_TOL = 1e-8        # consumption budget acc(uv) <= int v0

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def config_text(**kv) -> str:
    """A ``key = value`` config; floats keep every digit."""
    lines = []
    for k, v in kv.items():
        if isinstance(v, float):
            v = repr(v)
        elif isinstance(v, (tuple, list)):
            v = ",".join(str(x) for x in v)
        lines.append(f"{k} = {v}")
    return "\n".join(lines) + "\n"


def _integral(grid_h, f) -> float:
    return float(np.sum(f)) * math.prod(grid_h)


def _rel_close(a, b, rtol) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def check_mass_law(u0, v0, u_t, v_t, acc_uv, ell, h) -> list[str]:
    """int u_T - int u_0 - ell acc.uv == 0 and int v_T - int v_0 + acc.uv == 0."""
    mu0, mv0 = _integral(h, u0), _integral(h, v0)
    mut, mvt = _integral(h, u_t), _integral(h, v_t)
    errs = []
    if not abs(mut - mu0 - ell * acc_uv) <= MASS_RTOL * max(1.0, abs(mu0)):
        errs.append(f"u mass law off by {mut - mu0 - ell * acc_uv:.3e}")
    if not abs(mvt - mv0 + acc_uv) <= MASS_RTOL * max(1.0, abs(mv0)):
        errs.append(f"v mass law off by {mvt - mv0 + acc_uv:.3e}")
    return errs


def check_trajectory(traj, u0, v0, ell, t_end, h) -> list[str]:
    """Checks shared by every library-level member run."""
    fin = traj.final
    errs = check_mass_law(u0, v0, fin.u, fin.v, fin.acc.uv, ell, h)
    if not abs(fin.t - t_end) <= 1e-9 * max(1.0, t_end):
        errs.append(f"stopped at t={fin.t!r}, not {t_end!r}")
    supv0 = float(np.max(v0))
    rows_supv = max(row.sup_v for row in traj.rows)
    if max(rows_supv, float(np.max(fin.v))) > supv0 + SUPV_ATOL:
        errs.append(f"sup v rose from {supv0!r} to {max(rows_supv, float(np.max(fin.v)))!r}")
    if not all(math.isfinite(x) for row in traj.rows for x in row.csv_values()):
        errs.append("non-finite monitor row")
    if float(np.min(fin.u)) < 0.0 or float(np.min(fin.v)) <= 0.0:
        errs.append("final state lost positivity")
    return errs


def compare_reference(name: str, observed: dict[str, np.ndarray]) -> list[str]:
    ref = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))[name]
    errs = []
    for key, want in ref.items():
        want = np.asarray(want, dtype=float)
        got = np.asarray(observed.get(key, np.array([])), dtype=float).ravel()
        if got.shape != want.shape:
            errs.append(f"canary {key}: shape {got.shape} != {want.shape}")
            continue
        scale = max(float(np.max(np.abs(want))), 1e-300)
        dev = float(np.max(np.abs(got - want))) / scale
        if not dev <= REF_RTOL:
            errs.append(f"canary {key}: relative deviation {dev:.3e} > {REF_RTOL:g}")
    return errs


class Workload:
    """Base class: ``setup`` and ``ops`` run the program, ``check`` judges it."""

    name = ""
    cells = 1                  # cells per member grid, for ns per cell-step
    snapshot_bytes = 0         # bytes of one snapshot, computed from the format
    exponent_samples = 0       # exponent-verification samples per unit
    # Slope of log(operation time) on log(speed-probe time), fitted over
    # interleaved runs on the defining machine: about 1 where small numpy
    # calls and Python dominate, about 0.5 for whole-cube arithmetic.
    speed_exponent = 1.0

    def __init__(self, seed: int, size: str, workdir: Path):
        self.workdir = workdir

    def prepare(self, pkg) -> None:
        """Untimed one-off input files."""

    def setup(self, pkg) -> None:
        """Timed as ``setup_s``: parse configs, build or load initial states."""

    def ops(self, pkg) -> list:
        """The operations of one unit; untimed preparation may happen here."""
        raise NotImplementedError

    def check(self, pkg, outputs) -> list[list[str]]:
        """One list of failure messages per operation (empty when it passed)."""
        raise NotImplementedError

    def canary(self, pkg) -> dict[str, np.ndarray]:
        raise NotImplementedError


def _judge(outputs, check_one) -> list[list[str]]:
    return [[f"{type(o).__name__}: {o}"] if isinstance(o, Exception) else check_one(o)
            for o in outputs]


class MassLaw1D(Workload):
    """Criterion-1 shape: 1D-256 cosine_mix, alpha 1.25, cfl 1.0, ell = 1 and 0."""

    name = "mass_law_1d"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.cells, self.t_end = (256, 0.02) if size == "full" else (32, 0.002)
        rng = _rng(seed, self.name)
        # The step count follows max(u v + u^alpha v) and the decay rate of
        # the u mode, so the seed keeps the criterion-1 mode and moves the
        # amplitudes by 1-2 %: the inputs differ, the work hardly does.
        self.texts = [config_text(
            cells=self.cells, alpha=1.25, epsilon=0.01, ell=ell, cfl_safety=1.0,
            u0_kind="cosine_mix", u0_base=float(rng.uniform(0.495, 0.505)),
            u0_amplitude=float(rng.choice([-1.0, 1.0]) * rng.uniform(0.245, 0.255)),
            u0_mode=2, v0_base=1.0, v0_amplitude=float(rng.uniform(0.0, 0.01)),
            v0_mode=int(rng.integers(1, 3)), t_end=self.t_end) for ell in (1.0, 0.0)]

    def setup(self, pkg):
        self.configs = [pkg.cli.parse_config(t) for t in self.texts]
        self.states = [pkg.cli.build_state(c) for c in self.configs]

    def ops(self, pkg):
        stepper = pkg.stepper
        return [lambda c=c, s=s: (c, s, stepper.run(s, c.params, c.control))
                for c, s in zip(self.configs, self.states)]

    def check(self, pkg, outputs):
        return _judge(outputs, lambda o: check_trajectory(
            o[2], o[1].u, o[1].v, o[0].params.ell, o[0].control.t_end, o[0].grid.h))

    def canary(self, pkg):
        cfg = pkg.cli.parse_config(config_text(
            cells=256, alpha=1.25, epsilon=0.01, ell=1.0, cfl_safety=1.0,
            u0_kind="cosine_mix", u0_base=0.5, u0_amplitude=-0.25, u0_mode=2,
            v0_base=1.0, v0_amplitude=0.0, t_end=0.002))
        traj = pkg.stepper.run(pkg.cli.build_state(cfg), cfg.params, cfg.control)
        return {"u": traj.final.u, "v": traj.final.v}


CORPUS_ALPHAS = (0.5, 1.25, 1.75)


class Corpus1D64(Workload):
    """Nine-member regime corpus (3 alpha x 3 data kinds) at 1D-64 with a
    per-step ``check_first_energy`` observer and monitors at a quarter of T."""

    name = "corpus_1d64"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.cells, self.t_end = (64, 0.05) if size == "full" else (16, 0.01)
        rng = _rng(seed, self.name)
        kinds = [
            dict(u0_kind="constant", u0_base=0.0,
                 u0_amplitude=float(rng.uniform(0.97, 1.03)), v0_base=1.0),
            dict(u0_kind="gaussian_bump", u0_amplitude=float(rng.uniform(0.97, 1.03)),
                 u0_width=float(rng.uniform(0.13, 0.17)), v0_base=1.0),
            dict(u0_kind="cosine_mix", u0_base=1.0,
                 u0_amplitude=float(-rng.uniform(0.48, 0.52)),
                 u0_mode=int(rng.integers(1, 4)), v0_base=1.0,
                 v0_amplitude=float(rng.uniform(0.18, 0.22))),
        ]
        self.texts = [config_text(cells=self.cells, alpha=alpha, epsilon=0.01, ell=1.0,
                                  t_end=self.t_end, monitor_cadence=self.t_end / 4.0,
                                  **kind)
                      for alpha in CORPUS_ALPHAS for kind in kinds]

    def setup(self, pkg):
        self.configs = [pkg.cli.parse_config(t) for t in self.texts]
        self.states = [pkg.cli.build_state(c) for c in self.configs]

    def _member(self, pkg, cfg, state):
        diagnostics = pkg.diagnostics
        probe = {"min_slack": math.inf, "supv_rise": 0.0}

        def observer(prev, new, dt):
            fe = diagnostics.check_first_energy(prev, new, cfg.params)
            probe["min_slack"] = min(probe["min_slack"], fe.slack)
            probe["supv_rise"] = max(probe["supv_rise"],
                                     float(new.v.max()) - float(prev.v.max()))

        traj = pkg.stepper.run(state, cfg.params, cfg.control, observers=[observer],
                               monitor_cadence=cfg.monitor_cadence)
        return cfg, state, traj, probe

    def ops(self, pkg):
        return [lambda c=c, s=s: self._member(pkg, c, s)
                for c, s in zip(self.configs, self.states)]

    def check(self, pkg, outputs):
        def one(o):
            cfg, s0, traj, probe = o
            errs = check_trajectory(traj, s0.u, s0.v, cfg.params.ell,
                                    cfg.control.t_end, cfg.grid.h)
            if not probe["min_slack"] >= -SLACK_TOL:
                errs.append(f"first-energy slack {probe['min_slack']:.3e}")
            if not probe["supv_rise"] <= SUPV_ATOL:
                errs.append(f"sup v rose by {probe['supv_rise']:.3e} in one step")
            budget = traj.final.acc.uv - _integral(cfg.grid.h, s0.v)
            if not budget <= BUDGET_TOL:
                errs.append(f"consumption budget exceeded by {budget:.3e}")
            if len(traj.rows) != 5:
                errs.append(f"{len(traj.rows)} monitor rows, expected 5")
            return errs
        return _judge(outputs, one)

    def canary(self, pkg):
        cfg = pkg.cli.parse_config(config_text(
            cells=64, alpha=1.25, epsilon=0.01, ell=1.0, u0_kind="gaussian_bump",
            u0_amplitude=1.0, u0_width=0.15, v0_base=1.0, t_end=0.01))
        traj = pkg.stepper.run(pkg.cli.build_state(cfg), cfg.params, cfg.control,
                               monitor_cadence=0.0025)
        return {"u": traj.final.u, "v": traj.final.v}


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _snapshot_payload(path: Path, cells: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """u and v straight from the documented layout: the file ends with u, v
    as little-endian float64, row-major."""
    n = math.prod(cells)
    raw = path.read_bytes()
    body = np.frombuffer(raw, dtype="<f8", count=2 * n, offset=len(raw) - 16 * n)
    return body[:n].reshape(cells), body[n:].reshape(cells)


class LabRun3D(Workload):
    """``dtaxis run`` through ``cli.main`` at 3D-32^3, restarting from a seeded
    snapshot, with dense monitor/residual and snapshot cadences."""

    name = "lab_run_3d"
    speed_exponent = 0.5

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        if size == "full":
            n, self.t_end, self.n_mon, self.n_snap = 32, 0.005, 10, 5
        else:
            n, self.t_end, self.n_mon, self.n_snap = 6, 0.02, 2, 1
        self.shape = (n, n, n)
        self.cells = n ** 3
        # magic, dim, cells, lengths, (t, alpha, chi, ell, epsilon), u, v
        self.snapshot_bytes = 5 + 4 + 4 * 3 + 8 * 3 + 8 * 5 + 2 * 8 * self.cells
        rng = _rng(seed, self.name)
        # A permutation of the u modes keeps their decay rate, and with it
        # the step count, while the fields differ.
        self.u_amp = float(rng.uniform(0.195, 0.205))
        self.u_modes = [int(k) for k in rng.permutation([1, 1, 2])]
        self.v_amp = float(rng.uniform(0.095, 0.105))
        self.v_mode = int(rng.integers(1, 3))
        self.snap_in = workdir / "restart.dtxs"
        self.out = workdir / "lab_out"
        self.cfg_path = workdir / "run.cfg"
        self.ell = 1.0

    def _fields(self, pkg, shape, u_amp, u_modes, v_amp, v_mode):
        grid = pkg.dtaxis.Grid(shape)
        x = grid.mesh()
        prof = np.ones(shape)
        for a, k in enumerate(u_modes):
            prof = prof * np.cos(k * np.pi * x[a])
        u = 0.5 + u_amp * prof
        v = 1.0 + v_amp * np.cos(v_mode * np.pi * x[0]) * np.ones(shape)
        return grid, u, v

    def _write_inputs(self, pkg, shape, fields, snap_in, cfg_path, out, t_end,
                      n_mon, n_snap):
        grid, u, v = self._fields(pkg, shape, *fields)
        state = pkg.dtaxis.State(grid=grid, t=0.0, u=u, v=v)
        pkg.cli.save_snapshot(state, pkg.dtaxis.Params(alpha=1.25, epsilon=0.01), snap_in)
        cfg_path.write_text(config_text(
            cells=shape, alpha=1.25, epsilon=0.01, ell=self.ell, u0_kind="from_snapshot",
            snapshot_in=snap_in, t_end=t_end, monitor_cadence=t_end / n_mon,
            snapshot_cadence=t_end / n_snap, output_dir=out), encoding="utf-8")

    def prepare(self, pkg):
        self._write_inputs(pkg, self.shape,
                           (self.u_amp, self.u_modes, self.v_amp, self.v_mode),
                           self.snap_in, self.cfg_path, self.out, self.t_end,
                           self.n_mon, self.n_snap)

    def setup(self, pkg):
        pkg.cli.build_state(pkg.cli.parse_config_file(self.cfg_path))

    def ops(self, pkg):
        shutil.rmtree(self.out, ignore_errors=True)
        return [lambda: pkg.cli.main(["run", "--config", str(self.cfg_path)])]

    def check(self, pkg, outputs):
        return _judge(outputs, lambda rc: self._check_run(pkg, rc, self.out))

    def _check_run(self, pkg, rc, out: Path) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        errs = []
        head, rows = _read_csv(out / "monitors.csv")
        if len(rows) != self.n_mon + 1:
            errs.append(f"{len(rows)} monitor rows, expected {self.n_mon + 1}")
        vals = np.array([[float(x) for x in r] for r in rows])
        if not np.isfinite(vals).all():
            errs.append("non-finite monitor row")
        col = {name: vals[:, i] for i, name in enumerate(head)}
        mu, mv, acc = col["mass_u"], col["mass_v"], col["acc_uv"]
        if not _rel_close(mu[-1] - mu[0], self.ell * acc[-1], MASS_RTOL) or \
                not _rel_close(mv[-1] - mv[0], -acc[-1], MASS_RTOL):
            errs.append("mass law broken in monitors.csv")
        if float(np.max(col["sup_v"])) > col["sup_v"][0] + SUPV_ATOL:
            errs.append("sup v rose above its initial value")
        _, rrows = _read_csv(out / "residuals.csv")
        if len(rrows) != 4 * self.n_mon:
            errs.append(f"{len(rrows)} residual rows, expected {4 * self.n_mon}")
        if not all(math.isfinite(float(x)) for r in rrows for x in r[1:8]):
            errs.append("non-finite residual row")
        snaps = sorted(out.glob("snap_*.dtxs"))
        if len(snaps) != self.n_snap + 1:
            errs.append(f"{len(snaps)} snapshots, expected {self.n_snap + 1}")
            return errs
        errs += self._check_snapshot(pkg, snaps[-1], col)
        return errs

    def _check_snapshot(self, pkg, path: Path, col) -> list[str]:
        """Bit-exact round trip of the last snapshot, and agreement with the
        final monitor row it was written with."""
        errs = []
        snap = pkg.cli.load_snapshot(path)
        copy = path.with_suffix(".roundtrip")
        params = pkg.dtaxis.Params(alpha=snap.alpha, epsilon=snap.epsilon,
                                   chi=snap.chi, ell=snap.ell)
        pkg.cli.save_snapshot(snap.state, params, copy)
        if copy.read_bytes() != path.read_bytes():
            errs.append("snapshot round trip is not bit exact")
        copy.unlink()
        u, v = _snapshot_payload(path, snap.state.grid.cells)
        if not (np.array_equal(u, snap.state.u) and np.array_equal(v, snap.state.v)):
            errs.append("loaded snapshot differs from its payload")
        if not _rel_close(snap.state.t, float(col["t"][-1]), 1e-12):
            errs.append(f"last snapshot at t={snap.state.t!r}, run ended at {col['t'][-1]!r}")
        for name, got in (("sup_u", u.max()), ("sup_v", v.max()), ("inf_v", v.min())):
            if float(got) != float(col[name][-1]):
                errs.append(f"snapshot {name} {float(got)!r} != monitor {col[name][-1]!r}")
        return errs

    def canary(self, pkg):
        d = self.workdir / "canary"
        d.mkdir(parents=True, exist_ok=True)
        out = d / "out"
        shutil.rmtree(out, ignore_errors=True)
        self._write_inputs(pkg, (8, 8, 8), (0.2, [1, 2, 1], 0.1, 1), d / "restart.dtxs",
                           d / "run.cfg", out, 0.01, 2, 1)
        if pkg.cli.main(["run", "--config", str(d / "run.cfg")]) != 0:
            raise RuntimeError("canary run failed")
        u, v = _snapshot_payload(out / "snap_0001.dtxs", (8, 8, 8))
        _, rows = _read_csv(out / "monitors.csv")
        return {"u": u, "v": v, "monitors_last_row": np.array([float(x) for x in rows[-1]])}


class VerifySuite(Workload):
    """``verify-inequalities`` (1D/2D log-Hessian, Sobolev product) and
    ``verify-exponents`` through ``cli.main``; no time stepping."""

    name = "verify_suite"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        if size == "full":
            self.ineq = ["--cells", "64", "--samples", "100"]
            self.expo = ["--samples", "1000", "--iterations", "200"]
            self.exponent_samples = 3 * 1000
        else:
            self.ineq = ["--cells", "16", "--samples", "4"]
            self.expo = ["--samples", "20", "--iterations", "50"]
            self.exponent_samples = 3 * 20
        rng = _rng(seed, self.name)
        self.seeds = [int(s) for s in rng.integers(0, 2 ** 31 - 1, size=2)]
        self.ineq_out = workdir / "inequalities.jsonl"
        self.expo_out = workdir / "exponents.jsonl"

    def _verify_inequalities(self, pkg, args, out: Path):
        rc = pkg.cli.main(["verify-inequalities", *args, "--out", str(out)])
        return rc, [json.loads(ln) for ln in out.read_text(encoding="utf-8").splitlines()]

    def ops(self, pkg):
        for p in (self.ineq_out, self.expo_out):
            p.unlink(missing_ok=True)
        return [
            lambda: ("ineq", *self._verify_inequalities(
                pkg, [*self.ineq, "--seed", str(self.seeds[0])], self.ineq_out)),
            lambda: ("expo", pkg.cli.main(["verify-exponents", *self.expo, "--seed",
                                           str(self.seeds[1]), "--out", str(self.expo_out)]),
                     [json.loads(ln) for ln in
                      self.expo_out.read_text(encoding="utf-8").splitlines()]),
        ]

    def check(self, pkg, outputs):
        def one(o):
            kind, rc, lines = o
            errs = [] if rc == 0 else [f"{kind}: exit code {rc}"]
            if kind == "ineq":
                hess = [ln for ln in lines if ln["check"] == "log_hessian"]
                sob = [ln for ln in lines if ln["check"] == "sobolev_product"]
                if len(hess) != 6 or len(sob) != 1:
                    errs.append(f"{len(hess)} log-Hessian and {len(sob)} Sobolev lines")
                errs += [f"log-Hessian q={ln['q']} dim={ln['dim']}: "
                         f"{ln['violations']} violations" for ln in hess if ln["violations"]]
                if not all(math.isfinite(ln["max_ratio"]) for ln in lines):
                    errs.append("non-finite inequality ratio")
            else:
                if len(lines) != 3:
                    errs.append(f"{len(lines)} exponent reports, expected 3")
                errs += [f"{ln['regime']}: {len(ln['violations'])} violations"
                         for ln in lines if ln["violations"] or not ln["ok"]]
            return errs
        return _judge(outputs, one)

    def canary(self, pkg):
        _, lines = self._verify_inequalities(
            pkg, ["--cells", "32", "--samples", "8", "--seed", "7"],
            self.workdir / "canary.jsonl")
        return {"max_ratio": np.array([ln["max_ratio"] for ln in lines])}


WORKLOADS = {w.name: w for w in (MassLaw1D, Corpus1D64, LabRun3D, VerifySuite)}
