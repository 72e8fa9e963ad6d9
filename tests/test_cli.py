import concurrent.futures
import json
import math
import re
import struct
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dtaxis import Grid, InitialData, Params, StepControl
from dtaxis import cli, diagnostics
from dtaxis.cli import (EpsRow, RunConfig, build_state, cmd_run, load_snapshot, parse_config,
                        run_eps_study, run_sweep, save_snapshot)
from dtaxis.diagnostics import (P_LIST, check_log_hessian, check_sobolev_product, monitor_row,
                                sobolev_batch)
from dtaxis.exponents import moderate_seq, regime, verify_regime_lemmas
from dtaxis.model import State
from dtaxis.stepper import run

MINIMAL = "alpha = 1.25\nepsilon = 0.01\ncells = 256\nt_end = 0.1\n"


def _set(text: str, key: str, value: str) -> str:
    """The config text with key's line set to value (appended if it has none): a key given
    twice is refused."""
    lines = [ln for ln in text.splitlines() if ln.partition("=")[0].strip() != key]
    return "\n".join(lines + [f"{key} = {value}"]) + "\n"


def test_parse_minimal_config():
    cfg = parse_config(MINIMAL)
    assert cfg.params.alpha == 1.25
    assert cfg.params.epsilon == 0.01
    assert cfg.grid.cells == (256,)
    assert cfg.control.t_end == 0.1
    assert cfg.monitor_cadence == pytest.approx(0.005)
    assert cfg.p_list == (1.0, 2.0, 3.0)


def test_minimal_config_takes_the_library_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.params == Params(alpha=1.25, epsilon=0.01)
    assert cfg.initial == InitialData()
    assert cfg.control == StepControl(t_end=0.1)
    assert cfg.p_list == P_LIST
    assert cfg == RunConfig(Grid(256), InitialData(), Params(alpha=1.25, epsilon=0.01),
                            StepControl(t_end=0.1), monitor_cadence=0.1 / 20.0)


# one non-default value per config key
_SAMPLE = {
    "cells": "16,8", "lengths": "2.0", "alpha": "0.5", "chi": "2.5",
    "ell": "1.0", "epsilon": "0.1", "cfl_safety": "0.5", "avg_mode": "arithmetic",
    "u0_kind": "cosine_mix", "u0_base": "0.5", "u0_amplitude": "2.0", "u0_width": "0.3",
    "u0_mode": "3", "v0_base": "2.0", "v0_amplitude": "0.2", "v0_mode": "2",
    "v0_floor": "1e-6", "snapshot_in": "snap.dtxs", "t_end": "0.5", "dt_max": "1e-3",
    "monitor_cadence": "0.01", "snapshot_cadence": "0.02",
    "p_list": "1,2.5", "output_dir": "results",
}


@pytest.mark.parametrize("key", list(cli._SCHEMA))
def test_each_key_lands_on_its_record_field(key):
    parser, record, name = cli._SCHEMA[key]

    def owner(cfg):
        return {cli._grid: cfg.grid, Params: cfg.params, InitialData: cfg.initial,
                StepControl: cfg.control, RunConfig: cfg}[record]

    value = parser(_SAMPLE[key])
    assert getattr(owner(parse_config(MINIMAL)), name) != value
    assert getattr(owner(parse_config(_set(MINIMAL, key, _SAMPLE[key]))), name) == value


def test_readme_example_config_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    cfg = parse_config(re.search(r"```ini\n(.*?)```", readme, re.S).group(1))
    assert cfg.params == Params(alpha=1.25, epsilon=0.01, ell=1.0)
    assert cfg.initial.kind == "cosine_mix"
    assert (cfg.monitor_cadence, cfg.snapshot_cadence) == (0.05, 0.1)


def test_run_config_rejects_bad_cadence(tmp_path):
    cfg = _small_config(tmp_path)
    with pytest.raises(ValueError, match="invalid value for snapshot_cadence"):
        replace(cfg, snapshot_cadence=0.0)
    with pytest.raises(ValueError, match="invalid value for monitor_cadence"):
        replace(cfg, monitor_cadence=math.inf)
    # below the clock's tick tolerance 1e-12 * t_end = 5e-14 of this config
    with pytest.raises(ValueError, match="invalid value for monitor_cadence: cadence must be "
                                         "at least 1e-12 \\* t_end = 5e-14, got 1e-15"):
        replace(cfg, monitor_cadence=1e-15)


def test_parse_comments_and_spacing():
    cfg = parse_config("# a run\nalpha = 0.5  # weak\n\nepsilon=0.1\ncells =  64\nt_end = 1.0\n")
    assert cfg.params.alpha == 0.5
    assert cfg.grid.cells == (64,)


def test_parse_alpha_range_enforced():
    with pytest.raises(ValueError, match="alpha must satisfy 0 <= alpha < 2"):
        parse_config(MINIMAL.replace("alpha = 1.25", "alpha = 2.0"))


def test_parse_unknown_key():
    with pytest.raises(ValueError, match="unknown key banana"):
        parse_config(MINIMAL + "banana = 1\n")


@pytest.mark.parametrize("line, message", [
    ("epsilon 0.01", "invalid value for line 2: 'epsilon 0.01' (expected key = value)"),
    ("dim = 2", "unknown key dim"),  # cells alone sets the dimension
    ("max_rejects = 5", "unknown key max_rejects"),  # 1e-12 * t_end ends reject-and-halve
    ("alpha = 1.5", "duplicate key alpha at line 2"),  # refused, not overridden
])
def test_parse_refuses_a_line_it_cannot_place(line, message):
    with pytest.raises(ValueError) as exc:
        parse_config(f"alpha = 1.25\n{line}\ncells = 16\nt_end = 0.1\n")
    assert str(exc.value) == message


def test_parse_missing_key():
    with pytest.raises(ValueError, match="missing key epsilon"):
        parse_config("alpha = 1.0\ncells = 32\nt_end = 1.0\n")


def test_parse_invalid_value():
    with pytest.raises(ValueError, match="invalid value for cells"):
        parse_config(MINIMAL.replace("cells = 256", "cells = many"))


@pytest.mark.parametrize("value", ["0", "-0.1", "inf"])
def test_parse_rejects_bad_u0_width(value):
    with pytest.raises(ValueError, match="u_width must be positive and finite"):
        parse_config(MINIMAL + f"u0_width = {value}\n")


def test_parse_2d_config():
    cfg = parse_config("alpha = 1.0\nepsilon = 0.01\ncells = 16,8\nlengths = 1.0,2.0\nt_end = 0.1\n")
    assert cfg.grid.cells == (16, 8)
    assert cfg.grid.lengths == (1.0, 2.0)


def _small_config(tmp_path, **over):
    g = Grid(over.pop("cells", 32))
    params = Params(alpha=over.pop("alpha", 1.0), epsilon=over.pop("epsilon", 0.01),
                    ell=over.pop("ell", 0.0), chi=over.pop("chi", 1.0),
                    cfl_safety=over.pop("cfl_safety", 0.9),
                    avg_mode=over.pop("avg_mode", "geometric"))
    initial = over.pop("initial", InitialData(kind="constant", u_amplitude=1.0, v_base=1.0))
    control = StepControl(t_end=over.pop("t_end", 0.05),
                          dt_max=over.pop("dt_max", math.inf))
    cfg = RunConfig(grid=g, initial=initial, params=params, control=control,
                    monitor_cadence=over.pop("monitor_cadence", 0.01),
                    snapshot_cadence=over.pop("snapshot_cadence", None),
                    p_list=(1.0, 2.0, 3.0), output_dir=str(tmp_path / "out"))
    assert not over
    return cfg


def test_snapshot_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(6)
    g = Grid((12, 9), (1.0, 2.0))
    p = Params(alpha=1.3, epsilon=0.02, chi=0.7, ell=0.4)
    s = State(grid=g, t=0.375, u=rng.uniform(0.1, 2.0, g.shape),
              v=rng.uniform(0.2, 1.0, g.shape))
    path = tmp_path / "state.dtxs"
    save_snapshot(s, p, path)
    snap = load_snapshot(path)
    assert snap.state.u.tobytes() == s.u.tobytes()
    assert snap.state.v.tobytes() == s.v.tobytes()
    assert snap.state.t == s.t
    assert (snap.alpha, snap.chi, snap.ell, snap.epsilon) == (1.3, 0.7, 0.4, 0.02)
    assert snap.state.grid == g


def test_snapshot_errors(tmp_path):
    g = Grid(8)
    p = Params(alpha=1.0, epsilon=0.01)
    s = State(grid=g, t=0.0, u=np.ones(g.shape), v=np.ones(g.shape))
    path = tmp_path / "a.dtxs"
    save_snapshot(s, p, path)

    bad = tmp_path / "bad.dtxs"
    bad.write_bytes(b"NOPE" + path.read_bytes()[4:])
    with pytest.raises(ValueError, match="not a snapshot"):
        load_snapshot(bad)

    trunc = tmp_path / "trunc.dtxs"
    trunc.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="corrupt snapshot"):
        load_snapshot(trunc)

    with pytest.raises(ValueError, match="grid mismatch"):
        load_snapshot(path, expect_grid=Grid(16))


@pytest.mark.parametrize("grid", [Grid(2), Grid((3, 2), (1.0, 2.0)), Grid((2, 2, 2))])
def test_every_truncation_and_one_more_byte_are_refused(tmp_path, grid):
    path, bad = tmp_path / "a.dtxs", tmp_path / "bad.dtxs"
    save_snapshot(State(grid=grid, t=0.5, u=np.ones(grid.shape), v=np.ones(grid.shape)),
                  Params(alpha=1.0, epsilon=0.01), path)
    data = path.read_bytes()
    for n in range(len(data) + 2):
        if n == len(data):
            continue
        bad.write_bytes(data[:n] if n < len(data) else data + b"\0")
        want = "not a snapshot" if n < len(b"DTXS1") else "corrupt snapshot"
        with pytest.raises(ValueError, match=f"^{want}$"):
            load_snapshot(bad)


@pytest.mark.parametrize("dim", [0, 4])
def test_a_snapshot_dimension_outside_1_to_3_is_corrupt(tmp_path, dim):
    # laid out in full for that dimension: 2 cells per axis, unit lengths
    n = 2 ** dim
    path = tmp_path / "d.dtxs"
    path.write_bytes(b"DTXS1" + struct.pack(f"<I{dim}I{dim}d5d", dim, *[2] * dim, *[1.0] * dim,
                                            0.0, 1.0, 1.0, 0.0, 0.01) + bytes(2 * 8 * n))
    with pytest.raises(ValueError, match="^corrupt snapshot$"):
        load_snapshot(path)


def test_a_snapshot_packed_from_the_documented_layout_loads(tmp_path):
    # README: magic DTXS1, uint32 dim, dim uint32 cells, dim float64 lengths, float64 t,
    # alpha, chi, ell, epsilon, then u and v, all little-endian and row-major
    u, v = np.arange(1.0, 7.0).reshape(3, 2), np.arange(7.0, 13.0).reshape(3, 2) / 8.0
    data = (b"DTXS1" + struct.pack("<I", 2) + struct.pack("<2I", 3, 2)
            + struct.pack("<2d", 1.5, 0.25) + struct.pack("<5d", 0.125, 1.3, 0.7, 0.4, 0.02)
            + u.astype("<f8").tobytes() + v.astype("<f8").tobytes())
    path = tmp_path / "hand.dtxs"
    path.write_bytes(data)
    snap = load_snapshot(path)
    assert snap.state.grid == Grid((3, 2), (1.5, 0.25))
    assert (snap.state.t, snap.alpha, snap.chi, snap.ell, snap.epsilon) == (
        0.125, 1.3, 0.7, 0.4, 0.02)
    assert snap.state.u.tobytes() == u.tobytes() and snap.state.v.tobytes() == v.tobytes()
    save_snapshot(snap.state, Params(alpha=1.3, epsilon=0.02, chi=0.7, ell=0.4), path)
    assert path.read_bytes() == data


def test_cmd_run_constant_mass_column(tmp_path):
    cfg = _small_config(tmp_path)
    assert cmd_run(cfg) == 0
    lines = (tmp_path / "out" / "monitors.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    i = header.index("mass_u")
    masses = {row.split(",")[i] for row in lines[1:]}
    assert len(masses) == 1  # byte-identical constant mass column
    assert (tmp_path / "out" / "residuals.csv").exists()


def test_cmd_run_deterministic_bytes(tmp_path):
    cfg = _small_config(tmp_path, initial=InitialData(kind="gaussian_bump",
                                                      u_amplitude=1.0))
    assert cmd_run(replace(cfg, output_dir=str(tmp_path / "a"))) == 0
    assert cmd_run(replace(cfg, output_dir=str(tmp_path / "b"))) == 0
    assert (tmp_path / "a" / "monitors.csv").read_bytes() == \
        (tmp_path / "b" / "monitors.csv").read_bytes()


def test_cmd_run_snapshot_cadence_count(tmp_path):
    cfg = _small_config(tmp_path, t_end=0.5, monitor_cadence=0.1,
                        snapshot_cadence=0.1)
    assert cmd_run(cfg) == 0
    snaps = sorted((tmp_path / "out").glob("snap_*.dtxs"))
    assert len(snaps) == 6  # t = 0.0, 0.1, ..., 0.5


def _read_csv(path):
    lines = path.read_text().strip().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def test_cmd_run_cadence_not_dividing_t_end(tmp_path):
    cfg = _small_config(tmp_path, t_end=0.5, monitor_cadence=0.3, snapshot_cadence=0.3)
    assert cmd_run(cfg) == 0
    out = tmp_path / "out"
    _, mon = _read_csv(out / "monitors.csv")
    np.testing.assert_allclose([float(r[0]) for r in mon], [0.0, 0.3, 0.5], atol=1e-12)
    _, res = _read_csv(out / "residuals.csv")
    assert [r[0] for r in res] == ["v_energy", "v_pow_2", "u0.5_v1", "first_energy"]
    assert [r[-1] == "" for r in res] == [True, True, True, False]  # only first_energy has a slack
    assert [p.name for p in sorted(out.glob("snap_*.dtxs"))] == \
        ["snap_0000.dtxs", "snap_0001.dtxs"]


def test_cmd_run_snapshot_cadence_finer_than_step(tmp_path):
    c = 1e-4
    cfg = _small_config(tmp_path, cells=16, t_end=0.01, snapshot_cadence=c,
                        initial=InitialData(kind="gaussian_bump", u_amplitude=1.0))
    assert cmd_run(cfg) == 0
    traj = run(build_state(cfg), cfg.params, cfg.control,
               monitor_cadence=cfg.monitor_cadence)
    snaps = sorted((tmp_path / "out").glob("snap_*.dtxs"))
    assert len(snaps) == traj.n_steps + 1  # one per step, every step crosses a tick
    tol = 1e-12
    ks = [int(p.stem[5:]) for p in snaps]
    ts = [load_snapshot(p).state.t for p in snaps]
    assert ks[0] == 0 and ts[0] == 0.0
    for k, t, t_prev in zip(ks[1:], ts[1:], ts):
        # numbered by the first tick the step crossed
        assert t_prev < k * c - tol <= t
        assert (k - 1) * c - tol <= t_prev


def test_cmd_run_four_residual_rows_per_monitor_tick(tmp_path):
    cfg = _small_config(tmp_path, t_end=0.05, monitor_cadence=0.01,
                        initial=InitialData(kind="gaussian_bump", u_amplitude=1.0))
    assert cmd_run(cfg) == 0
    _, mon = _read_csv(tmp_path / "out" / "monitors.csv")
    header, res = _read_csv(tmp_path / "out" / "residuals.csv")
    assert header == ["identity", "t0", "t1", "lhs", "rhs", "residual", "normalizer",
                      "rel_residual", "first_energy_slack"]
    assert len(mon) == 6
    assert len(res) == 4 * (len(mon) - 1)
    for i, row in enumerate(mon[1:]):
        block = res[4 * i:4 * i + 4]
        assert [r[0] for r in block] == ["v_energy", "v_pow_2", "u0.5_v1", "first_energy"]
        assert {len(r) for r in block} == {len(header)}
        assert [r[-1] == "" for r in block] == [True, True, True, False]  # first_energy's slack
        assert {r[2] for r in block} == {row[0]}  # t1 of the step landing on the tick


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-0.005", "1e-25", "1e-15"])
@pytest.mark.parametrize("key", ["monitor_cadence", "snapshot_cadence"])
def test_main_run_rejects_bad_cadence(tmp_path, capsys, key, value):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(MINIMAL.replace("cells = 256", "cells = 16")
                        + f"output_dir = {tmp_path / 'out'}\n{key} = {value}\n")
    t0 = time.perf_counter()
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert f"invalid value for {key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["t_end", "dt_max", "chi", "ell", "u0_base",
                                 "v0_floor", "lengths", "p_list"])
def test_parse_rejects_nan(key):
    with pytest.raises(ValueError, match=f"invalid value for {key}"):
        parse_config(_set(MINIMAL, key, "nan"))


def test_main_run_t_end_nan_exit_code(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(MINIMAL.replace("t_end = 0.1", "t_end = nan"))
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    assert "invalid value for t_end" in capsys.readouterr().err


def test_build_state_rejects_non_finite_snapshot(tmp_path):
    g = Grid(16)
    u = np.ones(g.shape)
    u[5] = np.nan
    snap_path = tmp_path / "nan.dtxs"
    save_snapshot(State(grid=g, t=0.0, u=u, v=np.ones(g.shape)),
                  Params(alpha=1.0, epsilon=0.01), snap_path)
    cfg = _small_config(tmp_path, cells=16,
                        initial=InitialData(kind="from_snapshot",
                                            snapshot_path=str(snap_path)))
    with pytest.raises(ValueError, match=r"u0 is not finite at cell \(5,\)"):
        build_state(cfg)


def test_cmd_run_positivity_failure_exit_code(tmp_path, capsys):
    # a near-vacuum cell at a v-minimum with u-independent taxis (alpha = 0)
    # cannot take any stable-looking step: positivity is unrecoverable
    g = Grid(32)
    u0 = np.ones(g.shape)
    u0[16] = 0.0
    v0 = 1.0 + 0.5 * np.cos(2 * np.pi * g.centers(0))
    seed_state = State(grid=g, t=0.0, u=u0, v=v0)
    seed_params = Params(alpha=0.0, epsilon=1e-12, chi=5.0)
    snap_path = tmp_path / "seed.dtxs"
    save_snapshot(seed_state, seed_params, snap_path)
    cfg = _small_config(tmp_path, cells=32, alpha=0.0, chi=5.0, epsilon=1e-12,
                        cfl_safety=1.0, t_end=0.01,
                        initial=InitialData(kind="from_snapshot",
                                            snapshot_path=str(snap_path)))
    assert cmd_run(cfg) == 1
    assert "positivity unrecoverable" in capsys.readouterr().err


def test_build_state_grid_mismatch(tmp_path):
    g = Grid(16)
    s = State(grid=g, t=0.0, u=np.ones(g.shape), v=np.ones(g.shape))
    snap_path = tmp_path / "seed.dtxs"
    save_snapshot(s, Params(alpha=1.0, epsilon=0.01), snap_path)
    cfg = _small_config(tmp_path, cells=32,
                        initial=InitialData(kind="from_snapshot",
                                            snapshot_path=str(snap_path)))
    with pytest.raises(ValueError, match=r"grid mismatch.*\(32,\).*\(16,\)"):
        build_state(cfg)


def test_regime_labels():
    assert regime(0.5) == "weak"
    assert regime(1.0) == "weak"
    assert regime(1.25) == "moderate"
    assert regime(1.5) == "moderate"
    assert regime(1.75) == "strong"


def test_sweep_three_regimes(tmp_path):
    cfg = _small_config(tmp_path, t_end=0.02, monitor_cadence=0.01)
    results = run_sweep(cfg, [0.5, 1.25, 1.75])
    assert [r[1] for r in results] == ["weak", "moderate", "strong"]
    assert all(r[2] == "ok" for r in results)
    lines = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 4
    assert lines[1].startswith("0.5,weak,ok,")


def test_sweep_workers_match_serial(tmp_path):
    # two worker processes write the same aggregated CSV as the serial loop
    cfg = _small_config(tmp_path, t_end=0.02, monitor_cadence=0.01,
                        initial=InitialData(kind="gaussian_bump"))
    alphas = [0.5, 1.25, 1.75]
    serial = run_sweep(replace(cfg, output_dir=str(tmp_path / "serial")), alphas)
    pooled = run_sweep(replace(cfg, output_dir=str(tmp_path / "pooled")), alphas, workers=2)
    assert [r[2] for r in pooled] == ["ok"] * 3
    assert pooled == serial
    assert ((tmp_path / "pooled" / "sweep.csv").read_bytes()
            == (tmp_path / "serial" / "sweep.csv").read_bytes())


def test_sweep_empty_and_duplicates(tmp_path):
    cfg = _small_config(tmp_path, t_end=0.02)
    assert run_sweep(cfg, []) == []
    lines = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 1  # header only
    results = run_sweep(cfg, [0.5, 0.5])
    assert len(results) == 2  # one row per requested alpha, both from one run


def test_sweep_near_equal_alphas_get_their_own_directories(tmp_path):
    cfg = _small_config(tmp_path, t_end=0.02, monitor_cadence=0.01,
                        initial=InitialData(kind="gaussian_bump"))
    alphas = [1.25, 1.2500001, 1.25]
    results = run_sweep(cfg, alphas)
    assert [r[0] for r in results] == alphas
    assert results[2] == results[0]
    out = tmp_path / "out"
    assert sorted(d.name for d in out.glob("alpha_*")) == ["alpha_1.25", "alpha_1.2500001"]
    for r in results:
        last = (out / f"alpha_{r[0]!r}" / "monitors.csv").read_text().strip().splitlines()[-1]
        assert last.split(",") == r[3]
    assert len((out / "sweep.csv").read_text().strip().splitlines()) == 1 + len(alphas)


def test_sweep_isolates_failures(tmp_path, monkeypatch):
    real = cli._write_run
    for error in (RuntimeError("boom"), OSError("disk full")):  # a failed run, a failed write
        out = tmp_path / type(error).__name__
        cfg = replace(_small_config(tmp_path, t_end=0.02), output_dir=str(out))

        def flaky(config, state, error=error):
            if config.params.alpha == 1.25:
                raise error
            return real(config, state)

        monkeypatch.setattr(cli, "_write_run", flaky)
        results = run_sweep(cfg, [0.5, 1.25, 1.75])
        statuses = {r[0]: r[2] for r in results}
        assert statuses[1.25] == "failed"
        assert statuses[0.5] == statuses[1.75] == "ok"
        assert (out / "alpha_0.5" / "monitors.csv").exists()
        assert (out / "alpha_1.75" / "monitors.csv").exists()
        assert (out / "sweep.csv").exists()


def test_eps_study_constant_closed_form(tmp_path):
    # ell = 0 with constant data freezes u, so the final difference is exactly
    # the epsilon gap times sqrt(|Omega|)
    cfg = replace(_small_config(tmp_path, t_end=0.05), grid=Grid(32, 2.0))
    rows = run_eps_study(cfg, [1e-1, 1e-2])
    assert rows[0].status == "ok"
    assert rows[0].l2_diff_u == pytest.approx((1e-1 - 1e-2) * math.sqrt(2.0), rel=1e-12)


def test_eps_study_identical_values_deterministic(tmp_path):
    # a repeated epsilon would compare a run with itself, so it is refused; the same list
    # studied twice gives the same rows and the same eps_study.csv, bit for bit
    cfg = _small_config(tmp_path, t_end=0.02,
                        initial=InitialData(kind="gaussian_bump", u_amplitude=1.0))
    with pytest.raises(ValueError, match="epsilon list must be decreasing"):
        run_eps_study(cfg, [1e-2, 1e-2])
    rows = [run_eps_study(replace(cfg, output_dir=str(tmp_path / d)), [1e-1, 1e-2])
            for d in ("a", "b")]
    assert rows[0] == rows[1] and rows[0][0].status == "ok"
    assert (tmp_path / "a" / "eps_study.csv").read_bytes() == \
        (tmp_path / "b" / "eps_study.csv").read_bytes()


def test_eps_study_validation(tmp_path):
    cfg = _small_config(tmp_path)
    with pytest.raises(ValueError, match="decreasing"):
        run_eps_study(cfg, [1e-3, 1e-2])
    with pytest.raises(ValueError, match="lie in"):
        run_eps_study(cfg, [1.0, 0.5])


def test_run_eps_study_writes_csv(tmp_path):
    cfg = _small_config(tmp_path, t_end=0.02)
    assert [r.status for r in run_eps_study(cfg, [1e-1, 1e-2, 1e-3])] == ["ok", "ok"]
    lines = (tmp_path / "out" / "eps_study.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[0] == "eps_coarse,eps_fine,l2_diff_u,l2_diff_v,status"


def test_eps_study_members_are_library_runs_without_ticks(tmp_path):
    # each member is the library run without monitor ticks, so its steps are not
    # clipped: eps_study.csv holds the distances of those finals byte for byte, and
    # each member directory the monitor rows at t = 0 and t_end
    cfg = _small_config(tmp_path, t_end=0.02, initial=InitialData(kind="gaussian_bump"))
    eps_list = [1e-1, 1e-2, 1e-3]
    params = {eps: replace(cfg.params, epsilon=eps) for eps in eps_list}
    finals = {eps: run(build_state(replace(cfg, params=p)), p, cfg.control,
                       monitor_cadence=None, p_list=cfg.p_list).final
              for eps, p in params.items()}
    g = cfg.grid
    ref = tmp_path / "reference.csv"
    cli._write_csv(ref, list(EpsRow._fields),
                   [[a, b, g.lp_norm(finals[b].u - finals[a].u, 2.0),
                     g.lp_norm(finals[b].v - finals[a].v, 2.0), "ok"]
                    for a, b in zip(eps_list, eps_list[1:])])
    run_eps_study(cfg, eps_list)
    out = tmp_path / "out"
    assert (out / "eps_study.csv").read_bytes() == ref.read_bytes()
    assert sorted(d.name for d in out.glob("epsilon_*")) == \
        ["epsilon_0.001", "epsilon_0.01", "epsilon_0.1"]
    for eps, final in finals.items():
        _, mon = _read_csv(out / f"epsilon_{eps!r}" / "monitors.csv")
        assert len(mon) == 2
        assert mon[-1] == [cli._fmt(x) for x in
                           monitor_row(final, params[eps], cfg.p_list).csv_values()]
        _, res = _read_csv(out / f"epsilon_{eps!r}" / "residuals.csv")
        assert res == []  # no tick, so no residual row


def test_main_run_and_tables(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(MINIMAL.replace("cells = 256", "cells = 32")
                        .replace("t_end = 0.1", "t_end = 0.02")
                        + f"output_dir = {tmp_path / 'out'}\nu0_kind = constant\n")
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "out" / "monitors.csv").exists()

    assert cli.main(["exponents", "--regime", "moderate", "--alpha", "1.25",
                     "--seed-value", "2", "--count", "3"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "k,m,p,r"
    assert out[1] == "0,2.0,2.0,0.6666666666666666"

    assert cli.main(["verify-exponents", "--samples", "20", "--seed", "0",
                     "--iterations", "60"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    recs = [json.loads(x) for x in lines]
    assert all(r["ok"] for r in recs)
    # RegimeReport.as_dict: the record's fields in order, then ok
    assert [list(r) for r in recs] == \
        [["regime", "samples", "iterations", "violations", "boundary_cases", "ok"]] * 3


@pytest.mark.parametrize("argv", [
    ["verify-exponents", "--iterations", "0"],
    ["verify-exponents", "--samples", "-3"],
    ["verify-exponents", "--samples", "0"],
    ["verify-inequalities", "--samples", "0"],
    ["exponents", "--count", "-2", "--regime", "strong", "--alpha", "1.75",
     "--seed-value", "-0.5"],
    ["exponents", "--count", "0", "--regime", "weak", "--alpha", "0.5", "--seed-value", "2"],
    ["sweep", "--workers", "-4", "--config", "run.cfg", "--alphas", "0.5"],
    ["sweep", "--workers", "0", "--config", "run.cfg", "--alphas", "0.5"],
    # comma lists with no entry
    ["sweep", "--alphas", ",", "--config", "run.cfg"],
    ["eps-study", "--eps", ",", "--config", "run.cfg"],
    ["verify-inequalities", "--qs", ","],
])
def test_verify_counts_must_be_positive(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    want = "a comma list of numbers" if argv[1] in ("--alphas", "--eps", "--qs") else \
        "a positive integer"
    assert f"argument {argv[1]}: expected {want}" in capsys.readouterr().err


@pytest.mark.parametrize("iterations", ["4600", "5000"])
def test_main_refuses_iterations_past_the_strong_checks_range(capsys, iterations):
    assert cli.main(["verify-exponents", "--samples", "30", "--seed", "2",
                     "--iterations", iterations]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: iterations must be at most 3002, got {iterations}\n"


def test_main_verify_inequalities(tmp_path):
    out = tmp_path / "ineq.jsonl"
    assert cli.main(["verify-inequalities", "--cells", "32", "--samples", "5",
                     "--qs", "2,,", "--out", str(out)]) == 0  # empty entries are skipped
    recs = [json.loads(x) for x in out.read_text().splitlines()]
    assert [r["q"] for r in recs if r["check"] == "log_hessian"] == [2.0, 2.0]
    checks = {r["check"] for r in recs}
    assert checks == {"log_hessian", "sobolev_product"}
    assert all(r.get("violations", 0) == 0 for r in recs if "violations" in r)


def test_verify_inequalities_draws_each_1d_field_once(monkeypatch, tmp_path):
    # the 1D log-Hessian fields are the first samples of the Sobolev batch's 2 samples draws,
    # so a run draws 3 samples fields: 2 samples in 1D and samples in 2D
    real, dims = diagnostics.sample_cosine_field, []

    def counted(rng, dim):
        dims.append(dim)
        return real(rng, dim)

    monkeypatch.setattr(diagnostics, "sample_cosine_field", counted)
    assert cli.main(["verify-inequalities", "--cells", "16", "--samples", "4", "--seed", "3",
                     "--out", str(tmp_path / "ineq.jsonl")]) == 0
    assert sorted(dims) == [1] * 8 + [2] * 4


def test_verify_inequalities_refuses_a_negative_seed_by_name(tmp_path, capsys):
    out = tmp_path / "ineq.jsonl"
    assert cli.main(["verify-inequalities", "--cells", "16", "--samples", "2", "--seed", "-1",
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: seed must be at least 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["verify-inequalities", "--cells", "16", "--samples", "2", "--qs", "nan"], "got nan"),
    (["verify-inequalities", "--cells", "16", "--samples", "2", "--qs", "2,inf"], "got inf"),
    (["exponents", "--regime", "moderate", "--alpha", "1.25", "--seed-value", "nan"], "got nan"),
    (["exponents", "--regime", "moderate-hat", "--alpha", "1.25", "--seed-value", "inf"],
     "got inf"),
    (["exponents", "--regime", "strong", "--alpha", "1.75", "--seed-value", "inf"], "got inf"),
    (["exponents", "--regime", "weak", "--alpha", "0.5", "--seed-value", "nan"], "got nan"),
    # finite seeds whose tables overflow
    (["exponents", "--regime", "weak", "--alpha", "0.5", "--seed-value", "1e308", "--count", "2"],
     "exponent p at k=0 must be finite, got inf"),
    (["exponents", "--regime", "strong", "--alpha", "1.75", "--seed-value", "1e308"],
     "exponent q at k=1 must be finite, got inf"),
    (["exponents", "--regime", "moderate-hat", "--alpha", "1.25", "--seed-value", "1e308"],
     "exponent m_hat at k=1 must be finite, got inf"),
    # no interior cells for the log-Hessian quadratures
    (["verify-inequalities", "--cells", "2", "--samples", "2"],
     "at least 3 cells per axis, got (2,)"),
])
def test_main_rejects_non_finite_flag_values(capsys, argv, message):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""  # no partial table
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.rstrip().endswith(message)


def test_main_config_error_exit_code(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("alpha = 9\nepsilon = 0.01\ncells = 16\nt_end = 0.1\n")
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    assert "alpha" in capsys.readouterr().err


def _write_cfg(tmp_path, extra=""):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(MINIMAL.replace("cells = 256", "cells = 32")
                        .replace("t_end = 0.1", "t_end = 0.02")
                        + f"output_dir = {tmp_path / 'out'}\n" + extra)
    return str(cfg_path)


def test_main_sweep_rejects_a_bad_alpha_before_any_member_runs(tmp_path, capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(cli, "_write_run", lambda config, state: ran.append(config))
    assert cli.main(["sweep", "--config", _write_cfg(tmp_path), "--alphas", "0.5,2.5,1.5"]) == 2
    assert ran == []
    assert "alpha must satisfy 0 <= alpha < 2, got 2.5" in capsys.readouterr().err
    assert not list(tmp_path.glob("**/alpha_*"))
    assert not list(tmp_path.glob("**/sweep.csv"))


def _vacuum_cfg(tmp_path) -> str:
    """The config of test_cmd_run_positivity_failure_exit_code: at alpha = 0 nothing
    insulates its vacuum cell, and for epsilon <= 1e-3 positivity is unrecoverable."""
    g = Grid(32)
    u0 = np.ones(g.shape)
    u0[16] = 0.0
    v0 = 1.0 + 0.5 * np.cos(2 * np.pi * g.centers(0))
    snap_path = tmp_path / "seed.dtxs"
    save_snapshot(State(grid=g, t=0.0, u=u0, v=v0), Params(alpha=0.0, epsilon=1e-12), snap_path)
    cfg_path = tmp_path / "vac.cfg"
    cfg_path.write_text(f"alpha = 0\nepsilon = 1e-12\nchi = 5\ncells = 32\ncfl_safety = 1\n"
                        f"t_end = 0.01\nu0_kind = from_snapshot\n"
                        f"snapshot_in = {snap_path}\noutput_dir = {tmp_path / 'out'}\n")
    return str(cfg_path)


def test_main_sweep_reports_a_failing_member_and_runs_the_rest(tmp_path, capsys):
    assert cli.main(["sweep", "--config", _vacuum_cfg(tmp_path), "--alphas", "0,1.25"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: alpha=0.0: positivity unrecoverable")
    _, rows = _read_csv(tmp_path / "out" / "sweep.csv")
    assert [r[:3] for r in rows] == [["0.0", "weak", "failed"], ["1.25", "moderate", "ok"]]
    assert set(rows[0][3:]) == {""}


def test_main_eps_study_reports_a_failing_member_and_runs_the_rest(tmp_path, capsys):
    argv = ["eps-study", "--config", _vacuum_cfg(tmp_path), "--eps", "0.1,0.01,0.001"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: epsilon=0.001: positivity unrecoverable")
    assert err.count("\n") == 1
    out = tmp_path / "out"
    _, rows = _read_csv(out / "eps_study.csv")
    assert [r[-1] for r in rows] == ["ok", "failed"]
    assert rows[1][2:4] == ["nan", "nan"]
    for eps in ("0.1", "0.01"):
        assert (out / f"epsilon_{eps}" / "monitors.csv").exists()
    assert not (out / "epsilon_0.001" / "monitors.csv").exists()


def test_main_run_ends_once_a_halved_dt_no_longer_advances_t(tmp_path, capsys):
    # the step that needs a dt below 1e-12 * t_end = 1e-14 ends the run
    t0 = time.perf_counter()
    assert cli.main(["run", "--config", _vacuum_cfg(tmp_path)]) == 1
    assert time.perf_counter() - t0 < 1.0
    assert re.fullmatch(r"error: positivity unrecoverable at t=\S+e-14: u at cell \(16,\)\n",
                        capsys.readouterr().err)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_main_sweep_fails_only_the_member_whose_outputs_cannot_be_written(tmp_path, capsys,
                                                                         workers):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / "alpha_1.25").write_text("a regular file where the member's directory goes")
    argv = ["sweep", "--config", cfg, "--alphas", "0.5,1.25,1.75", "--workers", workers]
    assert cli.main(argv) == 1
    if workers == "1":  # a pool member reports to its own stderr
        err = capsys.readouterr().err
        assert err.startswith("error: alpha=1.25: ") and err.count("\n") == 1
    _, rows = _read_csv(out / "sweep.csv")
    assert [r[:3] for r in rows] == [["0.5", "weak", "ok"], ["1.25", "moderate", "failed"],
                                     ["1.75", "strong", "ok"]]
    assert set(rows[1][3:]) == {""}
    for alpha in ("0.5", "1.75"):
        assert (out / f"alpha_{alpha}" / "monitors.csv").exists()


def test_main_run_whose_outputs_cannot_be_written_fails(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    (tmp_path / "out").write_text("a regular file where the output directory goes")
    assert cli.main(["run", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command, target, members", [
    ("sweep --workers 1", "out/sweep.csv", ["alpha_0.5", "alpha_1.25"]),
    ("eps-study", "out/eps_study.csv", ["epsilon_0.1", "epsilon_0.01"]),
    ("verify-inequalities --cells 16 --samples 2", "ineq.jsonl", []),
    ("verify-exponents --samples 20 --iterations 50", "exps.jsonl", []),
])
def test_main_write_error_after_the_work_ran_exits_1(tmp_path, capsys, command, target, members):
    # a directory where the aggregate or --out file goes: the work has run, so this is
    # a failed write (exit 1), not input rejected before any run (exit 2)
    (tmp_path / target).mkdir(parents=True)
    if members:
        argv = _argv(command, _write_cfg(tmp_path))
    else:
        argv = command.split() + ["--out", str(tmp_path / target)]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and target.split("/")[-1] in err
    for member in members:
        assert (tmp_path / "out" / member / "monitors.csv").exists()


@pytest.mark.parametrize("command", ["run", "sweep --workers 2", "eps-study"])
def test_main_output_dir_flag_overrides_the_config(tmp_path, command):
    argv = _argv(command, _write_cfg(tmp_path)) + ["--output-dir", str(tmp_path / "flag")]
    assert cli.main(argv) == 0
    assert not (tmp_path / "out").exists()
    flag = tmp_path / "flag"
    want = {"run": ["monitors.csv", "residuals.csv"],
            "sweep --workers 2": ["alpha_0.5", "alpha_1.25", "sweep.csv"],
            "eps-study": ["eps_study.csv", "epsilon_0.01", "epsilon_0.1"]}[command]
    assert sorted(p.name for p in flag.iterdir()) == want
    for member in (p for p in flag.iterdir() if p.is_dir()):
        assert sorted(p.name for p in member.iterdir()) == ["monitors.csv", "residuals.csv"]


@pytest.mark.parametrize("command", ["run", "sweep", "eps-study"])
def test_main_missing_config_file(tmp_path, capsys, command):
    argv = [command, "--config", str(tmp_path / "nope.cfg")]
    argv += {"run": [], "sweep": ["--alphas", "0.5"], "eps-study": ["--eps", "0.1,0.01"]}[command]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "nope.cfg" in err and "Traceback" not in err


_COMMANDS = {"run": [], "sweep --workers 1": ["--alphas", "0.5,1.25"],
             "sweep --workers 2": ["--alphas", "0.5,1.25"], "eps-study": ["--eps", "0.1,0.01"]}


def _argv(command, cfg):
    return command.split() + ["--config", cfg] + _COMMANDS[command]


@pytest.mark.parametrize("order", ["0", "-1", "inf"])
@pytest.mark.parametrize("command", list(_COMMANDS))
def test_main_rejects_a_bad_p_list_before_any_output(tmp_path, capsys, command, order):
    assert cli.main(_argv(command, _write_cfg(tmp_path, f"p_list = 1,{order}\n"))) == 2
    err = capsys.readouterr().err
    assert err == f"error: invalid value for p_list: {float(order)}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("orders", ["1,1.0000001", "2,2"])  # lp_1_u, lp_2_u twice
@pytest.mark.parametrize("command", list(_COMMANDS))
def test_main_rejects_a_p_list_that_repeats_a_column_before_any_output(tmp_path, capsys,
                                                                      command, orders):
    assert cli.main(_argv(command, _write_cfg(tmp_path, f"p_list = {orders}\n"))) == 2
    err = capsys.readouterr().err
    p_list = tuple(map(float, orders.split(",")))
    assert err == f"error: invalid value for p_list: {p_list} repeats a monitor column\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["monitor_cadence", "snapshot_cadence"])
@pytest.mark.parametrize("command", list(_COMMANDS))
def test_main_rejects_a_cadence_below_the_tick_tolerance_before_any_output(tmp_path, capsys,
                                                                           command, key):
    assert cli.main(_argv(command, _write_cfg(tmp_path, f"{key} = 1e-25\n"))) == 2
    err = capsys.readouterr().err
    assert err == (f"error: invalid value for {key}: cadence must be at least "
                   f"1e-12 * t_end = 2e-14, got 1e-25\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_main_rejects_a_dt_max_below_the_time_resolution_before_any_output(tmp_path, capsys,
                                                                           command):
    # every step would be the dt floor 1e-12 * t_end = 2e-14, above dt_max, and 1e12 of them
    t0 = time.perf_counter()
    assert cli.main(_argv(command, _write_cfg(tmp_path, "dt_max = 1e-20\n"))) == 2
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err == "error: dt_max must be at least 1e-12 * t_end, got 1e-20\n"
    assert not (tmp_path / "out").exists()


def test_sweep_pool_is_capped_at_the_member_count(tmp_path, monkeypatch):
    sizes = []

    class Pool:  # runs the members in this process, recording the requested pool size
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    argv = ["sweep", "--config", _write_cfg(tmp_path), "--alphas", "0.5,1.25,0.5", "--workers", "64"]
    assert cli.main(argv) == 0
    assert sizes == [2]


def test_main_missing_snapshot_in(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, f"u0_kind = from_snapshot\nsnapshot_in = {tmp_path / 'nope.dtxs'}\n")
    for command in _COMMANDS:
        assert cli.main(_argv(command, cfg)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "nope.dtxs" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


def _inadmissible_initial_data(tmp_path, kind) -> str:
    """Config lines whose initial data is inadmissible in the given way."""
    if kind == "negative u0":
        return "u0_kind = cosine_mix\nu0_base = 0.2\nu0_amplitude = 0.5\n"
    path = tmp_path / "in.dtxs"
    g = Grid(16 if kind == "grid-mismatched snapshot" else 32)
    u = np.ones(g.shape)
    if kind == "nan snapshot":
        u[5] = np.nan
    save_snapshot(State(grid=g, t=0.0, u=u, v=np.ones(g.shape)), Params(alpha=1.0, epsilon=0.01),
                  path)
    if kind == "garbage snapshot":
        path.write_bytes(b"garbage")
    return f"u0_kind = from_snapshot\nsnapshot_in = {path}\n"


@pytest.mark.parametrize("kind, message", [
    ("negative u0", "u0 must be nonnegative"),
    ("garbage snapshot", "not a snapshot"),
    ("grid-mismatched snapshot", "grid mismatch"),
    ("nan snapshot", "u0 is not finite at cell (5,)"),
])
@pytest.mark.parametrize("command", list(_COMMANDS))
def test_main_rejects_inadmissible_initial_data_before_any_output(tmp_path, capsys, monkeypatch,
                                                                  command, kind, message):
    ran = []
    monkeypatch.setattr(cli, "run", lambda *a, **k: ran.append(a))
    extra = _inadmissible_initial_data(tmp_path, kind)
    assert cli.main(_argv(command, _write_cfg(tmp_path, extra))) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert ran == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("eps, message", [("1e-3,1e-2", "epsilon list must be decreasing"),
                                          ("1.0,0.5", "epsilon must lie in (0, 1)"),
                                          ("0.1", "eps-study needs at least two epsilons"),
                                          ("1e-1,1e-1", "epsilon list must be decreasing")])
def test_main_eps_study_rejects_bad_lists_before_any_run(tmp_path, capsys, eps, message):
    assert cli.main(["eps-study", "--config", _write_cfg(tmp_path), "--eps", eps]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_main_bad_u0_width_exit_code(tmp_path, capsys):
    assert cli.main(["run", "--config", _write_cfg(tmp_path, "u0_width = 0\n")]) == 2
    assert "u_width must be positive and finite, got 0.0" in capsys.readouterr().err


@pytest.fixture(scope="module")
def result_records(tmp_path_factory):
    """One of each immutable result record, as the code that returns it makes it."""
    cfg = parse_config(MINIMAL.replace("cells = 256", "cells = 8")
                       .replace("t_end = 0.1", "t_end = 1e-4"))
    traj = run(build_state(cfg), cfg.params, cfg.control)
    path = tmp_path_factory.mktemp("snap") / "final.dtxs"
    save_snapshot(traj.final, cfg.params, path)
    g, ones, verify = cfg.grid, np.ones(cfg.grid.shape), verify_regime_lemmas(2, 0, 3)
    return {"Accumulators": traj.final.acc, "MonitorRow": traj.rows[-1], "Trajectory": traj,
            "Snapshot": load_snapshot(path), "ExponentTriple": moderate_seq(2.0, 1.25, 1)[0],
            "RegimeReport": verify.strong, "VerifyReport": verify,
            "SobolevReport": check_sobolev_product(g, ones, ones, 1.0, 3.0),
            "LogHessianReport": check_log_hessian(g, ones, 2.0),
            "BatchReport": sobolev_batch((g,), 1, 0)[0]}


@pytest.mark.parametrize("name", ["Accumulators", "MonitorRow", "Trajectory", "Snapshot",
                                  "ExponentTriple", "RegimeReport", "VerifyReport",
                                  "SobolevReport", "LogHessianReport", "BatchReport"])
def test_result_records_refuse_assignment(result_records, name):
    record = result_records[name]
    assert type(record).__name__ == name
    field = record._fields[0]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) is before
