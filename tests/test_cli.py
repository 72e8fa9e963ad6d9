import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from dtaxis import Grid, InitialData, Params, StepControl
from dtaxis import cli
from dtaxis.cli import (RunConfig, build_state, cmd_eps_study, cmd_run,
                        load_snapshot, parse_config, regime_label, run_eps_study,
                        run_sweep, save_snapshot)
from dtaxis.model import State
from dtaxis.stepper import run

MINIMAL = "alpha = 1.25\nepsilon = 0.01\ncells = 256\nt_end = 0.1\n"


def test_parse_minimal_config():
    cfg = parse_config(MINIMAL)
    assert cfg.params.alpha == 1.25
    assert cfg.params.epsilon == 0.01
    assert cfg.grid.cells == (256,)
    assert cfg.control.t_end == 0.1
    assert cfg.monitor_cadence == pytest.approx(0.005)
    assert cfg.p_list == (1.0, 2.0, 3.0)


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


def test_parse_missing_key():
    with pytest.raises(ValueError, match="missing key epsilon"):
        parse_config("alpha = 1.0\ncells = 32\nt_end = 1.0\n")


def test_parse_invalid_value():
    with pytest.raises(ValueError, match="invalid value for cells"):
        parse_config(MINIMAL.replace("cells = 256", "cells = many"))


def test_parse_2d_config():
    cfg = parse_config("alpha = 1.0\nepsilon = 0.01\ncells = 16\ndim = 2\nt_end = 0.1\n")
    assert cfg.grid.cells == (16, 16)
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
                          dt_max=over.pop("dt_max", math.inf),
                          max_rejects=over.pop("max_rejects", 40))
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
    assert cmd_run(cfg, output_dir=tmp_path / "a") == 0
    assert cmd_run(cfg, output_dir=tmp_path / "b") == 0
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
    _, res = _read_csv(tmp_path / "out" / "residuals.csv")
    assert len(mon) == 6
    assert len(res) == 4 * (len(mon) - 1)
    for i, row in enumerate(mon[1:]):
        block = res[4 * i:4 * i + 4]
        assert [r[0] for r in block] == ["v_energy", "v_pow_2", "u0.5_v1", "first_energy"]
        assert {r[2] for r in block} == {row[0]}  # t1 of the step landing on the tick


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-0.005"])
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
        parse_config(MINIMAL + f"{key} = nan\n")  # a repeated key overrides


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
                        cfl_safety=1.0, max_rejects=3, t_end=0.01,
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
    assert regime_label(0.5) == "weak"
    assert regime_label(1.0) == "weak"
    assert regime_label(1.25) == "moderate"
    assert regime_label(1.5) == "moderate"
    assert regime_label(1.75) == "strong"


def test_sweep_three_regimes(tmp_path):
    cfg = _small_config(tmp_path, t_end=0.02, monitor_cadence=0.01)
    results = run_sweep(cfg, [0.5, 1.25, 1.75])
    assert [r[1] for r in results] == ["weak", "moderate", "strong"]
    assert all(r[2] == "ok" for r in results)
    lines = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 4
    assert lines[1].startswith("0.5,weak,ok,")


def test_sweep_empty_and_duplicates(tmp_path):
    cfg = _small_config(tmp_path, t_end=0.02)
    assert run_sweep(cfg, []) == []
    lines = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 1  # header only
    results = run_sweep(cfg, [0.5, 0.5])
    assert len(results) == 2  # no dedup


def test_sweep_isolates_failures(tmp_path, monkeypatch):
    cfg = _small_config(tmp_path, t_end=0.02)
    real = cli.cmd_run

    def flaky(config, output_dir=None):
        if config.params.alpha == 1.25:
            raise RuntimeError("boom")
        return real(config, output_dir=output_dir)

    monkeypatch.setattr(cli, "cmd_run", flaky)
    results = run_sweep(cfg, [0.5, 1.25, 1.75])
    statuses = {r[0]: r[2] for r in results}
    assert statuses[1.25] == "failed"
    assert statuses[0.5] == statuses[1.75] == "ok"
    assert (tmp_path / "out" / "alpha_0.5" / "monitors.csv").exists()
    assert (tmp_path / "out" / "alpha_1.75" / "monitors.csv").exists()


def test_eps_study_constant_closed_form(tmp_path):
    # ell = 0 with constant data freezes u, so the final difference is exactly
    # the epsilon gap times sqrt(|Omega|)
    cfg = replace(_small_config(tmp_path, t_end=0.05), grid=Grid(32, 2.0))
    rows = run_eps_study(cfg, [1e-1, 1e-2])
    assert rows[0].status == "ok"
    assert rows[0].l2_diff_u == pytest.approx((1e-1 - 1e-2) * math.sqrt(2.0), rel=1e-12)


def test_eps_study_identical_values_deterministic(tmp_path):
    cfg = _small_config(tmp_path, t_end=0.02,
                        initial=InitialData(kind="gaussian_bump", u_amplitude=1.0))
    rows = run_eps_study(cfg, [1e-2, 1e-2])
    assert rows[0].l2_diff_u <= 1e-14
    assert rows[0].l2_diff_v <= 1e-14


def test_eps_study_validation(tmp_path):
    cfg = _small_config(tmp_path)
    with pytest.raises(ValueError, match="decreasing"):
        run_eps_study(cfg, [1e-3, 1e-2])
    with pytest.raises(ValueError, match="lie in"):
        run_eps_study(cfg, [1.0, 0.5])


def test_cmd_eps_study_writes_csv(tmp_path):
    cfg = _small_config(tmp_path, t_end=0.02)
    assert cmd_eps_study(cfg, [1e-1, 1e-2, 1e-3]) == 0
    lines = (tmp_path / "out" / "eps_study.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[0] == "eps_coarse,eps_fine,l2_diff_u,l2_diff_v,status"


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


def test_main_verify_inequalities(tmp_path):
    out = tmp_path / "ineq.jsonl"
    assert cli.main(["verify-inequalities", "--cells", "32", "--samples", "5",
                     "--qs", "2", "--out", str(out)]) == 0
    recs = [json.loads(x) for x in out.read_text().splitlines()]
    checks = {r["check"] for r in recs}
    assert checks == {"log_hessian", "sobolev_product"}
    assert all(r.get("violations", 0) == 0 for r in recs if "violations" in r)


def test_main_config_error_exit_code(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("alpha = 9\nepsilon = 0.01\ncells = 16\nt_end = 0.1\n")
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    assert "alpha" in capsys.readouterr().err
