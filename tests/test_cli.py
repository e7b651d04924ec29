import numpy as np
import pytest

from etpf import presets
from etpf.cli import main
from etpf.monitor import MonitorConfig, compute_V
from etpf.presets import linear2d_system
from etpf.tradeoff import sweep


def pct_lines(rows) -> bytes:
    """Each row's fields, numbers as ``'%.17g' %`` gives them."""
    fmt = lambda v: v if isinstance(v, str) else "%.17g" % v
    return "".join(",".join(map(fmt, row)) + "\n" for row in rows).encode()


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


class TestSimulate:
    def test_linear_preset_artifacts(self, tmp_path):
        out = tmp_path / "lin"
        code = main([
            "simulate", "--preset", "linear2d",
            "--override", "sim.T=3.0", "--out", str(out),
        ])
        assert code == 0
        for name in ("trace.csv", "events.csv", "summary.txt", "plot.gp"):
            assert (out / name).exists()
        header, rows = read_csv(out / "trace.csv")
        assert header[:6] == ["t", "x_1", "x_2", "u_1", "p_1", "p_2"]
        assert len(rows) == 3001

    def test_v_column_roundtrip(self, tmp_path):
        # recomputing V from the stored x and L columns reproduces the stored V
        out = tmp_path / "lin"
        assert main([
            "simulate", "--preset", "linear2d",
            "--override", "sim.T=3.0", "--out", str(out),
        ]) == 0
        header, rows = read_csv(out / "trace.csv")
        data = np.array([[float(v) for v in row] for row in rows])
        cols = {name: data[:, i] for i, name in enumerate(header)}
        cert = linear2d_system()
        mon = MonitorConfig(form="integral")
        mask = np.isfinite(cols["V"])
        for x1, x2, L, V in zip(
            cols["x_1"][mask], cols["x_2"][mask], cols["L"][mask], cols["V"][mask]
        ):
            assert compute_V(mon, [x1, x2], L, cert) == pytest.approx(V, abs=1e-9)

    def test_decay_line_gives_a_rate_only_for_the_linear_trigger(self, tmp_path):
        # a fixed ratio has no guaranteed rate: this run used to print
        # "guaranteed rate -mu = -0.2197 (VIOLATED)"
        fixed, linear = tmp_path / "fixed", tmp_path / "linear"
        assert main(["simulate", "--preset", "linear2d", "--override", "trigger.mode=fixed-ratio",
                     "--override", "trigger.rho_bar=2.0", "--out", str(fixed)]) == 0
        summary = (fixed / "summary.txt").read_text()
        assert "log-V least-squares slope" in summary and "guaranteed rate" not in summary
        assert main(["simulate", "--preset", "linear2d", "--override", "sim.T=3.0",
                     "--out", str(linear)]) == 0
        assert "guaranteed rate -mu = -0.2197 (ok)" in (linear / "summary.txt").read_text()

    def test_divergence_exit_code(self, tmp_path):
        code = main([
            "simulate", "--preset", "example2", "--out", str(tmp_path / "e2"),
        ])
        assert code == 2

    def test_diverged_summary_claims_no_equilibrium(self, tmp_path):
        out = tmp_path / "e2"
        assert main(["simulate", "--preset", "example2", "--out", str(out)]) == 2
        summary = (out / "summary.txt").read_text()
        assert "diverged: True" in summary
        assert "equilibrium" not in summary
        assert "V-decay: not evaluated (no finite V after t0)" in summary

    def test_diverged_summary_names_the_bound(self, tmp_path):
        out = tmp_path / "e2"
        assert main(["simulate", "--preset", "example2", "--out", str(out)]) == 2
        assert ("diverged: True (prediction bound, advance, step 144, t = 1.44)\n"
                "stopped before any control reached the plant: False\n"
                in (out / "summary.txt").read_text())

    def test_divergence_in_prehistory_exit_code(self, tmp_path):
        # the prediction over [phi(0), 0] blows up before the step loop
        out = tmp_path / "e2"
        code = main([
            "simulate", "--preset", "example2",
            "--override", "sim.x0=[10000.0, 10000.0]", "--out", str(out),
        ])
        assert code == 2
        assert "diverged: True" in (out / "summary.txt").read_text()

    def test_divergence_at_reanchor_exit_code(self, tmp_path):
        # out-of-order Gaussian sensing: the prediction diverges while
        # re-anchoring on a delivery, not in the plant step or an advance
        out = tmp_path / "e2"
        code = main([
            "simulate", "--preset", "example2",
            "--override", "sensing.delta_tau=0.3",
            "--override", "sensing.mu_psi=0.8",
            "--override", "sensing.sigma_psi=0.5",
            "--override", "sensing.seed=8",
            "--override", "sim.T=6", "--out", str(out),
        ])
        assert code == 2
        header, rows = read_csv(out / "trace.csv")
        assert len(rows) == 601
        assert "diverged: True" in (out / "summary.txt").read_text()

    def test_malformed_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("sim:\n  T: [1, 2\n")
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 1

    def test_unknown_preset_exit_code(self, tmp_path):
        assert main(["simulate", "--preset", "nope", "--out", str(tmp_path)]) == 1

    def test_no_source_exit_code(self, tmp_path):
        assert main(["simulate", "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("override, key", [
        ("sim.t=5", "sim.t"),  # unknown key: the preset's T = 25 used to run
        ("monitor.stride=2.5", "monitor.stride"),  # int() used to truncate it to 2
        ("sim.T=abc", "sim.T"),  # float() used to raise a ValueError traceback
        ("sim.h=0.03", "T = 25.0 is not a whole number of steps h = 0.03"),  # ran to 24.99
    ])
    def test_config_error_exits_1_naming_the_key(self, tmp_path, capsys, override, key):
        out = tmp_path / "out"
        code = main(["simulate", "--preset", "example1", "--override", override,
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and key in err
        assert not out.exists()  # nothing runs

    def test_preset_and_config_naming_another_preset_exit_1(self, tmp_path, capsys):
        # the config file's preset used to win without a word
        cfgfile = tmp_path / "lin.yaml"
        cfgfile.write_text("preset: linear2d\nsim: {T: 1.0}\n")
        out = tmp_path / "out"
        code = main(["simulate", "--preset", "example1", "--config", str(cfgfile),
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "example1" in err and "linear2d" in err
        assert not out.exists()
        # the same preset in both is no conflict
        assert main(["simulate", "--preset", "linear2d", "--config", str(cfgfile),
                     "--out", str(out)]) == 0

    def test_system_kind_config_without_preset_runs(self, tmp_path):
        cfgfile = tmp_path / "ex1.yaml"
        cfgfile.write_text("system: {kind: example1}\nsim: {T: 1.0}\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfgfile), "--out", str(out)]) == 0
        assert "diverged: False" in (out / "summary.txt").read_text()


class TestHeatmap:
    def test_single_cell_config(self, tmp_path):
        cfgfile = tmp_path / "hm.yaml"
        cfgfile.write_text(
            "preset: example1\n"
            "heatmap:\n"
            "  delta_tau_grid: [2.0]\n"
            "  d_psi_grid: [1.0]\n"
            "  n_ic: 2\n"
            "  seed: 42\n"
        )
        out = tmp_path / "hm"
        assert main(["heatmap", "--config", str(cfgfile), "--out", str(out)]) == 0
        header, rows = read_csv(out / "heatmap.csv")
        assert header == ["delta_tau", "d_psi", "avg_xT"]
        assert len(rows) == 1
        assert float(rows[0][2]) <= 0.5

    def test_config_without_heatmap_section_sweeps_the_presets_cells(self, tmp_path, monkeypatch):
        seen = []

        def fake_heatmap(base, dt_grid, dp_grid, n_ic, seed, config_factory=None):
            seen.append((list(dt_grid), list(dp_grid), n_ic, seed))
            return np.zeros((len(dt_grid), len(dp_grid)))

        monkeypatch.setattr("etpf.cli.heatmap", fake_heatmap)
        cfgfile = tmp_path / "hm.yaml"
        cfgfile.write_text("preset: example1\n")
        assert main(["heatmap", "--config", str(cfgfile), "--out", str(tmp_path / "c")]) == 0
        assert main(["heatmap", "--preset", "heatmap-ex1", "--out", str(tmp_path / "p")]) == 0
        assert len(seen) == 2 and seen[0] == seen[1]

    @pytest.mark.parametrize("section, key", [
        ("  delta_tau_grid: []\n  d_psi_grid: [1.0]\n", "delta_tau_grid"),
        ("  delta_tau_grid: [2.0]\n  d_psi_grid: []\n", "d_psi_grid"),
        ("  n_ic: 2.5\n", "heatmap.n_ic"),
    ])
    def test_bad_heatmap_section_exits_1(self, tmp_path, capsys, section, key):
        # an empty grid used to sweep heatmap-ex1's eight values, and n_ic 2.5 ran as 2
        cfgfile = tmp_path / "hm.yaml"
        cfgfile.write_text("preset: example1\nheatmap:\n" + section)
        assert main(["heatmap", "--config", str(cfgfile), "--out", str(tmp_path / "hm")]) == 1
        assert key in capsys.readouterr().err

    def test_determinism(self, tmp_path):
        cfgfile = tmp_path / "hm.yaml"
        cfgfile.write_text(
            "preset: example1\n"
            "heatmap:\n"
            "  delta_tau_grid: [2.0]\n"
            "  d_psi_grid: [0.5, 1.0]\n"
            "  n_ic: 2\n"
            "  seed: 3\n"
        )
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["heatmap", "--config", str(cfgfile), "--out", str(out)]) == 0
            outs.append(out / "heatmap.csv")
        assert outs[0].read_bytes() == outs[1].read_bytes()


class TestCsvBytes:
    """The bytes of the CLI's tables against ``'%.17g' %`` of the same values."""

    def test_heatmap(self, tmp_path):
        cfgfile = tmp_path / "hm.yaml"
        cfgfile.write_text(
            "preset: example1\n"
            "heatmap:\n"
            "  delta_tau_grid: [2.0, 0.1]\n"
            "  d_psi_grid: [1.0]\n"
            "  n_ic: 1\n"
            "  seed: 5\n"
        )
        out = tmp_path / "hm"
        assert main(["heatmap", "--config", str(cfgfile), "--out", str(out)]) == 0
        got = (out / "heatmap.csv").read_bytes()
        _, rows = read_csv(out / "heatmap.csv")
        avg = [float(r[2]) for r in rows]  # '%.17g' round-trips, so only its own text survives
        expected = b"delta_tau,d_psi,avg_xT\n" + pct_lines([(2.0, 1.0, avg[0]), (0.1, 1.0, avg[1])])
        assert got == expected

    def test_tradeoff(self, tmp_path):
        out = tmp_path / "to"
        assert main(["tradeoff", "--out", str(out)]) == 0
        spec = presets.get_preset("tradeoff")
        nu_rows, lam_rows = sweep(spec.constants(), spec.nu_grid, spec.lambda_grid)
        assert (out / "tradeoff_nu.csv").read_bytes() == b"nu,delta,mu\n" + pct_lines(nu_rows)
        assert (out / "tradeoff_lambda.csv").read_bytes() == (
            b"lambda,nu_star,flag\n" + pct_lines(lam_rows))


class TestVerify:
    def test_all_checks_pass(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert sum(line.startswith("[ok] ") for line in out.splitlines()) == 6
        assert "FAIL" not in out


class TestTradeoff:
    def test_tables(self, tmp_path):
        out = tmp_path / "to"
        assert main(["tradeoff", "--out", str(out)]) == 0
        header, rows = read_csv(out / "tradeoff_nu.csv")
        assert header == ["nu", "delta", "mu"]
        deltas = [float(r[1]) for r in rows]
        mus = [float(r[2]) for r in rows]
        assert all(b > a for a, b in zip(deltas, deltas[1:]))
        assert all(b < a for a, b in zip(mus, mus[1:]))
        header, rows = read_csv(out / "tradeoff_lambda.csv")
        assert header == ["lambda", "nu_star", "flag"]
        nus = [float(r[1]) for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(nus, nus[1:]))
        assert rows[-1][2] == "degenerate"
