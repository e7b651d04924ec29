import numpy as np
import pytest

from etpf.config import apply_overrides, build_sim_config, load_config
from etpf.exceptions import ConfigurationError


class TestLoadConfig:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("preset: linear2d\nsim:\n  T: 5.0\n")
        data = load_config(path)
        assert data == {"preset": "linear2d", "sim": {"T": 5.0}}

    def test_malformed_yaml_diagnostic(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("sim:\n  T: [1, 2\n")
        with pytest.raises(ConfigurationError) as exc:
            load_config(path)
        assert "line" in str(exc.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(tmp_path / "nope.yaml")

    def test_non_mapping_root(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigurationError):
            load_config(path)


class TestApplyOverrides:
    def test_sets_nested_value(self):
        data = apply_overrides({"preset": "linear2d"}, ["trigger.theta=0.25"])
        assert data["trigger"]["theta"] == 0.25

    def test_does_not_mutate_input(self):
        base = {"sim": {"T": 5.0}}
        apply_overrides(base, ["sim.T=9.0"])
        assert base["sim"]["T"] == 5.0

    def test_invalid_shapes(self):
        with pytest.raises(ConfigurationError):
            apply_overrides({}, ["notanassignment"])
        with pytest.raises(ConfigurationError):
            apply_overrides({}, ["toplevel=1"])


class TestBuildSimConfig:
    def test_preset_with_override(self):
        cfg = build_sim_config(
            {"preset": "example1", "trigger": {"mode": "fixed-ratio", "rho_bar": 0.5}}
        )
        assert cfg.trigger.rho_bar == 0.5
        assert cfg.label == "example1"

    def test_sim_section(self):
        cfg = build_sim_config(
            {"preset": "linear2d", "sim": {"T": 5.0, "h": 0.002, "x0": [2.0, 0.0]}}
        )
        assert cfg.T == 5.0
        assert cfg.h == 0.002
        np.testing.assert_allclose(cfg.x0, [2.0, 0.0])

    def test_linear_system_from_scratch(self):
        cfg = build_sim_config(
            {
                "system": {
                    "kind": "linear",
                    "A": [[0.0, 1.0], [0.0, 0.0]],
                    "B": [[0.0], [1.0]],
                    "K": [[-1.0, -2.0]],
                },
                "delay": {"kind": "constant", "D": 0.3},
                "sensing": {"mode": "periodic", "delta_tau": 0.1, "d_psi": 0.0},
                "trigger": {"mode": "linear", "theta": 0.5},
            }
        )
        assert cfg.linear is not None
        assert cfg.delay.M0 == pytest.approx(0.3)
        assert cfg.trigger.mode == "linear"

    @pytest.mark.parametrize("B, K", [
        pytest.param([[0.0, 1.0], [1.0, 0.0]], [[-1.0, -2.0]], id="two-columns-of-B"),
        pytest.param([[0.0], [1.0]], [[-1.0, -2.0], [0.0, -1.0]], id="two-rows-of-K"),
        pytest.param([[0.0, 1.0, 2.0]], [[-1.0, -2.0]], id="three-entries-of-B"),
    ])
    def test_multi_input_linear_system_rejected(self, B, K):
        with pytest.raises(ConfigurationError, match="single-input"):
            build_sim_config({"system": {"kind": "linear", "A": [[0.0, 1.0], [0.0, 0.0]],
                                         "B": B, "K": K}})

    def test_delay_mismatch_fields(self):
        cfg = build_sim_config(
            {
                "preset": "example2",
                "delay": {"kind": "sinusoidal", "D": 0.2, "a": 0.005,
                          "nominal_D": 0.2},
            }
        )
        assert cfg.delay.name == "sinusoidal"
        assert cfg.controller_delay.M0 == pytest.approx(0.2)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigurationError):
            build_sim_config({"preset": "linear2d", "quantum": {}})

    def test_missing_system_rejected(self):
        with pytest.raises(ConfigurationError):
            build_sim_config({"sim": {"T": 1.0}})

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError):
            build_sim_config({"preset": "examples9"})

    def test_bad_predictor_method(self):
        with pytest.raises(ConfigurationError):
            build_sim_config(
                {"preset": "linear2d", "predictor": {"method": "psychic"}}
            )
        with pytest.raises(ConfigurationError):
            build_sim_config(
                {"preset": "example1", "predictor": {"method": "linear-closed-form"}}
            )

    def test_monitor_disable(self):
        cfg = build_sim_config({"preset": "linear2d", "monitor": {"enabled": False}})
        assert cfg.monitor is None
