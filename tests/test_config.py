import dataclasses
import pickle
from pathlib import Path

import numpy as np
import pytest

from etpf import presets, run
from etpf.channel import ActuationDelay
from etpf.config import SCHEMA, apply_overrides, build_sim_config, load_config, read_section
from etpf.engine import SimConfig
from etpf.exceptions import ConfigurationError
from etpf.trigger import TriggerConfig


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
        assert cfg.delay == ActuationDelay.example1()

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
        assert cfg.delay == ActuationDelay.sinusoidal(0.2, 0.005)
        assert cfg.controller_delay.M0 == pytest.approx(0.2)

    def test_nominal_D_alone_keeps_the_plants_delay(self):
        # a delay section with only nominal_D models the controller's channel; it used to
        # swap example1's bump-shaped delay for the default constant 0.5 as well
        cfg = build_sim_config({"preset": "example1", "delay": {"nominal_D": 0.3}})
        assert cfg.delay == ActuationDelay.example1()
        assert cfg.ctrl_delay == ActuationDelay.constant(0.3)
        # D without kind keeps the documented default kind, constant
        cfg = build_sim_config({"preset": "example1", "delay": {"D": 0.3}})
        assert cfg.delay == ActuationDelay.constant(0.3) and cfg.ctrl_delay is None

    @pytest.mark.parametrize("kind", ["example1", "example2"])
    def test_system_kind_without_preset_starts_from_its_preset(self, kind):
        # the linear2d scaffold used to keep its linear predictor and trigger, which
        # raised PredictorError for a nonlinear system
        cfg = build_sim_config({"system": {"kind": kind}, "sim": {"T": 1.0}})
        ref = presets.get_preset(kind)
        for name in ("delay", "ctrl_delay", "sensing", "trigger", "predictor_method", "h"):
            assert getattr(cfg, name) == getattr(ref, name), name
        assert cfg.linear is None and cfg.T == 1.0
        tr = run(cfg)
        assert tr.events.count > 0 and not tr.diverged

    def test_predictor_section_sets_the_method(self):
        cfg = build_sim_config({"preset": "linear2d", "predictor": {"method": "semi-closed-loop"}})
        assert cfg.predictor_method == "semi-closed-loop"

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

    @pytest.mark.parametrize("extra, name", [
        pytest.param({}, "trigger.mode", id="linear-trigger-and-predictor"),
        pytest.param({"predictor": {"method": "closed-loop"}}, "trigger.mode", id="linear-trigger"),
        pytest.param({"trigger": {"mode": "fixed-ratio"}}, "predictor.method", id="linear-predictor"),
    ])
    def test_carried_over_linear_parts_need_a_linear_system(self, extra, name):
        # linear2d's linear trigger and predictor, carried over onto example1's system,
        # used to build a config that run rejected, or ran linear2d's ratio with cfg.linear None
        with pytest.raises(ConfigurationError, match=name):
            build_sim_config({"preset": "linear2d", "system": {"kind": "example1"}, **extra})

    def test_carried_over_linear_trigger_takes_the_new_systems_ratio(self):
        system = {"kind": "linear", "A": [[0, 1], [-2, 0]], "B": [[0], [1]], "K": [[-3, -4]]}
        cfg = build_sim_config({"system": system})
        assert cfg.trigger == TriggerConfig.linear(cfg.linear, theta=0.5)
        assert cfg.trigger.rho_bar == pytest.approx(0.19611613513818402)  # not linear2d's 0.1118
        assert build_sim_config({"preset": "linear2d"}).trigger == presets.linear2d().trigger

    def test_monitor_disable(self):
        cfg = build_sim_config({"preset": "linear2d", "monitor": {"enabled": False}})
        assert cfg.monitor is None


class TestCertificateRules:
    """What reads the certificate needs one: checked when the config is built, before any
    run or heatmap worker starts."""

    def test_nonlinear_trigger_needs_a_certificate(self):
        ex1 = presets.example1()
        with pytest.raises(ConfigurationError, match="nonlinear trigger needs a certificate"):
            TriggerConfig.nonlinear(None, 0.5, ex1.model.L_K)
        # example2 has no certificate
        with pytest.raises(ConfigurationError, match="nonlinear trigger"):
            build_sim_config({"preset": "example2", "trigger": {"mode": "nonlinear"}})

    def test_monitor_needs_a_certificate(self):
        with pytest.raises(ConfigurationError, match="the monitor needs an ISS certificate"):
            dataclasses.replace(presets.example1(), cert=None)
        with pytest.raises(ConfigurationError, match="the monitor needs"):
            build_sim_config({"preset": "example2", "monitor": {"enabled": True}})
        # example2 declares none, and a system of kind example2 drops a carried-over one
        assert presets.example2().monitor is None and presets.example2_body().monitor is None
        cfg = build_sim_config({"preset": "example1", "system": {"kind": "example2"}})
        assert cfg.cert is None and cfg.monitor is None


class TestSchema:
    """Every key is typed by ``SCHEMA``; a key that is unknown, mistyped or not read by the
    chosen kind or mode raises ``ConfigurationError`` naming it, as from the CLI."""

    @pytest.mark.parametrize("overrides, name", [
        (["sim.t=5"], "sim.t"),
        (["sensing.delta_taux=3"], "sensing.delta_taux"),
        (["trigger.mode=nonlinear", "trigger.rho_bar=0.3"], "trigger.rho_bar"),
        (["delay.kind=constant", "delay.a=0.1"], "delay.a"),
        (["monitor.stride=2.5"], "monitor.stride"),
        (["monitor.stride=.nan"], "monitor.stride"),
        (["sim.T=abc"], "sim.T"),
        (["sensing.seed=1.7"], "sensing.seed"),
        (["sensing.seed=true"], "sensing.seed"),
        (["sim.x0=[a, b]"], "sim.x0"),
        (["monitor.enabled=1"], "monitor.enabled"),
        (["predictor.method=7"], "predictor.method"),
        (["sensing.mode=perfect", "sensing.delta_tau=2.0"], "sensing.delta_tau"),
        (["sensing.mu_psi=0.1", "sensing.sigma_psi=0.02", "sensing.d_psi=0.3"], "sensing.d_psi"),
        (["monitor.enabled=false", "monitor.b=3"], "monitor.b"),
        (["delay.kind=example1", "delay.D=0.3"], "delay.D"),
        (["trigger.theta=0.9"], "trigger.theta"),  # example1's trigger is fixed-ratio
    ])
    def test_rejected_key_is_named(self, overrides, name):
        data = apply_overrides({"preset": "example1"}, overrides)
        with pytest.raises(ConfigurationError, match=name.replace(".", r"\.")):
            build_sim_config(data)

    def test_only_a_fixed_ratio_trigger_reads_no_theta(self):
        # a theta under fixed-ratio used to build a trigger that ran as if it were 0.5
        linear = build_sim_config(apply_overrides({"preset": "linear2d"}, ["trigger.theta=0.3"]))
        assert linear.trigger.theta == 0.3
        data = apply_overrides({"preset": "linear2d"},
                               ["trigger.mode=fixed-ratio", "trigger.theta=0.3"])
        with pytest.raises(ConfigurationError, match=r"trigger\.theta is not read when "
                                                     "trigger.mode is fixed-ratio"):
            build_sim_config(data)

    @pytest.mark.parametrize("data, name", [
        ({"sim": 5}, "sim"), ({"trigger": "nonlinear"}, "trigger"),
        ({"preset": "example1", "monitor": [1, 2]}, "monitor"),
        ({"system": {"kind": "linear", "A": [[0.0, 1.0], [0.0, 0.0]], "B": [[0.0], [1.0]],
                     "K": [[-1.0, -2.0]], "D": 0.3}}, "system.D"),
    ])
    def test_non_mapping_section_or_unknown_key_is_named(self, data, name):
        with pytest.raises(ConfigurationError, match=name):
            build_sim_config(data)

    def test_numeric_strings_and_whole_floats_are_read(self):
        # PyYAML reads 1e-3 as the string '1e-3'
        data = apply_overrides({"preset": "example1"},
                               ["sim.h=1e-3", "monitor.stride=7.0", "sensing.seed=3"])
        assert data["sim"]["h"] == "1e-3"
        cfg = build_sim_config(data)
        assert cfg.h == 0.001
        assert cfg.monitor.stride == 7 and type(cfg.monitor.stride) is int
        assert cfg.sensing.seed == 3

    def test_read_section_types_each_value(self):
        vals = read_section("sim", {"x0": [1, "2.5"], "T": 4, "h": "0.01"})
        np.testing.assert_array_equal(vals["x0"], [1.0, 2.5])
        assert (vals["T"], vals["h"]) == (4.0, 0.01)
        assert read_section("sim", None) == {}

    def test_every_schema_key_is_in_the_readme_table(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        missing = [f"{name}.{key}" for name, keys in SCHEMA.items() for key, kind in keys.items()
                   if f"| `{name}.{key}` | {kind} |" not in readme]
        assert missing == []


# one YAML config per delay.kind, and one with a nominal controller delay
PICKLE_YAML = {
    "constant": "preset: example1\ndelay: {kind: constant, D: 0.7}\n",
    "example1": "preset: linear2d\ndelay: {kind: example1}\n",
    "sinusoidal": "preset: example1\ndelay: {kind: sinusoidal, D: 0.4, a: 0.1}\n",
    "nominal_D": "preset: linear2d\ndelay: {kind: sinusoidal, D: 0.5, a: 0.05, nominal_D: 0.5}\n",
}
SIM_PRESETS = sorted(n for n, f in presets.PRESETS.items() if isinstance(f(), SimConfig))


class TestPickle:
    """Every preset config and every YAML-built delay pickles: the copy's delays equal the
    original's, and a run of the copy writes the same bytes."""

    @staticmethod
    def check(cfg, tmp_path):
        cfg = dataclasses.replace(cfg, T=2.0)
        copy = pickle.loads(pickle.dumps(cfg))
        for attr in ("delay", "ctrl_delay"):
            a, b = getattr(cfg, attr), getattr(copy, attr)
            assert a == b and hash(a) == hash(b)
        for tag, c in (("orig", cfg), ("copy", copy)):
            run(c).write_trace_csv(tmp_path / f"{tag}.csv")
        assert (tmp_path / "orig.csv").read_bytes() == (tmp_path / "copy.csv").read_bytes()

    @pytest.mark.parametrize("name", SIM_PRESETS)
    def test_preset_roundtrip(self, name, tmp_path):
        self.check(presets.get_preset(name), tmp_path)

    @pytest.mark.parametrize("name", sorted(PICKLE_YAML))
    def test_yaml_roundtrip(self, name, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text(PICKLE_YAML[name])
        cfg = build_sim_config(load_config(path))
        assert (cfg.ctrl_delay is not None) == (name == "nominal_D")
        self.check(cfg, tmp_path)
