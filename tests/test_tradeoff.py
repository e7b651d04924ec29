import dataclasses
import math

import numpy as np
import pytest

from etpf import presets
from etpf.channel import ActuationDelay
from etpf.exceptions import DomainError
from etpf.presets import tradeoff as tradeoff_preset
from etpf.tradeoff import (
    NU_EPS,
    NU_MAX,
    TradeoffConstants,
    aggregate_J,
    delta_of_nu,
    mu_of_nu,
    optimize_nu,
    sweep,
)

SIMPLE = TradeoffConstants(a=1.0, c=2.0, lam_max_P1=1.0, PB1=1.0, K_norm=1.0)


class TestClosedForms:
    def test_delta_hand_value(self):
        # R = nu/(|P1B||K|) = 1: delta = ln(3/4)/(-1) = ln(4/3)
        assert delta_of_nu(SIMPLE, 1.0) == pytest.approx(math.log(4.0 / 3.0))

    def test_delta_vanishes_at_zero(self):
        assert delta_of_nu(SIMPLE, 1e-12) == pytest.approx(0.0, abs=1e-11)

    def test_mu_hand_value(self):
        assert mu_of_nu(SIMPLE, 1.0) == pytest.approx(0.25)

    def test_mu_limit(self):
        assert mu_of_nu(SIMPLE, 1e-9) == pytest.approx(0.5, abs=1e-9)

    def test_monotonicity(self):
        grid = np.linspace(0.01, NU_MAX - 0.01, 100)
        deltas = [delta_of_nu(SIMPLE, v) for v in grid]
        mus = [mu_of_nu(SIMPLE, v) for v in grid]
        assert all(b > a for a, b in zip(deltas, deltas[1:]))
        assert all(b < a for a, b in zip(mus, mus[1:]))

    def test_domains(self):
        with pytest.raises(DomainError):
            delta_of_nu(SIMPLE, 0.0)
        with pytest.raises(DomainError):
            mu_of_nu(SIMPLE, NU_MAX)
        with pytest.raises(DomainError):
            TradeoffConstants(a=2.0, c=1.0, lam_max_P1=1.0, PB1=1.0, K_norm=1.0)


class TestOptimizeNu:
    def test_boundary_flags(self):
        assert optimize_nu(SIMPLE, 0.0).flag == "boundary"
        res = optimize_nu(SIMPLE, 1.0)
        assert res.flag == "degenerate"
        assert res.nu == pytest.approx(NU_MAX - NU_EPS)

    def test_hand_cubic(self):
        # lambda = 0.5: root of 0.5 nu^3 + 1.5 nu^2 + nu - 1 = 0
        res = optimize_nu(SIMPLE, 0.5)
        roots = np.roots([0.5, 1.5, 1.0, -1.0])
        expected = min(r.real for r in roots if abs(r.imag) < 1e-9 and r.real > 0)
        assert res.nu == pytest.approx(expected, abs=1e-10)
        assert res.flag == "interior"

    def test_cubic_residual_small(self):
        consts = tradeoff_preset().constants()
        for lam in np.arange(0.1, 0.95, 0.1):
            res = optimize_nu(consts, lam)
            if res.flag != "interior":
                continue
            g = consts.PB1 * consts.K_norm
            coeffs = [
                consts.a * (1 - lam),
                (consts.a + consts.c) * g * (1 - lam),
                consts.c * g * g * (1 - lam),
                -2.0 * consts.lam_max_P1 * g * lam,
            ]
            val = np.polyval(coeffs, res.nu)
            scale = max(abs(c) for c in coeffs)
            assert abs(val) <= 1e-9 * scale

    def test_first_order_optimality(self):
        consts = tradeoff_preset().constants()
        for lam in (0.2, 0.5, 0.8):
            res = optimize_nu(consts, lam)
            if res.flag != "interior":
                continue
            eps = 1e-7
            dJ = (
                aggregate_J(consts, lam, res.nu + eps)
                - aggregate_J(consts, lam, res.nu - eps)
            ) / (2 * eps)
            J = aggregate_J(consts, lam, res.nu)
            assert abs(dJ) <= 1e-5 * (1.0 + abs(J))

    def test_lambda_domain(self):
        with pytest.raises(DomainError):
            optimize_nu(SIMPLE, -0.1)
        with pytest.raises(DomainError):
            optimize_nu(SIMPLE, 1.1)


class TestSweep:
    def test_tables_shape_and_monotonicity(self):
        spec = tradeoff_preset()
        consts = spec.constants()
        nu_rows, lam_rows = sweep(consts, spec.nu_grid, spec.lambda_grid)
        assert len(nu_rows) == len(spec.nu_grid)
        assert len(lam_rows) == len(spec.lambda_grid)
        deltas = [r[1] for r in nu_rows]
        mus = [r[2] for r in nu_rows]
        assert all(b > a for a, b in zip(deltas, deltas[1:]))
        assert all(b < a for a, b in zip(mus, mus[1:]))
        nus = [r[1] for r in lam_rows]
        assert all(b >= a - 1e-12 for a, b in zip(nus, nus[1:]))
        assert lam_rows[-1][2] == "degenerate"

    def test_single_point_grids(self):
        nu_rows, lam_rows = sweep(SIMPLE, [1.0], [0.5])
        assert len(nu_rows) == 1 and len(lam_rows) == 1


class TestPresetConstants:
    def test_the_delays_M2_scales_a_and_c(self):
        # the constants come from the config's system and its delay's M2 = 1 / m2: 1 for
        # linear2d's constant delay, 1 / 0.8 for a sinusoidal one of amplitude 0.2
        spec = tradeoff_preset()
        sinusoidal = dataclasses.replace(spec, config_factory=lambda: dataclasses.replace(
            presets.linear2d(), delay=ActuationDelay.sinusoidal(0.5, 0.2)))
        base, scaled = spec.constants(), sinusoidal.constants()
        assert base == TradeoffConstants.from_linear_system(presets.linear2d_system(), M2=1.0)
        assert (scaled.a, scaled.c) == pytest.approx((base.a / 0.8, base.c / 0.8), rel=1e-15)
        assert (scaled.lam_max_P1, scaled.PB1, scaled.K_norm) == (
            base.lam_max_P1, base.PB1, base.K_norm)
