import math

import numpy as np
import pytest

from etpf.exceptions import ConfigurationError, NumericalError
from etpf.model import (
    ISSCertificate,
    LinearSystem,
    eval_f,
    linear_certificate,
    solve_lyapunov,
    spectral_norm,
    verify_certificate,
)
from etpf.presets import example1_model, linear2d_system


def assert_class_k(cert, grid=np.logspace(-6, 3, 40)):
    """alpha1, alpha2, gamma and rho vanish at 0 and increase strictly on ``grid``."""
    for name in ("alpha1", "alpha2", "gamma", "rho"):
        fn = getattr(cert, name)
        assert abs(fn(0.0)) <= 1e-12, f"{name}(0) must be 0"
        vals = [fn(float(r)) for r in grid]
        assert all(b > a for a, b in zip(vals, vals[1:])), f"{name} must be strictly increasing"


class TestEvalF:
    def test_example1_vector_field(self):
        model = example1_model()
        out = eval_f(model, (1.0, 1.0), (0.0,))
        np.testing.assert_allclose(out, [2.0, math.tanh(1.0) + 1.0], atol=1e-12)

    def test_equilibrium(self):
        model = example1_model()
        np.testing.assert_allclose(eval_f(model, (0.0, 0.0), (0.0,)), [0.0, 0.0])

    def test_linear_hand_evaluation(self):
        sys = LinearSystem(
            A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]],
            K_gain=[[-1.0, -2.0]], Q=np.eye(2),
        )
        out = eval_f(sys.to_model(), (1.0, 0.0), (2.0,))
        np.testing.assert_allclose(out, [0.0, 2.0])

    def test_dimension_mismatch(self):
        model = example1_model()
        with pytest.raises(ConfigurationError):
            eval_f(model, (1.0, 1.0, 1.0), (0.0,))
        with pytest.raises(ConfigurationError):
            eval_f(model, (1.0, 1.0), (0.0, 0.0))

    def test_nonvanishing_equilibrium_rejected(self):
        from etpf.model import SystemModel

        with pytest.raises(ConfigurationError):
            SystemModel(
                state_dim=1, f=lambda x, u: np.array([1.0 + x[0]]),
                K=lambda x: np.array([0.0]), L_f=1.0, L_K=1.0,
            )


class TestSolveLyapunov:
    def test_diagonal(self):
        P = solve_lyapunov(-np.eye(2), 2.0 * np.eye(2))
        np.testing.assert_allclose(P, np.eye(2), atol=1e-12)

    def test_example1_linearization(self):
        A_cl = np.array([[1.0, 1.0], [-6.0, -4.0]])
        P = solve_lyapunov(A_cl, np.eye(2))
        np.testing.assert_allclose(
            P, [[4.5, 5.0 / 6.0], [5.0 / 6.0, 1.0 / 3.0]], atol=1e-12
        )

    def test_residual_and_definiteness(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            M = rng.standard_normal((3, 3))
            A_cl = M - (np.abs(np.linalg.eigvals(M).real).max() + 0.5) * np.eye(3)
            Q = np.eye(3)
            P = solve_lyapunov(A_cl, Q)
            resid = A_cl.T @ P + P @ A_cl + Q
            assert np.max(np.abs(resid)) <= 1e-9 * (1.0 + spectral_norm(Q))
            assert np.linalg.eigvalsh(P)[0] > 0

    def test_non_hurwitz_rejected(self):
        with pytest.raises(NumericalError):
            solve_lyapunov(np.diag([1.0, -1.0]), np.eye(2))

    def test_asymmetric_q_rejected(self):
        with pytest.raises(ConfigurationError):
            solve_lyapunov(-np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestLinearCertificate:
    def _simple(self):
        # A_cl = -I with B = [0, 1]^T and Q = 2I gives P = I
        return LinearSystem(
            A=-np.eye(2), B=[[0.0], [1.0]], K_gain=[[0.0, 0.0]], Q=2.0 * np.eye(2)
        )

    def test_simple_forms(self):
        cert = linear_certificate(self._simple())
        # gamma(r) = (lam_min(Q)/2) r^2 = r^2; rho(r) = (2|PB|^2/lam_min(Q)) r^2 = r^2
        assert cert.gamma(3.0) == pytest.approx(9.0)
        assert cert.rho(3.0) == pytest.approx(9.0)
        assert cert.S(np.array([1.0, 2.0])) == pytest.approx(5.0)

    def test_class_k_at_zero(self):
        cert = linear_certificate(linear2d_system())
        assert cert.gamma(0.0) == 0.0
        assert cert.rho(0.0) == 0.0
        assert_class_k(cert)

    def test_inverse_roundtrip(self):
        cert = linear_certificate(linear2d_system())
        assert cert.rho_inv(cert.rho(3.0)) == pytest.approx(3.0, abs=1e-12)
        for r in np.logspace(-6, 6, 25):
            assert cert.rho_inv(cert.rho(r)) == pytest.approx(r, rel=1e-10)
            assert cert.gamma_inv(cert.gamma(r)) == pytest.approx(r, rel=1e-10)

    def test_sandwich_and_decay_property(self):
        sys = linear2d_system()
        cert = linear_certificate(sys)
        A_cl, B = sys.A_cl, sys.B
        rng = np.random.default_rng(1)
        for _ in range(1000):
            x = rng.uniform(-10, 10, size=2)
            w = rng.uniform(-10, 10, size=1)
            s = cert.S(x)
            r = np.linalg.norm(x)
            assert cert.alpha1(r) <= s + 1e-9
            assert s <= cert.alpha2(r) + 1e-9
            lie = cert.grad_S(x) @ (A_cl @ x + B @ w)
            assert lie <= -cert.gamma(r) + cert.rho(np.linalg.norm(w)) + 1e-9


class TestVerifyCertificate:
    def test_self_consistency(self):
        sys = linear2d_system()
        cert = linear_certificate(sys)
        model = sys.to_model()
        rng = np.random.default_rng(2)
        rep = verify_certificate(
            model, cert, rng.standard_normal((100, 2)), rng.standard_normal((10, 1))
        )
        assert rep.passed

    def test_corrupted_certificate_fails(self):
        sys = linear2d_system()
        good = linear_certificate(sys)
        bad = ISSCertificate(
            S=good.S, grad_S=good.grad_S, alpha1=good.alpha1, alpha2=good.alpha2,
            gamma=lambda r: 50.0 * good.gamma(r), rho=good.rho,
            gamma_inv=good.gamma_inv, rho_inv=good.rho_inv,
        )
        rng = np.random.default_rng(3)
        rep = verify_certificate(
            sys.to_model(), bad, rng.standard_normal((50, 2)),
            rng.standard_normal((5, 1)),
        )
        assert not rep.passed
        assert rep.max_decay_violation > 0

    def test_empty_samples_vacuous_pass(self):
        sys = linear2d_system()
        rep = verify_certificate(sys.to_model(), linear_certificate(sys), [], [])
        assert rep.passed
        assert rep.warnings
