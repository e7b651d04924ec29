import dataclasses
import math
import pickle

import numpy as np
import pytest

from etpf import presets
from etpf.exceptions import ConfigurationError, NumericalError
from etpf.model import (
    ISSCertificate,
    LinearSystem,
    eval_f,
    lift,
    linear_certificate,
    solve_lyapunov,
    spectral_norm,
    verify_certificate,
)
from etpf.presets import example1_model, linear2d_system

MULTI_INPUT = [
    pytest.param([[0.0, 1.0], [1.0, 0.0]], [[-1.0, -2.0]], id="two-columns-of-B"),
    pytest.param([[0.0], [1.0]], [[-1.0, -2.0], [0.0, -1.0]], id="two-rows-of-K"),
    pytest.param([[0.0, 1.0, 2.0]], [[-1.0, -2.0]], id="three-entries-of-B"),
]


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
        out = eval_f(model, (1.0, 1.0), 0.0)
        np.testing.assert_allclose(out, [2.0, math.tanh(1.0) + 1.0], atol=1e-12)

    def test_equilibrium(self):
        model = example1_model()
        np.testing.assert_allclose(eval_f(model, (0.0, 0.0), 0.0), [0.0, 0.0])

    def test_linear_hand_evaluation(self):
        sys = LinearSystem(
            A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]],
            K_gain=[[-1.0, -2.0]], Q=np.eye(2),
        )
        out = eval_f(sys.to_model(), (1.0, 0.0), 2.0)
        np.testing.assert_allclose(out, [0.0, 2.0])

    def test_dimension_mismatch(self):
        model = example1_model()
        with pytest.raises(ConfigurationError):
            eval_f(model, (1.0, 1.0, 1.0), 0.0)

    def test_nonvanishing_equilibrium_rejected(self):
        from etpf.model import SystemModel

        with pytest.raises(ConfigurationError):
            SystemModel(
                state_dim=1, f=lambda x, u: np.array([1.0 + x[0]]),
                K=lambda x: 0.0, L_f=1.0, L_K=1.0,
            )


class TestLinearModel:
    def test_model_pickles(self):
        model = linear2d_system().to_model()
        back = pickle.loads(pickle.dumps(model))
        x, u = np.array([0.3, -1.2]), 0.7
        assert back.f(x, u).tobytes() == model.f(x, u).tobytes()
        assert back.K(x).hex() == model.K(x).hex()
        assert (back.state_dim, back.L_f, back.L_K) == (
            model.state_dim, model.L_f, model.L_K)
        # the unpickled model is still the unpickled system's own
        assert back._linear is back.f.__self__

    def test_methods_give_the_lambdas_bits(self):
        sys = linear2d_system()
        A, B, K = sys.A, sys.B, sys.K_gain
        old_f, old_K = (lambda x, u: A @ x + B @ np.atleast_1d(u)), (lambda x: K @ x)
        model = sys.to_model()
        rng = np.random.default_rng(3)
        for _ in range(200):
            x = rng.standard_normal(2) * 10.0 ** rng.integers(-8, 8)
            u = rng.standard_normal(1)
            # the scalar-input methods against the one-column matrix forms
            assert model.f(x, float(u[0])).tobytes() == old_f(x, u).tobytes()
            assert model.K(x).hex() == old_K(x)[0].hex()

    @pytest.mark.parametrize("B, K", MULTI_INPUT)
    def test_multi_input_rejected(self, B, K):
        with pytest.raises(ConfigurationError, match="single-input"):
            LinearSystem(A=[[0.0, 1.0], [0.0, 0.0]], B=B, K_gain=K, Q=np.eye(2))

    def test_linear_marker(self):
        sys = linear2d_system()
        model = sys.to_model()
        assert model._linear is sys
        # a model built any other way, a replaced f included, is not the system's
        wrapped = dataclasses.replace(model, f=lambda x, u: sys.f(x, u))
        assert wrapped._linear is None
        assert example1_model()._linear is None


@pytest.mark.parametrize("name", ["example1", "example2", "example2-body", "linear2d"])
def test_preset_control_is_a_float(name):
    model = presets.get_preset(name).model
    x = np.array([0.3, -1.2])
    u = model.K(x)
    assert isinstance(u, float)
    for uu in (u, 0.7):
        fx = model.f(x, uu)
        assert fx.shape == (2,) and fx.dtype == np.float64


class TestLift:
    def test_rows_are_iterates(self):
        rng = np.random.default_rng(0)
        M = np.eye(2) + 1e-3 * rng.standard_normal((2, 2))
        G = lift(M, 50)
        np.testing.assert_array_equal(G[:2], np.hstack([M, np.eye(2)]))
        y, c = rng.standard_normal(2), rng.standard_normal(2)
        rows = (G @ np.concatenate([y, c])).reshape(50, 2)
        for i in range(50):
            y = M @ y + c
            np.testing.assert_allclose(rows[i], y, rtol=1e-13, atol=0)


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


    @pytest.mark.parametrize("make", [
        pytest.param(lambda: linear_certificate(linear2d_system()), id="linear_certificate"),
        pytest.param(lambda: presets.linear2d().cert, id="linear2d"),
        pytest.param(lambda: presets.example1().cert, id="example1"),
    ])
    def test_certificate_pickles(self, make):
        cert = make()
        back = pickle.loads(pickle.dumps(cert))
        rng = np.random.default_rng(11)
        X = rng.standard_normal((200, 2)) * 10.0 ** rng.integers(-8, 8, (200, 1))
        assert back.S(X).tobytes() == cert.S(X).tobytes()
        for x in X[:20]:
            assert float(back.S(x)).hex() == float(cert.S(x)).hex()
            assert back.grad_S(x).tobytes() == cert.grad_S(x).tobytes()
        for name in ("alpha1", "alpha2", "gamma", "rho", "gamma_inv", "rho_inv"):
            assert getattr(back, name)(2.5).hex() == getattr(cert, name)(2.5).hex(), name
        assert back.rho_quad_coeff.hex() == cert.rho_quad_coeff.hex()

    def test_S_rows_are_the_per_row_values(self):
        # rows in, one value per row, with the bits of the one-state call
        sys = linear2d_system()
        rng = np.random.default_rng(12)
        X = rng.standard_normal((500, 2)) * 10.0 ** rng.integers(-8, 8, (500, 2))
        want = [float(x @ sys.P @ x).hex() for x in X]
        assert [float(v).hex() for v in sys.S(X)] == want
        assert [float(sys.S(x)).hex() for x in X] == want


class TestVerifyCertificate:
    def test_self_consistency(self):
        sys = linear2d_system()
        cert = linear_certificate(sys)
        model = sys.to_model()
        rng = np.random.default_rng(2)
        rep = verify_certificate(
            model, cert, rng.standard_normal((100, 2)), rng.standard_normal(10)
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
            rng.standard_normal(5),
        )
        assert not rep.passed
        assert rep.max_decay_violation > 0

    def test_empty_samples_vacuous_pass(self):
        sys = linear2d_system()
        rep = verify_certificate(sys.to_model(), linear_certificate(sys), [], [])
        assert rep.passed
        assert rep.warnings
