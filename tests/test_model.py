import dataclasses
import math
import pickle

import numpy as np
import pytest
import scipy.linalg

from etpf import presets
from etpf.exceptions import ConfigurationError, NumericalError
from etpf.model import THETAS, LinearSystem, expm, lift, solve_lyapunov, spectral_norm
from etpf.presets import example1_model, linear2d_system

MULTI_INPUT = [
    pytest.param([[0.0, 1.0], [1.0, 0.0]], [[-1.0, -2.0]], id="two-columns-of-B"),
    pytest.param([[0.0], [1.0]], [[-1.0, -2.0], [0.0, -1.0]], id="two-rows-of-K"),
    pytest.param([[0.0, 1.0, 2.0]], [[-1.0, -2.0]], id="three-entries-of-B"),
]


class TestEvalF:
    """The plant vector field ``f``, evaluated by hand."""

    def test_example1_vector_field(self):
        model = example1_model()
        out = model.f((1.0, 1.0), 0.0)
        np.testing.assert_allclose(out, [2.0, math.tanh(1.0) + 1.0], atol=1e-12)

    def test_equilibrium(self):
        model = example1_model()
        assert model.f((0.0, 0.0), 0.0) == (0.0, 0.0)

    def test_linear_hand_evaluation(self):
        sys = LinearSystem(
            A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]],
            K_gain=[[-1.0, -2.0]], Q=np.eye(2),
        )
        out = sys.to_model().f((1.0, 0.0), 2.0)
        assert out == (0.0, 2.0)

    def test_nonvanishing_equilibrium_rejected(self):
        from etpf.model import SystemModel

        with pytest.raises(ConfigurationError, match="must vanish"):
            SystemModel(
                state_dim=1, f=lambda x, u: (1.0 + x[0],),
                K=lambda x: 0.0, L_f=1.0, L_K=1.0,
            )

    @pytest.mark.parametrize("f", [lambda x, u: np.zeros(2), lambda x, u: [0.0, 0.0],
                                   lambda x, u: (0.0,)], ids=["array", "list", "short"])
    def test_f_returns_a_tuple_of_the_state_dimension(self, f):
        from etpf.model import SystemModel

        with pytest.raises(ConfigurationError, match="tuple of 2 floats"):
            SystemModel(state_dim=2, f=f, K=lambda x: 0.0, L_f=1.0, L_K=1.0)


class TestLinearModel:
    def test_model_pickles(self):
        model = linear2d_system().to_model()
        back = pickle.loads(pickle.dumps(model))
        x, u = (0.3, -1.2), 0.7
        assert np.array(back.f(x, u)).tobytes() == np.array(model.f(x, u)).tobytes()
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
            # the scalar-input methods on a tuple against the one-column matrix forms
            xt = tuple(x.tolist())
            assert np.array(model.f(xt, float(u[0]))).tobytes() == old_f(x, u).tobytes()
            assert model.K(xt).hex() == old_K(x)[0].hex()

    @pytest.mark.parametrize("B, K", MULTI_INPUT)
    def test_multi_input_rejected(self, B, K):
        with pytest.raises(ConfigurationError, match="single-input"):
            LinearSystem(A=[[0.0, 1.0], [0.0, 0.0]], B=B, K_gain=K, Q=np.eye(2))

    @pytest.mark.parametrize("A, K, match", [
        ([[0.0, 1.0], [0.0, 0.0]], [[1.0, -2.0]], "does not stabilize"),  # A + B K unstable
        ([[0.0, 1.0]], [[-1.0]], "square"),
        ([[float("nan"), 1.0], [0.0, 0.0]], [[-1.0, -2.0]], "finite"),
    ])
    def test_invalid_system_is_a_configuration_error(self, A, K, match):
        with pytest.raises(ConfigurationError, match=match):
            LinearSystem(A=A, B=[[0.0], [1.0]][:len(A)], K_gain=K, Q=np.eye(len(A)))

    def test_linear_marker(self):
        sys = linear2d_system()
        model = sys.to_model()
        assert model._linear is sys
        # a model built any other way, a replaced f included, is not the system's
        wrapped = dataclasses.replace(model, f=lambda x, u: sys.f(x, u))
        assert wrapped._linear is None
        assert example1_model()._linear is None


# each preset's maps as they were on ndarray states: example2's cube is np.float64's power
_LIN = linear2d_system()
NDARRAY_MAPS = {
    "example1": (lambda x, u: np.array([x[0] + x[1], math.tanh(x[0]) + x[1] + u]),
                 lambda x: -6.0 * x[0] - 5.0 * x[1] - math.tanh(x[0])),
    "example2": (lambda x, u: np.array([x[0] + x[1], x[0] ** 3 + x[1] + u]),
                 lambda x: -6.0 * x[0] - 5.0 * x[1] - x[0] ** 3),
    "linear2d": (lambda x, u: _LIN.A @ x + _LIN.B[:, 0] * u, lambda x: (_LIN.K_gain @ x)[0]),
}


@pytest.mark.parametrize("name", ["example1", "example2", "example2-body", "linear2d"])
def test_preset_control_is_a_float(name):
    # f and K take a tuple of floats; f returns one and K a float, with the bits of the
    # ndarray formulas
    model = presets.get_preset(name).model
    old_f, old_K = NDARRAY_MAPS[name.removesuffix("-body")]
    rng = np.random.default_rng(11)
    for _ in range(2000):
        x = rng.standard_normal(2) * 10.0 ** rng.integers(-6, 4, size=2)
        xt, u = tuple(x.tolist()), float(rng.standard_normal())
        fx, ux = model.f(xt, u), model.K(xt)
        assert type(fx) is tuple and [type(v) for v in fx] == [float, float]
        assert type(ux) is float
        assert np.array(fx).tobytes() == old_f(x, u).tobytes()
        assert ux.hex() == float(old_K(x)).hex()


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


def normwise(R, W):
    """``|R - W|_1 / |W|_1`` of each slice."""
    return np.abs(R - W).sum(axis=1).max(axis=1) / np.abs(W).sum(axis=1).max(axis=1)


def slices(rng, m, norms):
    """Random m x m slices, one per entry of ``norms``, each scaled to that 1-norm."""
    M = rng.standard_normal((len(norms), m, m))
    return M * (np.asarray(norms) / np.abs(M).sum(axis=1).max(axis=1))[:, None, None]


class TestExpm:
    """The batched scaling-and-squaring Padé kernel (Higham 2005)."""

    @pytest.mark.parametrize("hi, tol", [(2.1, 1e-14), (100.0, 5e-11)],
                             ids=["unscaled", "scaled"])
    def test_matches_scipy(self, hi, tol):
        # up to theta_9 (2.098) and a little past it every slice is unscaled; past theta_13
        # (5.37) the slices are scaled by 2^-s and squared s times
        rng = np.random.default_rng(1)
        for m in range(1, 6):
            norms = np.concatenate([10.0 ** rng.uniform(-6, np.log10(hi), 400),
                                    [t for t in THETAS if t <= hi], [hi]])
            M = slices(rng, m, norms)
            assert normwise(expm(M), scipy.linalg.expm(M)).max() <= tol

    def test_nilpotent_linear_steps_are_the_cubic(self):
        # linear2d's augmented step matrices [[A d, I d], [0, 0]] are nilpotent: exp is the cubic
        sys = linear2d_system()
        d = np.concatenate([np.linspace(0.0, 10.0, 1001), 10.0 ** np.linspace(-8, 1, 200)])
        M = np.zeros((len(d), 4, 4))
        M[:, :2, :2], M[:, :2, 2:] = sys.A * d[:, None, None], np.eye(2) * d[:, None, None]
        cubic = np.eye(4) + M + M @ M / 2 + M @ M @ M / 6
        assert normwise(expm(M), cubic).max() <= 2e-15

    def test_the_delay_75_step_is_exact(self):
        # linear2d's pre-history step under a constant delay of 75: the finite series of the
        # nilpotent [[75 A, 75 I], [0, 0]] gives exp(75 A) and its integral without rounding
        M = np.zeros((1, 4, 4))
        M[0, :2, :2], M[0, :2, 2:] = linear2d_system().A * 75.0, np.eye(2) * 75.0
        want = np.eye(4)
        want[:2, :2], want[:2, 2:] = [[1.0, 75.0], [0.0, 1.0]], [[75.0, 2812.5], [0.0, 75.0]]
        assert expm(M)[0].tobytes() == want.tobytes()

    def test_a_nilpotent_slice_keeps_its_bits_in_a_mixed_stack(self):
        rng = np.random.default_rng(4)
        N = np.triu(rng.standard_normal((4, 4)), 1)
        M = np.concatenate([slices(rng, 4, [0.01, 3.0]), N[None], slices(rng, 4, [40.0])])
        R = expm(M)
        for j in range(len(M)):
            assert R[j].tobytes() == expm(M[j : j + 1])[0].tobytes()
        # the finite series, term by term in the kernel's order
        E = term = np.eye(4)
        for r in (1, 2, 3):
            E = E + (term := term @ N / r)
        assert R[2].tobytes() == E.tobytes()
        assert normwise(R, scipy.linalg.expm(M)).max() <= 5e-11  # the scaled tolerance above

    def test_zero_is_the_identity(self):
        # LinearPredictor's exact (I, 0) for the step key 0
        rng = np.random.default_rng(2)
        for m in range(1, 6):
            M = slices(rng, m, [0.0, 1.0, 0.0, 50.0])
            M[[0, 2]] = 0.0
            R = expm(M)
            assert R[[0, 2]].tobytes() == np.array([np.eye(m)] * 2).tobytes()

    def test_slice_bits_do_not_depend_on_the_stack(self):
        # the process-wide step memo keys a slice's result by its own bits alone
        rng = np.random.default_rng(3)
        norms = np.concatenate([[0.0], 10.0 ** rng.uniform(-4, 2.5, 300), THETAS])
        M = slices(rng, 4, norms)
        R = expm(M)
        for j in range(len(M)):
            assert R[j].tobytes() == expm(M[j : j + 1])[0].tobytes()
        perm = rng.permutation(len(M))
        assert expm(M[perm]).tobytes() == R[perm].tobytes()


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
    """The quadratic certificate of a ``LinearSystem``: S(x) = x^T P x,
    gamma(r) = (lam_min(Q)/2) r^2 and rho(r) = c_rho r^2 with c_rho = 2|PB|^2/lam_min(Q)."""

    def _simple(self):
        # A_cl = -I with B = [0, 1]^T and Q = 2I gives P = I
        return LinearSystem(
            A=-np.eye(2), B=[[0.0], [1.0]], K_gain=[[0.0, 0.0]], Q=2.0 * np.eye(2)
        )

    def test_simple_forms(self):
        sys = self._simple()
        # lam_min(Q)/2 = 1 and c_rho = 2|PB|^2/lam_min(Q) = 1
        assert sys.lam_min_Q / 2.0 == pytest.approx(1.0)
        assert 2.0 * sys.PB_norm ** 2 / sys.lam_min_Q == pytest.approx(1.0)
        assert sys.S(np.array([1.0, 2.0])) == pytest.approx(5.0)

    def test_sandwich_and_decay_property(self):
        # lam_min(P) |x|^2 <= S(x) <= lam_max(P) |x|^2 and
        # grad S(x) . (A_cl x + B w) <= -(lam_min(Q)/2) |x|^2 + c_rho |w|^2, grad S(x) = 2 P x
        sys = linear2d_system()
        A_cl, B, P = sys.A_cl, sys.B, sys.P
        half_q, c_rho = sys.lam_min_Q / 2.0, 2.0 * sys.PB_norm ** 2 / sys.lam_min_Q
        lam_min, lam_max = np.linalg.eigvalsh(P)[[0, -1]]
        rng = np.random.default_rng(1)
        for _ in range(1000):
            x = rng.uniform(-10, 10, size=2)
            w = rng.uniform(-10, 10, size=1)
            s = sys.S(x)
            r = np.linalg.norm(x)
            assert lam_min * r * r <= s + 1e-9
            assert s <= lam_max * r * r + 1e-9
            lie = 2.0 * (P @ x) @ (A_cl @ x + B @ w)
            assert lie <= -half_q * r * r + c_rho * float(w @ w) + 1e-9

    @pytest.mark.parametrize("make", [
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
        for name in ("lam_min_Q", "PB_norm", "lam_max_P"):
            assert getattr(back, name).hex() == getattr(cert, name).hex(), name

    def test_S_rows_are_the_per_row_values(self):
        # rows in, one value per row, with the bits of the one-state call
        sys = linear2d_system()
        rng = np.random.default_rng(12)
        X = rng.standard_normal((500, 2)) * 10.0 ** rng.integers(-8, 8, (500, 2))
        want = [float(x @ sys.P @ x).hex() for x in X]
        assert [float(v).hex() for v in sys.S(X)] == want
        assert [float(sys.S(x)).hex() for x in X] == want

