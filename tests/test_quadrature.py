"""Tests for moment-based quadrature construction."""
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from numpy.polynomial.hermite_e import hermegauss
from scipy.integrate import quad
from scipy.special import roots_genlaguerre

from randvol.errors import GramMatrixError, MomentOverflowError, ParameterDomainError, RowFailures
from randvol.quadrature import (
    FAMILIES,
    MAX_NQ,
    DiscreteGiven,
    Gamma,
    LogNormal,
    QuadratureRule,
    SpotLogNormal,
    check_domains,
    moments,
    quadrature_for,
    rule_rows,
)
from randvol.quadrature import _check_moment_reproduction, _jacobi, _recurrence, _weights_nodes

# The classical moment route (Hankel matrix of raw moments, Cholesky factor, recurrence coefficients): it serves
# arbitrary moment sequences, and it is the independent oracle for the closed-form recurrences of `quadrature_for`.
_PIVOT_RTOL = 1e-13


@dataclass(frozen=True)
class QuadratureWorkspace:
    """Intermediates of the moment factorization, exposed for validation."""

    gram: np.ndarray
    cholesky: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    jacobi: np.ndarray


def build_workspace(moment_values: np.ndarray, n_q: int) -> QuadratureWorkspace:
    """Gram matrix, Cholesky factor, recurrence coefficients and Jacobi matrix.

    The pivot test is relative to each row's own diagonal entry: moment
    sequences routinely span tens of orders of magnitude, and a tolerance
    tied to the largest diagonal entry would reject perfectly well
    conditioned matrices.
    """
    mom = np.asarray(moment_values, dtype=float)
    if n_q < 1:
        raise ValueError("n_q must be >= 1")
    if mom.size < 2 * n_q + 1:
        raise ValueError(f"need moments up to order {2 * n_q}, got {mom.size - 1}")
    if abs(mom[0] - 1.0) > 1e-12:
        raise ValueError(f"moment sequence must start with mu_0 = 1, got {mom[0]!r}")

    n = n_q + 1
    gram = np.empty((n, n))
    for i in range(n):
        gram[i, :] = mom[i : i + n]

    chol = np.zeros((n, n))
    for i in range(n):
        s = gram[i, i] - float(np.dot(chol[:i, i], chol[:i, i]))
        if s < _PIVOT_RTOL * gram[i, i]:
            if i == n - 1 and abs(s) <= _PIVOT_RTOL * gram[i, i]:
                # The last pivot is allowed to vanish: it corresponds to a
                # measure with exactly n_q atoms and is not used by the rule.
                s = 0.0
            else:
                raise GramMatrixError(
                    f"Cholesky pivot ratio {s / gram[i, i]:.3e} at row {i}: moment "
                    f"sequence inconsistent or n_q={n_q} too large for the "
                    "available moment precision"
                )
        chol[i, i] = math.sqrt(s)
        if i < n - 1:
            chol[i, i + 1 :] = (gram[i, i + 1 :] - chol[:i, i] @ chol[:i, i + 1 :]) / chol[i, i]

    alpha = np.empty(n_q)
    beta = np.empty(max(n_q - 1, 0))
    for j in range(n_q):
        alpha[j] = chol[j, j + 1] / chol[j, j]
        if j >= 1:
            alpha[j] -= chol[j - 1, j] / chol[j - 1, j - 1]
        if j < n_q - 1:
            beta[j] = (chol[j + 1, j + 1] / chol[j, j]) ** 2

    return QuadratureWorkspace(
        gram=gram, cholesky=chol, alpha=alpha, beta=beta, jacobi=_jacobi(alpha, beta)
    )


def golub_welsch(moment_values: np.ndarray, n_q: int) -> QuadratureRule:
    """Quadrature rule of size n_q matching the given raw moment sequence.

    The returned rule reproduces the input moments through order
    2*n_q - 1 to relative 1e-8; anything worse signals that the moment
    precision is exhausted and raises instead of returning a bad rule.
    """
    ws = build_workspace(moment_values, n_q)
    rule = QuadratureRule(*_weights_nodes(ws.jacobi))
    _check_moment_reproduction(rule.weights, rule.nodes, np.asarray(moment_values, dtype=float), n_q)
    return rule


def lognormal_moment_by_quadrature(mu, nu, order):
    """Independent oracle: numerically integrate x^order against the pdf."""
    def integrand(x):
        return x**order * math.exp(-((math.log(x) - mu) ** 2) / (2 * nu**2)) / (
            x * nu * math.sqrt(2 * math.pi)
        )

    upper = math.exp(mu + nu * (8 + 2 * order))
    value, err = quad(integrand, 0.0, upper, epsabs=1e-13, epsrel=1e-12, limit=400)
    return value


class TestMoments:
    def test_gamma_example(self):
        np.testing.assert_allclose(moments(Gamma(k=2, theta=0.5), 2), [1.0, 1.0, 1.5], rtol=1e-14)

    @pytest.mark.parametrize("k", [1e6, 1e8, 1e10])
    def test_gamma_large_k_matches_rising_factorial(self, k):
        # a gammaln difference cancels here: 2.5e-5 relative at k = 1e10
        with mp.workdps(40):
            exact = [float(mp.rf(mpf(k), i)) for i in range(5)]
        np.testing.assert_allclose(moments(Gamma(k, 1.0), 4), exact, rtol=1e-13)

    def test_lognormal_degenerate(self):
        np.testing.assert_allclose(moments(LogNormal(0.0, 0.0), 2), [1.0, 1.0, 1.0], rtol=0)

    def test_spot_lognormal_mean_pinned(self):
        np.testing.assert_allclose(moments(SpotLogNormal(100.0, 0.3), 1), [1.0, 100.0], rtol=1e-14)

    def test_lognormal_against_numerical_integration(self):
        mu, nu = 0.1, 0.25
        got = moments(LogNormal(mu, nu), 6)
        for i, value in enumerate(got):
            oracle = lognormal_moment_by_quadrature(mu, nu, i)
            np.testing.assert_allclose(value, oracle, rtol=1e-9)

    def test_discrete_moments(self):
        spec = DiscreteGiven(((0.25, 1.0), (0.75, 3.0)))
        np.testing.assert_allclose(moments(spec, 2), [1.0, 2.5, 7.0], rtol=1e-14)

    def test_overflow_reported(self):
        with pytest.raises(MomentOverflowError, match="moment overflow"):
            moments(LogNormal(0.0, 4.0), 20)


class TestGolubWelsch:
    def test_standard_normal_two_points(self):
        rule = golub_welsch(np.array([1.0, 0.0, 1.0, 0.0, 3.0]), 2)
        np.testing.assert_allclose(rule.nodes, [-1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(rule.weights, [0.5, 0.5], atol=1e-12)

    def test_symmetric_moments_higher_order(self):
        # odd moments are exactly zero; reconstruction residue at machine
        # epsilon must not trip the reproduction check
        mom = np.array([1.0, 0.0, 1.0, 0.0, 3.0, 0.0, 15.0, 0.0, 105.0])
        for n_q in (3, 4):
            rule = golub_welsch(mom[: 2 * n_q + 1], n_q)
            np.testing.assert_allclose(rule.nodes, -rule.nodes[::-1], atol=1e-10)
            for i in range(2 * n_q):
                assert abs(rule.moment(i) - mom[i]) < 1e-8 * max(1.0, abs(mom[i]))

    def test_single_point_at_mean(self):
        mom = moments(Gamma(2.3, 0.7), 2)
        rule = golub_welsch(mom, 1)
        np.testing.assert_allclose(rule.nodes, [mom[1]], rtol=1e-14)
        np.testing.assert_allclose(rule.weights, [1.0], rtol=0)

    def test_lognormal_moment_reproduction_vs_integration(self):
        nu = 0.25
        mom = np.array([lognormal_moment_by_quadrature(0.0, nu, i) for i in range(9)])
        mom[0] = 1.0
        rule = golub_welsch(mom, 4)
        for i in range(8):
            np.testing.assert_allclose(rule.moment(i), mom[i], rtol=1e-8)

    def test_discrete_roundtrip(self):
        weights = np.array([0.2, 0.5, 0.3])
        nodes = np.array([0.5, 1.1, 2.0])
        mom = np.array([float(np.dot(weights, nodes**i)) for i in range(7)])
        rule = golub_welsch(mom, 3)
        np.testing.assert_allclose(rule.nodes, nodes, rtol=1e-8)
        np.testing.assert_allclose(rule.weights, weights, rtol=1e-8)

    def test_workspace_invariants(self):
        mom = moments(LogNormal(0.0, 0.3), 8)
        ws = build_workspace(mom, 4)
        recon = ws.cholesky.T @ ws.cholesky
        np.testing.assert_allclose(recon, ws.gram, rtol=1e-10)
        np.testing.assert_allclose(ws.jacobi, ws.jacobi.T, rtol=0)
        assert np.all(ws.beta > 0)

    def test_inconsistent_moments_rejected(self):
        # moments of a 2-atom measure: any 3-point rule is over-determined
        spec = DiscreteGiven(((0.4, 1.0), (0.6, 2.0)))
        with pytest.raises(GramMatrixError):
            golub_welsch(moments(spec, 6), 3)

    def test_mu0_must_be_one(self):
        with pytest.raises(ValueError, match="mu_0"):
            golub_welsch(np.array([2.0, 0.0, 1.0]), 1)

    def test_too_few_moments(self):
        with pytest.raises(ValueError, match="order"):
            golub_welsch(np.array([1.0, 0.5]), 1)


class TestStackedRules:
    @pytest.mark.parametrize(
        "specs",
        [
            [Gamma(0.5, 1.2), Gamma(3.0, 0.5), Gamma(7.5, 0.1)],
            [LogNormal(-1.6, 0.05), LogNormal(0.0, 0.4), LogNormal(2.0, 0.9)],
            [SpotLogNormal(100.0, 0.02), SpotLogNormal(1496.45, 0.3)],
            [DiscreteGiven(((0.25, 1.0), (0.75, 2.0))), DiscreteGiven(((0.5, 0.1), (0.5, 0.3)))],
        ],
    )
    def test_rows_equal_single_rules(self, specs):
        stack = quadrature_for(specs, 5)
        assert stack.weights.shape == (len(specs), quadrature_for(specs[0], 5).size)
        for row, spec in enumerate(specs):
            single = quadrature_for(spec, 5)
            np.testing.assert_array_equal(stack.weights[row], single.weights)
            np.testing.assert_array_equal(stack.nodes[row], single.nodes)
        np.testing.assert_array_equal(stack.mean(), [quadrature_for(s, 5).mean() for s in specs])

    @pytest.mark.parametrize("n_q", [1, 2, 5, MAX_NQ])
    @pytest.mark.parametrize(
        "family,make",
        [
            ("gamma", lambda rng, size: {"k": np.exp(rng.uniform(-3.0, 3.0, size)),
                                         "theta": np.exp(rng.uniform(-4.0, 1.0, size))}),
            ("lognormal", lambda rng, size: {"mu": rng.uniform(-3.0, 1.0, size), "nu": rng.uniform(0.01, 0.6, size)}),
            ("spot-lognormal", lambda rng, size: {"s0": np.exp(rng.uniform(0.0, 8.0, size)),
                                                  "nu": rng.uniform(0.005, 0.6, size)}),
        ],
    )
    def test_columns_equal_specs(self, family, make, n_q):
        # the column core serves the spec API: the same rule, byte for byte, stacked and alone
        spec_type = {"gamma": Gamma, "lognormal": LogNormal, "spot-lognormal": SpotLogNormal}[family]
        columns = make(np.random.default_rng(n_q), 40)
        specs = [spec_type(*values) for values in zip(*columns.values())]
        stack = quadrature_for(columns, n_q, family=family)
        want = quadrature_for(specs, n_q)
        assert (stack.weights.tobytes(), stack.nodes.tobytes()) == (want.weights.tobytes(), want.nodes.tobytes())
        for row in (0, 17, 39):
            alone = quadrature_for({name: column[row] for name, column in columns.items()}, n_q, family=family)
            single = quadrature_for(specs[row], n_q)
            assert alone.weights.tobytes() == single.weights.tobytes()
            assert alone.nodes.tobytes() == single.nodes.tobytes()
            np.testing.assert_array_equal(stack.nodes[row], single.nodes)

    @pytest.mark.parametrize("n_q", [2, 4])
    @pytest.mark.parametrize("gamma", [0.4, 1.0, 3.0])
    def test_plain_sabr_embedding_builds(self, gamma, n_q):
        # gamma-gamma collapses to plain SABR at theta = 1e-8, k = gamma / theta
        rule = quadrature_for(Gamma(gamma / 1e-8, 1e-8), n_q)
        np.testing.assert_allclose(rule.mean(), gamma, rtol=1e-12)

    def test_tiny_k_row_fails_the_column_stack(self):
        with pytest.raises(GramMatrixError, match="reproduce moment"):
            quadrature_for({"k": np.array([3.0, 1e-9, 2.0]), "theta": np.array([0.5, 0.5, 0.7])}, 2, family="gamma")

    def test_failing_row_fails_the_stack(self):
        with pytest.raises(GramMatrixError, match="reproduce moment"):
            quadrature_for([LogNormal(0.0, 0.2), LogNormal(0.0, 2.0)], 6)

    @pytest.mark.parametrize(
        "specs",
        [
            [LogNormal(0.0, 0.2), LogNormal(0.0, 0.0)],
            [Gamma(3.0, 0.5), LogNormal(0.0, 0.2)],
            [DiscreteGiven(((1.0, 0.2),)), DiscreteGiven(((0.5, 0.1), (0.5, 0.3)))],
        ],
        ids=["nu-zero", "mixed-types", "ragged"],
    )
    def test_mixed_stack_rejected(self, specs):
        with pytest.raises(ValueError):
            quadrature_for(specs, 2)


# each parameter whose domain is "> 0 and finite": its family, its lone spec at a value, and a stack's good columns
FINITE_DOMAINS = {
    "k": ("gamma", lambda x: Gamma(x, 0.5), {"k": [3.0, 0.5, 7.5], "theta": [0.5, 1.2, 0.1]}),
    "theta": ("gamma", lambda x: Gamma(3.0, x), {"k": [3.0, 0.5, 7.5], "theta": [0.5, 1.2, 0.1]}),
    "s0": ("spot-lognormal", lambda x: SpotLogNormal(x, 0.1), {"s0": [100.0, 90.0, 1496.45], "nu": [0.02, 0.1, 0.3]}),
}


class TestInfiniteParameters:
    """Infinity fails the domain of k, theta and s0 by name, alone and as one row of a stack, instead of failing
    later as a moment overflow or a non-finite rule."""

    @pytest.mark.parametrize("name", sorted(FINITE_DOMAINS))
    def test_lone_spec_refused_by_name(self, name):
        with pytest.raises(ParameterDomainError, match=rf"^{name} must be > 0 and finite, got inf$"):
            FINITE_DOMAINS[name][1](math.inf)

    @pytest.mark.parametrize("n_q", [2, 5])
    @pytest.mark.parametrize("name", sorted(FINITE_DOMAINS))
    def test_stacked_row_marked_alone(self, name, n_q):
        family, _, good = FINITE_DOMAINS[name]
        spec_type, names = FAMILIES[family]
        columns = {key: np.array(values) for key, values in good.items()}
        columns[name][1] = math.inf
        # a stack's points meet their domain checks before their rules are built, as the calibrator's do
        failures = RowFailures(3)
        check_domains(columns, failures)
        weights, nodes = rule_rows(columns, n_q, family, failures)
        assert failures.bad.tolist() == [False, True, False]
        assert isinstance(failures.error, ParameterDomainError)
        assert str(failures.error) == f"{name} must be > 0 and finite, got inf"
        for row in (0, 2):
            lone = quadrature_for(spec_type(*(columns[key][row] for key in names)), n_q)
            assert weights[row].tobytes() == lone.weights.tobytes()
            assert nodes[row].tobytes() == lone.nodes.tobytes()
        with pytest.raises(ParameterDomainError, match=rf"^{name} must be > 0 and finite, got inf$"):
            check_domains(columns)


class TestQuadratureFor:
    def test_gamma_mean_matches_table_values(self):
        rule = quadrature_for(Gamma(k=1.775, theta=1.378), 2)
        np.testing.assert_allclose(rule.mean(), 1.775 * 1.378, atol=1e-10)

    def test_discrete_passthrough(self):
        spec = DiscreteGiven(((0.5, 90.0), (0.5, 110.0)))
        rule = quadrature_for(spec, 7)
        np.testing.assert_allclose(rule.weights, [0.5, 0.5], rtol=0)
        np.testing.assert_allclose(rule.nodes, [90.0, 110.0], rtol=0)

    def test_spot_lognormal_centered(self):
        rule = quadrature_for(SpotLogNormal(1496.45, 0.05), 2)
        np.testing.assert_allclose(rule.mean(), 1496.45, rtol=1e-8)

    def test_degenerate_nu_single_node(self):
        rule = quadrature_for(LogNormal(math.log(0.2), 0.0), 6)
        assert rule.size == 1
        np.testing.assert_allclose(rule.nodes, [0.2], rtol=1e-14)

    def test_nq_cap(self):
        with pytest.raises(ValueError, match="maximum"):
            quadrature_for(LogNormal(0.0, 0.2), MAX_NQ + 1)

    @pytest.mark.parametrize("make", [
        lambda: QuadratureRule([math.nan, math.nan], [0.1, 0.2]),
        lambda: QuadratureRule([0.5, 0.5], [0.1, math.inf]),
        lambda: DiscreteGiven(((0.5, math.nan), (0.5, 0.2))),
    ], ids=["nan-weights", "infinite-node", "discrete-nan-node"])
    def test_rule_must_be_finite(self, make):
        # NaN fails none of the sum, sign and order checks: it is refused by name
        with pytest.raises(ValueError, match="quadrature weights and nodes must be finite"):
            make()

    def test_weight_sum_named_as_a_float(self):
        with pytest.raises(ValueError, match=r"^quadrature weights must sum to 1, got 0\.5$"):
            quadrature_for(DiscreteGiven(((0.5, 90.0),)), 1)

    def test_discrete_shift_moves_nodes_exactly(self):
        base = DiscreteGiven(((0.3, 1.0), (0.7, 2.0)))
        shifted = DiscreteGiven(((0.3, 1.0 + 5.0), (0.7, 2.0 + 5.0)))
        rule = quadrature_for(base, 2)
        rule_shifted = quadrature_for(shifted, 2)
        np.testing.assert_array_equal(rule_shifted.nodes, rule.nodes + 5.0)

    @given(
        st.sampled_from(["lognormal", "gamma", "spot"]),
        st.floats(0.05, 0.6),
        st.floats(0.2, 5.0),
        st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_rule_invariants_property(self, family, shape_like, scale_like, n_q):
        if family == "lognormal":
            spec = LogNormal(mu=math.log(scale_like), nu=shape_like)
        elif family == "gamma":
            spec = Gamma(k=10.0 * shape_like, theta=scale_like)
        else:
            spec = SpotLogNormal(s0=100.0 * scale_like, nu=shape_like)
        rule = quadrature_for(spec, n_q)
        assert rule.size == n_q
        assert abs(rule.weights.sum() - 1.0) <= 1e-12
        assert np.all(rule.weights >= 0)
        assert np.all(np.diff(rule.nodes) > 0)
        mom = moments(spec, 2 * n_q)
        for i in range(2 * n_q):
            np.testing.assert_allclose(rule.moment(i), mom[i], rtol=1e-8)


def lognormal_nodes_by_stieltjes(nu, n_q, points=120):
    """Independent oracle: Gauss nodes of log X ~ N(0, nu^2) from the
    discretized Stieltjes procedure on a Gauss-Hermite rule in log X."""
    t, w = hermegauss(points)
    x = np.exp(nu * t)
    w = w / w.sum()
    alpha = np.empty(n_q)
    beta = np.empty(n_q - 1)
    p_prev, p = np.zeros(points), np.ones(points)
    norm_prev = 1.0
    for j in range(n_q):
        norm = np.dot(w, p * p)
        alpha[j] = np.dot(w, x * p * p) / norm
        if j:
            beta[j - 1] = norm / norm_prev
        p_prev, p = p, (x - alpha[j]) * p - (beta[j - 1] * p_prev if j else 0.0)
        norm_prev = norm
    off = np.sqrt(beta)
    return np.linalg.eigvalsh(np.diag(alpha) + np.diag(off, 1) + np.diag(off, -1))


class TestClosedFormRecurrences:
    # the Hankel route loses about a digit per order at k = 7.5, so it is
    # an oracle only up to n_q = 4 there
    @pytest.mark.parametrize(
        "unit,max_nq",
        [
            (Gamma(0.5, 1.0), 6),
            (Gamma(3.0, 1.0), 6),
            (Gamma(7.5, 1.0), 4),
            (LogNormal(0.0, 0.25), 6),
            (LogNormal(0.0, 0.4), 6),
            (LogNormal(0.0, 0.6), 6),
        ],
    )
    def test_match_hankel_route(self, unit, max_nq):
        for n_q in range(1, max_nq + 1):
            ws = build_workspace(moments(unit, 2 * n_q), n_q)
            if isinstance(unit, Gamma):
                alpha, beta = _recurrence(n_q, k=unit.k)
            else:
                alpha, beta = _recurrence(n_q, v=unit.nu**2)
            np.testing.assert_allclose(alpha, ws.alpha, rtol=1e-10)
            np.testing.assert_allclose(beta, ws.beta, rtol=1e-10)

    @pytest.mark.parametrize("k", [0.5, 1.775, 3.0, 7.5])
    def test_gamma_rule_matches_scipy_laguerre(self, k):
        theta = 0.7
        for n_q in range(1, MAX_NQ + 1):
            nodes, weights = roots_genlaguerre(n_q, k - 1.0)
            rule = quadrature_for(Gamma(k, theta), n_q)
            np.testing.assert_allclose(rule.nodes, theta * nodes, rtol=1e-12)
            np.testing.assert_allclose(rule.weights, weights / weights.sum(), rtol=1e-12)

    @pytest.mark.parametrize("nu", [0.05, 0.1])
    def test_small_nu_lognormal_nodes_match_stieltjes(self, nu):
        rule = quadrature_for(LogNormal(0.0, nu), 8)
        np.testing.assert_allclose(rule.nodes, lognormal_nodes_by_stieltjes(nu, 8), rtol=1e-12)

    def test_spot_rule_is_scaled_lognormal_rule(self):
        s0, nu = 1496.45, 0.3
        rule = quadrature_for(SpotLogNormal(s0, nu), 5)
        unit = quadrature_for(LogNormal(0.0, nu), 5)
        np.testing.assert_array_equal(rule.weights, unit.weights)
        np.testing.assert_allclose(rule.nodes, unit.nodes * s0 * math.exp(-0.5 * nu**2), rtol=1e-14)

    def test_large_nu_fails_loudly(self):
        with pytest.raises(MomentOverflowError):
            quadrature_for(LogNormal(0.0, 2.5), MAX_NQ)
        with pytest.raises(GramMatrixError, match="reproduce moment"):
            quadrature_for(LogNormal(0.0, 2.0), 6)
