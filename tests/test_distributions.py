"""Tests for the exponential-family factor algebra."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stmmap.distributions import (
    GaussianCanonical,
    GaussianMoment,
    InverseGammaFactor,
    NotADistribution,
    NotPSD,
    SingularMarginalization,
    _RANK_RTOL,
    _same_size,
    cholesky_flat,
    cholesky_psd,
    gauss_divide,
    gauss_marginalize,
    gauss_product,
    ig_divide,
    ig_expected_deviation,
    ig_product,
    kl_gaussian,
    solve_psd,
    unscented_transform,
)
from floatref import add_up, cholesky_small, forward3, forward_small, outcome, same_bits


def random_gaussian(rng, n):
    a = rng.normal(size=(n, n))
    sigma = a @ a.T + n * np.eye(n)
    mu = rng.normal(size=n)
    return GaussianMoment(mu, sigma).to_canonical()


class TestGaussianCanonical:
    def test_vacuous_is_zero(self):
        g = GaussianCanonical.vacuous(2)
        assert not any(g.t)
        assert not g.is_normalizable()
        assert not GaussianCanonical.vacuous(0).is_normalizable()

    def test_symmetrization_on_construction(self):
        omega = np.array([[2.0, 0.1], [0.1 + 1e-13, 2.0]])
        g = GaussianCanonical(np.zeros(2), omega)
        assert np.array_equal(g.omega, g.omega.T)

    def test_arrays_are_private_and_read_only(self):
        xi, omega = np.ones(2), np.eye(2)
        g = GaussianCanonical(xi, omega)
        mu, sigma = np.ones(2), np.eye(2)
        mom = GaussianMoment(mu, sigma)
        xi[0] = omega[0, 0] = mu[0] = sigma[0, 0] = 5.0
        for arr in (g.xi, mom.mu):
            np.testing.assert_array_equal(arr, [1.0, 1.0])
        for arr in (g.omega, mom.sigma):
            np.testing.assert_array_equal(arr, np.eye(2))
        for arr in (g.xi, g.omega, mom.mu, mom.sigma):
            assert arr.base is None  # owned, not a view of another array
            with pytest.raises(ValueError):
                arr[0] = 2.0

    def test_of_keeps_the_tuple(self):
        t = (1.0, 2.0, 3.0, 4.0, 5.0)
        g = GaussianCanonical.of(t, 2)
        assert g.t is t and g.n == 2
        np.testing.assert_array_equal(g.xi, [1.0, 2.0])
        np.testing.assert_array_equal(g.omega, [[3.0, 4.0], [4.0, 5.0]])

    def test_assigning_an_attribute_raises(self):
        g = GaussianCanonical(np.ones(2), np.eye(2))
        for name in ("n", "t", "xi", "other"):
            with pytest.raises(AttributeError):
                setattr(g, name, 0)
        assert g.n == 2 and g.t == (1.0, 1.0, 1.0, 0.0, 1.0)

    @pytest.mark.parametrize("n", range(5))
    def test_t_round_trips_through_xi_and_omega(self, n):
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, n))
        g = GaussianCanonical(rng.normal(size=n), a + a.T)
        assert g.xi.shape == (n,) and g.omega.shape == (n, n)
        back = GaussianCanonical(g.xi, g.omega)
        assert back.n == n and back.t == g.t
        assert len(g.t) == n + n * (n + 1) // 2

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**31), st.integers(1, 4))
    def test_product_and_divide_match_numpy_bits(self, seed, n):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-12, 12, size=2)
        g1, g2 = (random_gaussian(rng, n) for _ in range(2))
        g1, g2 = (GaussianCanonical(s * g.xi, s * g.omega) for s, g in zip(scale, (g1, g2)))
        for got, xi, omega in ((gauss_product(g1, g2), g1.xi + g2.xi, g1.omega + g2.omega),
                               (gauss_divide(g1, g2), g1.xi - g2.xi, g1.omega - g2.omega)):
            assert got.xi.tobytes() == xi.tobytes()
            assert got.omega.tobytes() == omega.tobytes()

    @pytest.mark.parametrize("xi, omega", [(np.zeros(2), np.eye(3)), (np.zeros(3), np.eye(3)[:2]),
                                           (np.zeros(1), np.ones(2))])
    def test_shape_mismatch_raises(self, xi, omega):
        with pytest.raises(ValueError, match="shape mismatch"):
            GaussianCanonical(xi, omega)

    @pytest.mark.parametrize("mu, sigma, match", [
        (np.zeros(2), np.eye(3), "shape"),
        (np.zeros(3), np.eye(2), "shape"),
        (np.zeros(2), np.diag([1.0, -1e-6]), "positive semidefinite"),
        (np.zeros(2), [[1.0, 2.0], [2.0, 1.0]], "positive semidefinite"),
        (np.zeros(2), [[math.nan, 0.0], [0.0, 1.0]], "finite"),
        ([math.nan], [[1.0]], "finite"),
        (np.zeros(2), [[math.inf, 0.0], [0.0, 1.0]], "finite"),
    ])
    def test_invalid_moment_form_raises(self, mu, sigma, match):
        with pytest.raises(ValueError, match=match):
            GaussianMoment(mu, sigma)

    def test_moment_form_accepts_a_semidefinite_covariance(self):
        # eigenvalues down to -1e-10 of the trace count as zero
        assert GaussianMoment(np.zeros(2), np.diag([1.0, -1e-11])).sigma[1, 1] == -1e-11

    def test_moment_round_trip(self):
        rng = np.random.default_rng(0)
        g = random_gaussian(rng, 3)
        mom = g.to_moments()
        back = mom.to_canonical().to_moments()
        np.testing.assert_allclose(back.mu, mom.mu, atol=1e-9)
        np.testing.assert_allclose(back.sigma, mom.sigma, atol=1e-9)


class TestGaussProduct:
    def test_vacuous_identity(self):
        rng = np.random.default_rng(1)
        g = random_gaussian(rng, 2)
        out = gauss_product(GaussianCanonical.vacuous(2), g)
        np.testing.assert_array_equal(out.xi, g.xi)
        np.testing.assert_array_equal(out.omega, g.omega)

    def test_1d_unit_variance_pair(self):
        # N(0,1) * N(2,1) has canonical parameters xi=2, omega=2
        g1 = GaussianMoment([0.0], [[1.0]]).to_canonical()
        g2 = GaussianMoment([2.0], [[1.0]]).to_canonical()
        out = gauss_product(g1, g2)
        np.testing.assert_allclose(out.xi, [2.0])
        np.testing.assert_allclose(out.omega, [[2.0]])
        mom = out.to_moments()
        np.testing.assert_allclose(mom.mu, [1.0])
        np.testing.assert_allclose(mom.sigma, [[0.5]])

    def test_density_product_on_grid(self):
        # product equals pointwise density product up to a constant
        rng = np.random.default_rng(2)
        g1 = random_gaussian(rng, 3)
        g2 = random_gaussian(rng, 3)
        prod = gauss_product(g1, g2)
        pts = np.stack(
            np.meshgrid(*[np.linspace(-1, 1, 5)] * 3), axis=-1
        ).reshape(-1, 3)
        log_ratio = [
            g1.log_density(x) + g2.log_density(x) - prod.log_density(x)
            for x in pts
        ]
        assert np.ptp(log_ratio) < 1e-9

    def test_embed_positions(self):
        rng = np.random.default_rng(3)
        big = random_gaussian(rng, 3)
        sub = random_gaussian(rng, 2)
        # embed places xi and omega at the given positions, zero elsewhere
        wide = sub.embed((2, 0), 3)
        np.testing.assert_array_equal(wide.xi[[2, 0]], sub.xi)
        np.testing.assert_array_equal(wide.omega[np.ix_([2, 0], [2, 0])], sub.omega)
        assert wide.xi[1] == 0.0
        assert not wide.omega[1].any() and not wide.omega[:, 1].any()
        with pytest.raises(ValueError):
            sub.embed((0,), 3)
        with pytest.raises(ValueError):
            sub.embed((1, 1), 3)
        # an embedded factor divides out and multiplies back in
        back = gauss_product(gauss_divide(big, wide), wide)
        np.testing.assert_allclose(back.xi, big.xi, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(back.omega, big.omega, rtol=1e-12, atol=1e-12)
        # marginals come back in the given position order
        mom = big.to_moments()
        for keep in ((2, 0), (1, 2, 0)):
            out = gauss_marginalize(big, keep).to_moments()
            np.testing.assert_allclose(out.mu, mom.mu[list(keep)], atol=1e-9)
            np.testing.assert_allclose(
                out.sigma, mom.sigma[np.ix_(keep, keep)], atol=1e-9
            )


class TestGaussDivide:
    def test_self_division_vacuous(self):
        rng = np.random.default_rng(3)
        g = random_gaussian(rng, 2)
        assert not any(gauss_divide(g, g).t)

    def test_group_inverse(self):
        rng = np.random.default_rng(4)
        g1 = random_gaussian(rng, 2)
        g2 = random_gaussian(rng, 2)
        out = gauss_divide(gauss_product(g1, g2), g2)
        np.testing.assert_allclose(out.xi, g1.xi, atol=1e-12)
        np.testing.assert_allclose(out.omega, g1.omega, atol=1e-12)

    def test_1d_subtraction(self):
        # N(1, 0.5) / N(2, 1) leaves canonical (xi=0, omega=1) = N(0, 1)
        g1 = GaussianMoment([1.0], [[0.5]]).to_canonical()
        g2 = GaussianMoment([2.0], [[1.0]]).to_canonical()
        out = gauss_divide(g1, g2)
        np.testing.assert_allclose(out.xi, [0.0], atol=1e-12)
        np.testing.assert_allclose(out.omega, [[1.0]], atol=1e-12)

    def test_scope_must_be_subset(self):
        g1 = GaussianCanonical.vacuous(1)
        g2 = GaussianCanonical.vacuous(2)
        with pytest.raises(ValueError):
            gauss_divide(g1, g2)
        with pytest.raises(ValueError):
            gauss_divide(g2, g1)
        with pytest.raises(ValueError):
            gauss_product(g1, g2)
        with pytest.raises(ValueError):
            kl_gaussian(g1, g2)


class TestGaussMarginalize:
    def test_marginalize_nothing_is_identity(self):
        rng = np.random.default_rng(5)
        g = random_gaussian(rng, 2)
        out = gauss_marginalize(g, (0, 1))
        np.testing.assert_array_equal(out.xi, g.xi)

    def test_block_diagonal(self):
        rng = np.random.default_rng(6)
        ga = random_gaussian(rng, 1)
        gb = random_gaussian(rng, 1)
        joint = gauss_product(ga.embed((0,), 2), gb.embed((1,), 2))
        out = gauss_marginalize(joint, (0,))
        np.testing.assert_allclose(out.xi, ga.xi, atol=1e-12)
        np.testing.assert_allclose(out.omega, ga.omega, atol=1e-12)

    def test_matches_covariance_submatrix(self):
        rng = np.random.default_rng(7)
        g = random_gaussian(rng, 3)
        mom = g.to_moments()
        out = gauss_marginalize(g, (0, 2)).to_moments()
        np.testing.assert_allclose(out.mu, mom.mu[[0, 2]], atol=1e-9)
        np.testing.assert_allclose(
            out.sigma, mom.sigma[np.ix_([0, 2], [0, 2])], atol=1e-9
        )

    def test_singular_discard_block(self):
        # an indefinite discarded block (legal in improper factors) cannot
        # be regularized away
        omega = np.array([[1.0, 0.0], [0.0, -1.0]])
        g = GaussianCanonical(np.zeros(2), omega)
        with pytest.raises(SingularMarginalization):
            gauss_marginalize(g, (0,))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1), (1, 1)])
    def test_non_finite_matrix_has_no_factor(self, value, where):
        # np.linalg.cholesky reads the lower triangle and returns NaN for NaN
        a = np.eye(2)
        a[where] = value
        with pytest.raises(SingularMarginalization):
            cholesky_psd(a)

    def test_vacuous_discard_block_is_vacuous(self):
        # discarding variables with no information yields a vacuous marginal
        g = GaussianCanonical(np.zeros(2), np.zeros((2, 2)))
        assert not any(gauss_marginalize(g, (0,)).t)


def reference_kl_gaussian(q: GaussianCanonical, p: GaussianCanonical) -> float:
    """Exclusive KL divergence KL(q || p) for normalizable Gaussians of one scope."""
    _same_size(q, p, "KL divergence")
    qm = q.to_moments()
    pm = p.to_moments()
    n = qm.dim
    d = pm.mu - qm.mu
    sp_inv_sq = solve_psd(pm.sigma, qm.sigma)
    maha = float(d @ solve_psd(pm.sigma, d))
    _, logdet_q = np.linalg.slogdet(qm.sigma)
    _, logdet_p = np.linalg.slogdet(pm.sigma)
    kl = 0.5 * (np.trace(sp_inv_sq) + maha - n + logdet_p - logdet_q)
    return max(float(kl), 0.0)


def conditioned_gaussian(rng, n, log_spread):
    """A Gaussian whose covariance eigenvalues span 10**log_spread."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    sigma = (q * 10.0 ** rng.uniform(-log_spread / 2, log_spread / 2, n)) @ q.T
    return GaussianMoment(rng.normal(size=n), sigma).to_canonical()


class TestKLGaussian:
    def test_self_kl_zero(self):
        rng = np.random.default_rng(8)
        g = random_gaussian(rng, 2)
        assert kl_gaussian(g, g) < 1e-12

    def test_1d_unit_shift(self):
        q = GaussianMoment([0.0], [[1.0]]).to_canonical()
        p = GaussianMoment([1.0], [[1.0]]).to_canonical()
        assert kl_gaussian(q, p) == pytest.approx(0.5)

    def test_matches_quadrature(self):
        rng = np.random.default_rng(9)
        q = random_gaussian(rng, 2)
        p = random_gaussian(rng, 2)
        qm = q.to_moments()
        # grid wide enough to cover q's mass
        lo = qm.mu - 6 * np.sqrt(np.diag(qm.sigma))
        hi = qm.mu + 6 * np.sqrt(np.diag(qm.sigma))
        xs = np.linspace(lo[0], hi[0], 220)
        ys = np.linspace(lo[1], hi[1], 220)
        dx = (xs[1] - xs[0]) * (ys[1] - ys[0])
        total = 0.0
        for x in xs:
            pts = np.column_stack([np.full_like(ys, x), ys])
            lq = np.array([q.log_density(pt) for pt in pts])
            lp = np.array([p.log_density(pt) for pt in pts])
            total += float(np.sum(np.exp(lq) * (lq - lp))) * dx
        assert kl_gaussian(q, p) == pytest.approx(total, abs=1e-3)

    def test_takes_at_most_three_variables(self):
        g = GaussianMoment(np.zeros(4), np.eye(4)).to_canonical()
        with pytest.raises(ValueError):
            kl_gaussian(g, g)
        with pytest.raises(ValueError):
            g.is_normalizable()
        with pytest.raises(ValueError):
            g.to_moments()

    def test_rejects_improper(self):
        g = GaussianCanonical.vacuous(1)
        p = GaussianMoment([0.0], [[1.0]]).to_canonical()
        with pytest.raises(NotADistribution):
            kl_gaussian(g, p)

    @pytest.mark.parametrize("omega", [np.diag([1.0, -1.0]), np.diag([2.0, 0.0]),
                                       np.array([[1.0, 2.0], [2.0, 1.0]])])
    def test_rejects_indefinite_either_side(self, omega):
        bad = GaussianCanonical(np.ones(2), omega)
        good = GaussianMoment([0.0, 1.0], np.eye(2)).to_canonical()
        for q, p in ((bad, good), (good, bad)):
            with pytest.raises(NotADistribution):
                kl_gaussian(q, p)

    @given(
        n=st.integers(1, 3),
        log_spread=st.floats(0, 6),
        shift=st.floats(0, 1),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_moment_form_reference(self, n, log_spread, shift, seed):
        # shift = 1 gives independent pairs, small shifts nearly equal ones;
        # a KL is a difference of O(n) terms, so both forms round absolutely
        # by about eps times the condition number (up to 1e6 here)
        rng = np.random.default_rng(seed)
        q = conditioned_gaussian(rng, n, log_spread)
        p = conditioned_gaussian(rng, n, log_spread)
        p = GaussianCanonical(q.xi + shift * (p.xi - q.xi), q.omega + shift * (p.omega - q.omega))
        ref = reference_kl_gaussian(q, p)
        assert kl_gaussian(q, p) == pytest.approx(ref, rel=1e-9, abs=1e-10)

    @given(
        mu1=st.floats(-3, 3),
        mu2=st.floats(-3, 3),
        v1=st.floats(0.1, 5),
        v2=st.floats(0.1, 5),
    )
    @settings(max_examples=50, deadline=None)
    def test_nonnegative(self, mu1, mu2, v1, v2):
        q = GaussianMoment([mu1], [[v1]]).to_canonical()
        p = GaussianMoment([mu2], [[v2]]).to_canonical()
        assert kl_gaussian(q, p) >= 0.0


def reference_kl_loop(q: GaussianCanonical, p: GaussianCanonical) -> float:
    """`kl_gaussian` by the `cholesky_small` and `forward_small` loops, any
    size: the steps its 1- to 3-variable forms unroll."""
    n = q.n
    lq, lp = (cholesky_small(g.rows(), range(n), _RANK_RTOL) for g in (q, p))
    if not (lq and lp):
        raise NotADistribution("information matrix is not positive definite")
    cols = [forward_small(lq, [row[j] if j < len(row) else 0.0 for row in lp]) for j in range(n)]
    y_q, y_p = forward_small(lq, q.t[:n]), forward_small(lp, p.t[:n])
    d = [y_p[j] - add_up(m * y for m, y in zip(col, y_q)) for j, col in enumerate(cols)]
    log_det_ratio = 2.0 * add_up(math.log(lq[i][i] / lp[i][i]) for i in range(n))
    kl = 0.5 * (add_up(m * m for col in cols for m in col) + add_up(e * e for e in d) - n + log_det_ratio)
    return max(kl, 0.0)


KERNEL_KINDS = ["proper", "rank_one", "near_singular", "indefinite", "sparse", "infinite_xi"]


def drawn_t(rng, n, kind):
    """The t of an n-variable factor of the given kind, built in floats."""
    if kind == "rank_one":  # w F F^T and w gamma F, as a height message builds it
        f, w, g = rng.normal(size=n).tolist(), 10.0 ** rng.uniform(-3, 14), rng.normal()
        return (*(w * g * a for a in f), *(w * f[i] * f[j] for i in range(n) for j in range(i, n)))
    if kind == "sparse":  # zeros of either sign, off the diagonal and in xi
        pick = [0.0, -0.0, 0.0, -0.0, rng.normal()]
        xi = [pick[k] for k in rng.integers(0, 5, n)]
        return (*xi, *(abs(rng.normal()) + 0.1 if i == j else pick[rng.integers(0, 5)] * 0.1
                       for i in range(n) for j in range(i, n)))
    eig = 10.0 ** rng.uniform(0, 8, n)
    if kind == "near_singular":  # one eigenvalue within 1e-17..1e-12 of the largest
        eig[0] = eig.max() * 10.0 ** rng.uniform(-17, -12)
    if kind == "indefinite":
        eig[0] = -eig[0]
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    omega = (q * (10.0 ** rng.uniform(-8, 8) * eig)) @ q.T
    g = GaussianCanonical(rng.normal(size=n) * np.sqrt(abs(eig).max()), omega)
    if kind == "infinite_xi":
        k = rng.integers(0, n)
        return (*g.t[:k], math.copysign(math.inf, rng.normal()), *g.t[k + 1:])
    return g.t


class TestUnrolledKernels:
    """`cholesky_flat`, `forward3` and `kl_gaussian` against the loops they
    unroll, bit for bit, signed zeros included."""

    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(KERNEL_KINDS),
           rtol=st.sampled_from([0.0, _RANK_RTOL]))
    @settings(max_examples=400, deadline=None)
    def test_factors_match_the_loop(self, seed, kind, rtol):
        rng = np.random.default_rng(seed)
        t = drawn_t(rng, 3, kind)
        rows = GaussianCanonical.of(t, 3).rows()
        want = cholesky_small(rows, range(3), rtol)
        got = cholesky_flat(t[3:], rtol)
        assert (got is None) == (want is None)
        if want is not None:
            assert same_bits(got, [x for row in want for x in row])
            for v in (t[:3], [0.0, -0.0, rng.normal()], [-0.0, 0.0, -0.0]):
                assert same_bits(forward3(got, v), forward_small(want, v))
        for d in itertools.chain.from_iterable(itertools.permutations(range(3), k) for k in (1, 2)):
            want = cholesky_small(rows, d, rtol)
            got = cholesky_flat([rows[i][j] for k, i in enumerate(d) for j in d[k:]], rtol)
            assert (got is None) == (want is None)
            if want is not None:
                assert same_bits(got, [x for row in want for x in row])

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
           kinds=st.tuples(st.sampled_from(KERNEL_KINDS), st.sampled_from(KERNEL_KINDS + ["close"])))
    @settings(max_examples=600, deadline=None)
    def test_kl_matches_the_loop(self, seed, n, kinds):
        # rank-one, near-singular and indefinite factors are rejected alike
        rng = np.random.default_rng(seed)
        q = GaussianCanonical.of(drawn_t(rng, n, kinds[0]), n)
        if kinds[1] == "close":
            p = GaussianCanonical.of(tuple(x * (1.0 + 1e-9 * rng.normal()) for x in q.t), n)
        else:
            p = GaussianCanonical.of(drawn_t(rng, n, kinds[1]), n)
        for a, b in ((q, p), (p, q), (q, q)):
            got, want = outcome(kl_gaussian, a, b), outcome(reference_kl_loop, a, b)
            if isinstance(want, float):
                assert isinstance(got, float) and same_bits([got], [want])
            else:
                assert got is want
        if kinds[0] == "rank_one" and n > 1:
            assert outcome(kl_gaussian, q, p) is NotADistribution


class TestInverseGamma:
    def test_flat_identity(self):
        f = InverseGammaFactor(2.5, 1.5)
        out = ig_product(f, InverseGammaFactor(0.0, 0.0))
        assert out == f

    def test_measurement_message_sum(self):
        # two messages with exponent 1/2 and scales 1, 2 combine additively
        m1 = InverseGammaFactor(0.5, 1.0)
        m2 = InverseGammaFactor(0.5, 2.0)
        out = ig_product(m1, m2)
        assert out.exponent == pytest.approx(1.0)
        assert out.scale == pytest.approx(3.0)

    def test_density_product_pointwise(self):
        f1 = InverseGammaFactor.normalized(2.0, 1.0)
        f2 = InverseGammaFactor.normalized(3.0, 2.0)
        prod = ig_product(f1, f2)
        nus = np.linspace(0.1, 10.0, 25)
        # unnormalized log densities; the difference must be nu-independent
        def unnorm(f, nu):
            return -f.exponent * math.log(nu) - f.scale / nu

        diffs = [
            unnorm(f1, nu) + unnorm(f2, nu) - unnorm(prod, nu) for nu in nus
        ]
        assert np.ptp(diffs) < 1e-12

    def test_divide_inverts_product(self):
        f1 = InverseGammaFactor(1.5, 2.0)
        f2 = InverseGammaFactor(0.5, 1.0)
        assert ig_divide(ig_product(f1, f2), f2) == f1

    def test_expected_deviation_values(self):
        assert ig_expected_deviation(InverseGammaFactor.normalized(2, 6)) == 3
        assert ig_expected_deviation(InverseGammaFactor.normalized(1, 1)) == 1

    def test_expected_deviation_monte_carlo(self):
        # <1/nu>^-1 under IG(3, 2) is 2/3
        rng = np.random.default_rng(10)
        nus = 1.0 / rng.gamma(3.0, 1.0 / 2.0, size=400_000)
        mc = 1.0 / np.mean(1.0 / nus)
        assert mc == pytest.approx(
            ig_expected_deviation(InverseGammaFactor.normalized(3, 2)), rel=0.01
        )

    def test_expected_deviation_requires_normalizable(self):
        with pytest.raises(NotADistribution):
            ig_expected_deviation(InverseGammaFactor(0.5, 1.0))

    @pytest.mark.parametrize("read, factor, value", [
        pytest.param(InverseGammaFactor.mean, InverseGammaFactor(2.0, 1.0), None, id="mean-shape-1"),
        pytest.param(InverseGammaFactor.mean, InverseGammaFactor(2.5, 1.0), 2.0, id="mean-shape-1.5"),
        pytest.param(InverseGammaFactor.variance, InverseGammaFactor(3.0, 1.0), None, id="variance-shape-2"),
        pytest.param(InverseGammaFactor.variance, InverseGammaFactor(4.0, 2.0), 1.0, id="variance-shape-3"),
        pytest.param(lambda f: f.log_density(2.0), InverseGammaFactor(1.0, 1.0), None, id="density-shape-0"),
        pytest.param(lambda f: f.log_density(2.0), InverseGammaFactor(2.0, 0.0), None, id="density-scale-0"),
        pytest.param(lambda f: f.log_density(2.0), InverseGammaFactor(2.0, 1.0), -2.0 * math.log(2.0) - 0.5,
                     id="density-shape-1"),
    ])
    def test_reads_at_their_bounds(self, read, factor, value):
        """mean needs shape > 1, variance shape > 2, log_density a normalizable factor."""
        if value is None:
            with pytest.raises(NotADistribution):
                read(factor)
        else:
            assert read(factor) == pytest.approx(value)

    @pytest.mark.parametrize("shape, scale", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, -1.0),
                                              (math.nan, 1.0), (1.0, math.nan)])
    def test_normalized_needs_positive_parameters(self, shape, scale):
        with pytest.raises(NotADistribution):
            InverseGammaFactor.normalized(shape, scale)

    def test_normalized_convention(self):
        # normalized IG(a, b) stores exponent a + 1
        f = InverseGammaFactor.normalized(2.0, 3.0)
        assert f.exponent == 3.0
        assert f.shape == 2.0


class TestUnscentedTransform:
    def test_affine_exact(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(3, 3))
        c = rng.normal(size=3)
        g = random_gaussian(rng, 3).to_moments()
        out = unscented_transform(g, lambda x: a @ x + c)
        np.testing.assert_allclose(out.mu, a @ g.mu + c, atol=1e-9)
        np.testing.assert_allclose(out.sigma, a @ g.sigma @ a.T, atol=1e-9)

    def test_identity(self):
        rng = np.random.default_rng(12)
        g = random_gaussian(rng, 2).to_moments()
        out = unscented_transform(g, lambda x: x)
        np.testing.assert_allclose(out.mu, g.mu, atol=1e-9)
        np.testing.assert_allclose(out.sigma, g.sigma, atol=1e-9)

    def test_square_of_standard_normal(self):
        # x^2 under N(0,1) has mean 1, variance 2; UT approximates
        g = GaussianMoment([0.0], [[1.0]])
        out = unscented_transform(g, lambda x: x * x)
        assert out.mu[0] == pytest.approx(1.0, rel=0.1)
        assert out.sigma[0, 0] == pytest.approx(2.0, rel=0.1)

    def test_singular_covariance_has_no_square_root(self):
        g = GaussianMoment([0.0, 0.0], [[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(NotPSD):
            unscented_transform(g, lambda x: x)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_affine_exact_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        a = rng.normal(size=(n, n))
        c = rng.normal(size=n)
        m = rng.normal(size=(n, n))
        g = GaussianMoment(rng.normal(size=n), m @ m.T + n * np.eye(n))
        out = unscented_transform(g, lambda x: a @ x + c)
        np.testing.assert_allclose(out.mu, a @ g.mu + c, atol=1e-9)
        np.testing.assert_allclose(out.sigma, a @ g.sigma @ a.T, atol=1e-9)
