"""Exponential-family factor algebra.

Gaussian factors are kept in canonical (information) form, where products
and divisions reduce to addition and subtraction of the natural parameters
(xi, omega). Inverse-gamma factors are kept as unnormalized exponent pairs
(exponent, scale) with density proportional to nu**(-exponent) * exp(-scale/nu),
so that message products are exactly exponent-additive; a normalized
inverse-gamma with shape a and scale b has exponent a + 1.

Factors created by division may be non-normalizable (indefinite information
matrix, non-positive exponent). These are legal intermediates; only terminal
belief queries require normalizability.

Scope rule: Gaussian factors are positional, without variable names; the
caller fixes which variable sits at which position. Products, quotients and
KL divergences take factors of equal size and work position by position;
`embed` places a factor at given positions of a larger scope and
`gauss_marginalize` keeps given positions in the given order. A Gaussian
factor keeps its natural parameters as one tuple of Python floats and builds
arrays only on read. Factors are immutable, so one factor object may have
many holders.

Map factors have at most three variables; there a Cholesky factor in Python
floats costs less than a LAPACK call. `cholesky_flat` is the unblocked
Cholesky step unrolled for one to three variables; it serves
`is_normalizable`. `kl_gaussian`, the map's sepset messages and its refits
write the same step and its forward solve out as straight-line floats; the
tests check each against the loops it unrolls, bit for bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache
from operator import add, sub
from typing import Callable, Sequence

import numpy as np

_JITTER_REL = 1e-12
# Pivots of a 3x3 rank-one matrix in floats stay within 3.4 eps of their
# diagonal entry (200,000 drawn w F F^T); `kl_gaussian` rejects below 16 eps.
_RANK_RTOL = 16 * sys.float_info.epsilon
_NOT_PD = "information matrix is not positive definite"


class NotADistribution(Exception):
    """Raised when a normalizable distribution is required but not available."""


class SingularMarginalization(Exception):
    """Raised when the information block being marginalized out is singular."""


class NotPSD(Exception):
    """Raised when a covariance square root fails."""


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def cholesky_flat(o, rtol: float = 0.0) -> tuple | None:
    """Lower Cholesky factor of a one- to three-variable symmetric matrix by the
    unblocked step in Python floats: o is the upper triangle by rows, the
    result the factor's rows run together; None unless positive definite with
    every pivot above rtol times its diagonal entry."""
    if not o[0] > 0.0 or o[0] <= rtol * o[0]:
        return None
    l00 = math.sqrt(o[0])
    if len(o) == 1:
        return (l00,)
    l10, o11 = o[1] / l00, o[2] if len(o) == 3 else o[3]
    s = o11 - l10 * l10
    if not s > 0.0 or s <= rtol * o11:
        return None
    if len(o) == 3:
        return l00, l10, math.sqrt(s)
    l11, l20 = math.sqrt(s), o[2] / l00
    l21 = (o[4] - l20 * l10) / l11
    s = o[5] - l20 * l20 - l21 * l21
    if not s > 0.0 or s <= rtol * o[5]:
        return None
    return l00, l10, l11, l20, l21, math.sqrt(s)


def cholesky_psd(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of symmetric PSD a, with a single jittered retry.

    The retry adds 1e-12 * trace / n to the diagonal, which resolves benign
    rank deficiency from floating-point cancellation without masking
    genuinely singular blocks. A matrix holding NaN or +-inf has no factor.
    """
    a = np.atleast_2d(a)
    if not np.isfinite(a).all():
        raise SingularMarginalization(f"non-finite {a.shape[0]}x{a.shape[0]} block")
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        n = a.shape[0]
        jitter = _JITTER_REL * max(abs(np.trace(a)), 1.0) / n
        try:
            return np.linalg.cholesky(a + jitter * np.eye(n))
        except np.linalg.LinAlgError as exc:
            raise SingularMarginalization(
                f"singular {n}x{n} block after regularization"
            ) from exc


def solve_psd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b for symmetric PSD a through `cholesky_psd`."""
    c = cholesky_psd(a)
    return np.linalg.solve(c.T, np.linalg.solve(c, b))


def inv_psd(a: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric PSD matrix via `solve_psd`."""
    return _symmetrize(solve_psd(a, np.eye(np.atleast_2d(a).shape[0])))


@cache
def upper_index(n: int) -> tuple:
    """Rows of the positions of omega's entries in an n-variable factor's t."""
    at = {rc: k for k, rc in enumerate(((r, c) for r in range(n) for c in range(r, n)), n)}
    return tuple(tuple(at[min(r, c), max(r, c)] for c in range(n)) for r in range(n))


@cache
def scatter_index(positions: tuple, n: int) -> tuple:
    """The position in an n-variable factor's t of each entry of the t of a
    factor placed at `positions` (see `GaussianCanonical.embed`)."""
    rows, m = upper_index(n), len(positions)
    return (*positions, *(rows[positions[i]][positions[j]] for i in range(m) for j in range(i, m)))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class GaussianCanonical:
    """Gaussian factor in canonical form over n positional variables.

    t holds the natural parameters as Python floats: the information vector
    xi, then the upper triangle of the information matrix omega by rows.
    `GaussianCanonical(xi, omega)` symmetrizes omega; `of` wraps a tuple the
    caller built. `xi` and `omega` return new read-only arrays. A factor is
    immutable; a vacuous factor has xi = 0 and omega = 0.
    """

    __slots__ = ("n", "t")

    def __init__(self, xi, omega):
        xi = np.asarray(xi, dtype=float).reshape(-1)
        omega = np.asarray(omega, dtype=float)
        n = xi.size
        if omega.shape != (n, n):
            raise ValueError(f"shape mismatch: xi {xi.shape}, omega {omega.shape}")
        t = (*map(float, xi), *map(float, _symmetrize(omega)[np.triu_indices(n)]))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "t", t)

    @classmethod
    def of(cls, t: tuple, n: int) -> "GaussianCanonical":
        """The n-variable factor that keeps t, laid out as above."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "t", t)
        return g

    def __setattr__(self, name, value):
        raise AttributeError(f"a GaussianCanonical is immutable: cannot set {name}")

    @classmethod
    def vacuous(cls, n: int) -> "GaussianCanonical":
        return cls.of((0.0,) * (n + n * (n + 1) // 2), n)

    @property
    def xi(self) -> np.ndarray:
        return _read_only(np.array(self.t[:self.n], dtype=float))

    @property
    def omega(self) -> np.ndarray:
        return _read_only(np.array(self.rows(), dtype=float).reshape(self.n, self.n).copy())

    def rows(self) -> list:
        """omega as a list of rows of floats."""
        return [[self.t[i] for i in row] for row in upper_index(self.n)]

    def is_normalizable(self) -> bool:
        """True when omega is positive definite (and there is a variable)."""
        if self.n > 3:
            raise ValueError(f"a factor of {self.n} variables; map factors have one to three")
        return self.n > 0 and cholesky_flat(self.t[self.n:]) is not None

    def embed(self, positions: Sequence[int], n: int) -> "GaussianCanonical":
        """This factor placed at `positions` of an n-variable scope, zero elsewhere."""
        idx = tuple(_positions(positions, n))
        if len(idx) != self.n:
            raise ValueError(f"{len(idx)} positions for a {self.n}-variable factor")
        t = list(GaussianCanonical.vacuous(n).t)
        for k, x in zip(scatter_index(idx, n), self.t):
            t[k] = x
        return GaussianCanonical.of(tuple(t), n)

    def to_moments(self) -> "GaussianMoment":
        if not self.is_normalizable():
            raise NotADistribution(_NOT_PD)
        sigma = inv_psd(self.omega)
        return GaussianMoment(sigma @ self.xi, sigma)

    def log_density(self, x: np.ndarray) -> float:
        """Normalized log density; requires a normalizable factor."""
        mom = self.to_moments()
        return mom.log_density(x)


@dataclass(frozen=True)
class GaussianMoment:
    """Gaussian in moment form (mean and covariance)."""

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float).reshape(-1).copy()
        sigma = _symmetrize(np.asarray(self.sigma, dtype=float))
        if sigma.shape != (mu.size, mu.size):
            raise ValueError("sigma shape does not match mu")
        if not (np.isfinite(mu).all() and np.isfinite(sigma).all()):
            raise ValueError("mu and sigma must be finite")
        eig_floor = -1e-10 * max(abs(np.trace(sigma)), 1.0)
        if not np.linalg.eigvalsh(sigma).min() >= eig_floor:
            raise ValueError("covariance is not positive semidefinite")
        object.__setattr__(self, "mu", _read_only(mu))
        object.__setattr__(self, "sigma", _read_only(sigma))

    @property
    def dim(self) -> int:
        return self.mu.size

    def to_canonical(self) -> GaussianCanonical:
        omega = inv_psd(self.sigma)
        return GaussianCanonical(omega @ self.mu, omega)

    def log_density(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float).reshape(-1)
        d = x - self.mu
        sign, logdet = np.linalg.slogdet(self.sigma)
        if sign <= 0:
            raise NotADistribution("covariance is singular")
        maha = float(d @ solve_psd(self.sigma, d))
        return -0.5 * (self.dim * math.log(2.0 * math.pi) + logdet + maha)


def _positions(positions: Sequence[int], n: int) -> list[int]:
    idx = [int(i) for i in positions]
    if len(set(idx)) != len(idx) or not all(0 <= i < n for i in idx):
        raise ValueError(f"positions {idx} are not distinct positions below {n}")
    return idx


def _same_size(g1: GaussianCanonical, g2: GaussianCanonical, op: str) -> None:
    if g1.n != g2.n:
        raise ValueError(f"{op} of factors over {g1.n} and {g2.n} variables")


def gauss_product(g1: GaussianCanonical, g2: GaussianCanonical) -> GaussianCanonical:
    """Product of Gaussian factors of one scope: natural-parameter addition."""
    _same_size(g1, g2, "product")
    return GaussianCanonical.of((*map(add, g1.t, g2.t),), g1.n)


def gauss_divide(g1: GaussianCanonical, g2: GaussianCanonical) -> GaussianCanonical:
    """Division of Gaussian factors of one scope: natural-parameter subtraction."""
    _same_size(g1, g2, "quotient")
    return GaussianCanonical.of((*map(sub, g1.t, g2.t),), g1.n)


def gauss_marginalize(g: GaussianCanonical, keep: Sequence[int]) -> GaussianCanonical:
    """Marginal over the positions `keep`, in that order, via the Schur
    complement of the discarded block."""
    ki = _positions(keep, g.n)
    di = [i for i in range(g.n) if i not in ki]
    if not di:
        return GaussianCanonical(g.xi[ki], g.omega[np.ix_(ki, ki)])
    okk = g.omega[np.ix_(ki, ki)]
    okd = g.omega[np.ix_(ki, di)]
    odd = g.omega[np.ix_(di, di)]
    sol_o = solve_psd(odd, okd.T)
    sol_x = solve_psd(odd, g.xi[di])
    omega = okk - okd @ sol_o
    xi = g.xi[ki] - okd @ sol_x
    return GaussianCanonical(xi, omega)


def kl_gaussian(q: GaussianCanonical, p: GaussianCanonical) -> float:
    """Exclusive KL divergence KL(q || p) for normalizable Gaussians of one scope.

    With omega = L L^T and y = L^-1 xi: tr(omega_p sigma_q) = |Lq^-1 Lp|_F^2,
    and the Mahalanobis term is |Lp^T (mu_p - mu_q)|^2 = |y_p - (Lq^-1 Lp)^T y_q|^2.
    A Cholesky pivot within rounding of its diagonal entry (_RANK_RTOL) makes
    a factor singular: rounding leaves some rank-one w F F^T a tiny pivot.
    Map factors have one to three variables. Each size is one straight-line
    block: both factors by `cholesky_flat`'s steps (a for q, b for p), the
    forward solves and the closed form, with the operations of the unblocked
    loops in the same order, so the result is the loops' to the bit; the
    0.0 * y terms keep the loops' NaNs. A pivot passes when it is > 0.0 and
    > _RANK_RTOL times its diagonal entry, `cholesky_flat`'s test (neither
    side can be NaN once the first holds); each step tests both factors.
    """
    n, x, z, r = q.n, q.t, p.t, _RANK_RTOL
    if n != p.n:
        _same_size(q, p, "KL divergence")
    if n == 3:
        if not (x[3] > 0.0 and x[3] > r * x[3] and z[3] > 0.0 and z[3] > r * z[3]):
            raise NotADistribution(_NOT_PD)
        a00, b00 = math.sqrt(x[3]), math.sqrt(z[3])
        a10, b10 = x[4] / a00, z[4] / b00
        sa, sb = x[6] - a10 * a10, z[6] - b10 * b10
        if not (sa > 0.0 and sa > r * x[6] and sb > 0.0 and sb > r * z[6]):
            raise NotADistribution(_NOT_PD)
        a11, b11, a20, b20 = math.sqrt(sa), math.sqrt(sb), x[5] / a00, z[5] / b00
        a21, b21 = (x[7] - a20 * a10) / a11, (z[7] - b20 * b10) / b11
        sa, sb = x[8] - a20 * a20 - a21 * a21, z[8] - b20 * b20 - b21 * b21
        if not (sa > 0.0 and sa > r * x[8] and sb > 0.0 and sb > r * z[8]):
            raise NotADistribution(_NOT_PD)
        a22, b22 = math.sqrt(sa), math.sqrt(sb)
        m00, m11, m22 = b00 / a00, b11 / a11, b22 / a22  # Lq^-1 Lp
        m10 = (b10 - a10 * m00) / a11
        m20, m21 = (b20 - a20 * m00 - a21 * m10) / a22, (b21 - a21 * m11) / a22
        yq0, yp0 = x[0] / a00, z[0] / b00
        yq1, yp1 = (x[1] - a10 * yq0) / a11, (z[1] - b10 * yp0) / b11
        yq2, yp2 = (x[2] - a20 * yq0 - a21 * yq1) / a22, (z[2] - b20 * yp0 - b21 * yp1) / b22
        d0 = yp0 - (m00 * yq0 + m10 * yq1 + m20 * yq2)
        d1 = yp1 - (0.0 * yq0 + m11 * yq1 + m21 * yq2)
        d2 = yp2 - (0.0 * yq0 + 0.0 * yq1 + m22 * yq2)
        log_det_ratio = 2.0 * (math.log(a00 / b00) + math.log(a11 / b11) + math.log(a22 / b22))
        kl = 0.5 * (m00 * m00 + m10 * m10 + m20 * m20 + m11 * m11 + m21 * m21 + m22 * m22
                    + (d0 * d0 + d1 * d1 + d2 * d2) - 3 + log_det_ratio)
    elif n == 2:
        if not (x[2] > 0.0 and x[2] > r * x[2] and z[2] > 0.0 and z[2] > r * z[2]):
            raise NotADistribution(_NOT_PD)
        a00, b00 = math.sqrt(x[2]), math.sqrt(z[2])
        a10, b10 = x[3] / a00, z[3] / b00
        sa, sb = x[4] - a10 * a10, z[4] - b10 * b10
        if not (sa > 0.0 and sa > r * x[4] and sb > 0.0 and sb > r * z[4]):
            raise NotADistribution(_NOT_PD)
        a11, b11 = math.sqrt(sa), math.sqrt(sb)
        m00, m11 = b00 / a00, b11 / a11
        m10 = (b10 - a10 * m00) / a11
        yq0, yp0 = x[0] / a00, z[0] / b00
        yq1, yp1 = (x[1] - a10 * yq0) / a11, (z[1] - b10 * yp0) / b11
        d0 = yp0 - (m00 * yq0 + m10 * yq1)
        d1 = yp1 - (0.0 * yq0 + m11 * yq1)
        log_det_ratio = 2.0 * (math.log(a00 / b00) + math.log(a11 / b11))
        kl = 0.5 * (m00 * m00 + m10 * m10 + m11 * m11 + (d0 * d0 + d1 * d1) - 2 + log_det_ratio)
    elif n == 1:
        if not (x[1] > 0.0 and x[1] > r * x[1] and z[1] > 0.0 and z[1] > r * z[1]):
            raise NotADistribution(_NOT_PD)
        a, b = math.sqrt(x[1]), math.sqrt(z[1])
        m = b / a
        d = z[0] / b - m * (x[0] / a)
        kl = 0.5 * (m * m + d * d - 1 + 2.0 * math.log(a / b))
    elif n == 0:
        raise NotADistribution("a factor of no variables has no density")
    else:
        raise ValueError(f"KL divergence of {n} variables; map factors have one to three")
    return max(kl, 0.0)


@dataclass(frozen=True)
class InverseGammaFactor:
    """Unnormalized inverse-gamma factor: density ~ nu**(-exponent) * exp(-scale/nu)."""

    exponent: float
    scale: float

    @classmethod
    def normalized(cls, shape: float, scale: float) -> "InverseGammaFactor":
        """Normalized inverse-gamma with the given shape a and scale b."""
        if not (shape > 0.0 and scale > 0.0):
            raise NotADistribution("inverse-gamma needs shape > 0 and scale > 0")
        return cls(shape + 1.0, scale)

    @property
    def shape(self) -> float:
        """Shape parameter a of the normalized interpretation (exponent - 1)."""
        return self.exponent - 1.0

    def is_normalizable(self) -> bool:
        return self.shape > 0.0 and self.scale > 0.0

    def log_density(self, nu: float) -> float:
        """Normalized log density at nu; requires normalizability."""
        if not self.is_normalizable():
            raise NotADistribution("inverse-gamma factor is not normalizable")
        a, b = self.shape, self.scale
        if nu <= 0.0:
            return -math.inf
        return a * math.log(b) - math.lgamma(a) - (a + 1.0) * math.log(nu) - b / nu

    def mean(self) -> float:
        if self.shape <= 1.0:
            raise NotADistribution("mean requires shape > 1")
        return self.scale / (self.shape - 1.0)

    def variance(self) -> float:
        a, b = self.shape, self.scale
        if a <= 2.0:
            raise NotADistribution("variance requires shape > 2")
        return b * b / ((a - 1.0) ** 2 * (a - 2.0))


def ig_product(f1: InverseGammaFactor, f2: InverseGammaFactor) -> InverseGammaFactor:
    return InverseGammaFactor(f1.exponent + f2.exponent, f1.scale + f2.scale)


def ig_divide(f1: InverseGammaFactor, f2: InverseGammaFactor) -> InverseGammaFactor:
    return InverseGammaFactor(f1.exponent - f2.exponent, f1.scale - f2.scale)


def ig_expected_deviation(belief: InverseGammaFactor) -> float:
    """Harmonic-mean deviation of a normalizable belief: <1/nu>^-1 = b / a."""
    if not belief.is_normalizable():
        raise NotADistribution("expected deviation requires a normalizable belief")
    return belief.scale / belief.shape


# Scaled sigma-point parameters: spread alpha and prior-knowledge beta (2 is
# optimal for a Gaussian); the secondary kappa is 0.
_UT_SPREAD = 1e-3
_UT_PRIOR_KNOWLEDGE = 2.0


def unscented_transform(
    g: GaussianMoment,
    f: Callable[[np.ndarray], np.ndarray],
) -> GaussianMoment:
    """Propagate a Gaussian through f using the scaled unscented transform.

    The output covariance is symmetrized and floored at positive semidefinite.
    """
    n = g.dim
    lam = _UT_SPREAD**2 * n - n
    try:
        root = np.linalg.cholesky((n + lam) * g.sigma)
    except np.linalg.LinAlgError as exc:
        raise NotPSD("covariance square root failed") from exc
    pts = np.empty((2 * n + 1, n))
    pts[0] = g.mu
    pts[1 : n + 1] = g.mu + root.T
    pts[n + 1 :] = g.mu - root.T
    ys = np.array([np.asarray(f(p), dtype=float).reshape(-1) for p in pts])
    wm = np.full(2 * n + 1, 0.5 / (n + lam))
    wc = wm.copy()
    wm[0] = lam / (n + lam)
    wc[0] = wm[0] + 1.0 - _UT_SPREAD**2 + _UT_PRIOR_KNOWLEDGE
    mean = wm @ ys
    d = ys - mean
    cov = _symmetrize(d.T @ (wc[:, None] * d))
    eigmin = np.linalg.eigvalsh(cov).min()
    if eigmin < 0.0:
        cov = cov + (-eigmin) * np.eye(cov.shape[0])
    return GaussianMoment(mean, cov)
