"""Exponential Levy models with analytic characteristic exponents.

The log-price process X satisfies E[exp(i xi X_t)] = exp(-t psi(xi)), where
psi(xi) = -i mu xi + phi(xi) extends holomorphically to the horizontal strip
lambda_minus < Im(xi) < lambda_plus and grows like c*|xi|**order along it.
The principal branches of phi continue psi holomorphically to the whole plane
but its cuts, the parts of the imaginary axis outside the strip, and Re psi
still grows inside each model's ``growth_cone``.  The horizontal contours of
this package live inside the strip; the sinh-deformed contours of the
one-condition digitals and the continuous Asian leave it, away from the
imaginary axis and inside the cone.  The risk-neutral drift mu is pinned by
the martingale condition r + psi(-i) = 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import InvalidModel, NoRoot, StripTooNarrow, StripViolation

# Brownian motion is regular of any exponential type; downstream strip checks
# still want finite bounds, so report a wide configurable proxy instead.
GAUSSIAN_STRIP_PROXY = 50.0

EMM_TOL = 1e-12

# The closed-form averages (1/xi) int_0^xi phi cancel as xi -> 0: they
# subtract O(1) terms to leave an O(xi) or O(xi**2) result, so their relative
# error grows like eps * (radius/|xi|)**2.  Below SERIES_RATIO times the
# Taylor radius (the distance to the nearest branch point) a series replaces
# them.  The series coefficients do not grow, so SERIES_TERMS terms leave a
# tail near SERIES_RATIO**SERIES_TERMS = 1.4e-17 relative to the first term.
SERIES_RATIO = 0.5
SERIES_TERMS = 56


def _gamma_fn(x):
    """``scipy.special.gamma``, imported on first use; ``math.gamma`` differs from it in the last bit."""
    from scipy.special import gamma
    return gamma(x)


def _power_series(coefs, t):
    """sum_k coefs[k-1] * t**k for k = 1..len(coefs), from the running products t**k."""
    return np.cumprod(np.repeat(t[:, None], len(coefs), axis=1), axis=1) @ np.asarray(coefs)


def _series_near_zero(x, radius, coefs, direct):
    """direct(x), with the series sum_k c[k-1] (x/radius)**k, c = coefs(),
    wherever |x| < SERIES_RATIO * radius."""
    near = np.abs(x) < SERIES_RATIO * radius
    if not near.any():
        return direct(x)
    out = np.empty_like(x)
    out[near] = _power_series(coefs(), x[near] / radius)
    out[~near] = direct(x[~near])
    return out


def _binomial_means(y: float) -> tuple:
    """binom(y, k) / (k + 1) for k = 1..SERIES_TERMS."""
    out, b = [], 1.0
    for k in range(1, SERIES_TERMS + 1):
        b *= (y - k + 1) / k
        out.append(b / (k + 1))
    return tuple(out)


def _power_mean(y: float, z):
    """(1/z) int_0^z ((1 + t)**y - 1) dt off the cut z <= -1, accurate near z = 0."""
    def direct(z):
        # (1+z)**y * (1+z): the rounding of a complex power grows with its exponent
        return (np.power(1.0 + z, y) * (1.0 + z) - 1.0) / ((y + 1.0) * z) - 1.0

    return _series_near_zero(z, 1.0, lambda: _binomial_means(y), direct)


@dataclass(frozen=True)
class LevyModel:
    """Base class: immutable, side-effect free, safe to share across threads."""

    mu: float
    r: float

    kind = "base"

    @property
    def strip(self) -> tuple[float, float]:
        raise NotImplementedError

    @property
    def order(self) -> float:
        raise NotImplementedError

    @property
    def decay_coefficient(self) -> float:
        """c such that Re psi(x) ~ c*|x|**order for large real x."""
        raise NotImplementedError

    @property
    def growth_cone(self) -> float:
        """Half-angle of the double cone |arg(+-zeta)| < angle in which Re psi(zeta) grows without bound.

        Off the strip psi is holomorphic except on its cuts (``check_cuts``),
        and inside this cone Re psi(zeta) ~ c |zeta|**order cos(order arg zeta)
        still grows, so a contour may bend out of the strip along it.
        """
        raise NotImplementedError

    @property
    def decay_shift(self) -> float:
        """Constant offset per unit time: Re psi(x) >= c*|x|**order - shift."""
        return 0.0

    @property
    def cumulants(self) -> tuple[float, float]:
        """(kappa_1, kappa_2): the mean and variance of X_1, drift included.

        They are the first two derivatives at 0 of the cumulant function
        kappa(u) = -psi(-iu) = log E[exp(u X_1)], computed once per model in
        closed form, without a psi call.
        """
        raise NotImplementedError

    def phi(self, xi):
        """Drift-free part of the exponent."""
        raise NotImplementedError

    def phi_average(self, xi):
        """(1/xi) int_0^xi phi(u) du in closed form; 0 at xi = 0.

        The segment [0, xi] from a point off the imaginary axis meets the
        axis only at 0, inside the strip, so the average continues off the
        strip as phi does, with the same cuts (``_AveragedModel``).
        """
        raise NotImplementedError

    def check_cuts(self, arr) -> None:
        """Raise StripViolation if a point of the complex array ``arr`` lies on a cut of psi.

        The cuts are the parts of the imaginary axis outside the open strip.
        Everywhere else the principal branches of ``phi`` continue psi
        holomorphically, so points off the strip but off the axis pass.  An
        array with no point on the axis costs one count of its nonzero real
        parts; one whose points all lie inside the strip, two reductions
        more.
        """
        if np.count_nonzero(arr.real) == arr.size:
            return
        lo, hi = self.strip
        im = arr.imag
        if lo < im.min() and im.max() < hi:
            return
        axis = im[arr.real == 0]
        if axis.min() <= lo or axis.max() >= hi:
            raise StripViolation(
                f"Im(xi) in [{axis.min():g}, {axis.max():g}] on the imaginary axis leaves the open strip "
                f"({lo:g}, {hi:g}) of the {self.kind} model: a branch cut"
            )

    def psi(self, xi):
        """Characteristic exponent; raises StripViolation on a cut (``check_cuts``)."""
        arr = np.asarray(xi, dtype=complex)
        self.check_cuts(arr)
        out = -1j * self.mu * arr + self.phi(arr)
        return complex(out) if arr.ndim == 0 else out

    def emm_residual(self) -> float:
        return abs(self.r + self.psi(-1j))


@dataclass(frozen=True)
class GaussianModel(LevyModel):
    sigma: float = 0.2
    strip_proxy: float = GAUSSIAN_STRIP_PROXY

    kind = "gaussian"

    def __post_init__(self):
        if self.sigma <= 0:
            raise InvalidModel(f"sigma must be positive, got {self.sigma}")
        if self.strip_proxy <= 1:
            raise InvalidModel("strip_proxy must exceed 1")
        object.__setattr__(self, "_cumulants", (self.mu, self.sigma**2))

    @property
    def strip(self):
        return (-self.strip_proxy, self.strip_proxy)

    @property
    def order(self):
        return 2.0

    @property
    def decay_coefficient(self):
        return 0.5 * self.sigma**2

    @property
    def growth_cone(self):
        # Re zeta**2 > 0
        return math.pi / 4

    @property
    def cumulants(self):
        return self._cumulants

    def phi(self, xi):
        return 0.5 * self.sigma**2 * xi * xi

    def phi_average(self, xi):
        return self.sigma**2 * xi * xi / 6.0


@dataclass(frozen=True)
class NIGModel(LevyModel):
    alpha: float = 8.0
    beta: float = -2.0
    delta: float = 0.3

    kind = "nig"

    def __post_init__(self):
        if not (self.alpha > 0 and abs(self.beta) < self.alpha and self.delta > 0):
            raise InvalidModel(
                f"need alpha > 0, |beta| < alpha, delta > 0; got "
                f"alpha={self.alpha}, beta={self.beta}, delta={self.delta}"
            )
        if self.beta - self.alpha >= -1:
            raise StripTooNarrow(
                f"lambda_minus = beta - alpha = {self.beta - self.alpha:g} >= -1: "
                "-i falls outside the strip"
            )
        gam = math.sqrt(self.alpha**2 - self.beta**2)
        object.__setattr__(self, "_cumulants", (self.mu + self.delta * self.beta / gam,
                                                self.delta * self.alpha**2 / gam**3))

    @property
    def strip(self):
        return (self.beta - self.alpha, self.beta + self.alpha)

    @property
    def order(self):
        return 1.0

    @property
    def decay_coefficient(self):
        return self.delta

    @property
    def growth_cone(self):
        # the radicand's root grows like +-(zeta - i beta): Re psi ~ delta |Re zeta|
        return math.pi / 2

    @property
    def cumulants(self):
        return self._cumulants

    @property
    def decay_shift(self):
        return self.delta * math.sqrt(self.alpha**2 - self.beta**2)

    def phi(self, xi):
        # The radicand meets the principal cut (-inf, 0] only on psi's cuts,
        # which ``psi`` rejects.
        root = self.alpha**2 - (self.beta + 1j * xi) ** 2
        return self.delta * (np.sqrt(root) - math.sqrt(self.alpha**2 - self.beta**2))

    def phi_average(self, xi):
        # phi(u) = delta*(S(u) - gamma) with S(u) = sqrt(v**2 + alpha**2),
        # v = u - i*beta, whose antiderivative is
        # (v*S + alpha**2*asinh(v/alpha))/2; asinh(v/alpha) = log(v + S) - log(alpha).
        xi = np.asarray(xi, dtype=complex)
        a, b = self.alpha, self.beta
        gam = math.sqrt(a * a - b * b)
        # Taylor radius: the branch points i*(beta -+ alpha) are the strip edges
        radius = a - abs(b)

        def direct(x):
            v = x - 1j * b
            s = np.sqrt(v * v + a * a)
            # (v S - v0 S0) / x with v0 = -i beta, S0 = gamma, free of cancellation;
            # Re(v + S) > 0, so log((v + S) / (v0 + S0)) is the difference of logs
            vs = s - 1j * b * (v - 1j * b) / (s + gam)
            return 0.5 * (vs + a * a * np.log((v + s) / (gam - 1j * b)) / x) - gam

        return self.delta * _series_near_zero(xi, radius, lambda: _nig_means(a, b, radius), direct)


@dataclass(frozen=True)
class CGMYModel(LevyModel):
    c: float = 1.0
    g: float = 5.0
    m: float = 5.0
    y: float = 0.5

    kind = "cgmy"

    def __post_init__(self):
        ok = self.c > 0 and self.g > 0 and self.m > 0
        ok = ok and 0 < self.y < 2 and self.y != 1.0
        if not ok:
            raise InvalidModel(
                "need c > 0, g > 0, m > 0 and activity y in ]0,1[ or ]1,2[; got "
                f"c={self.c}, g={self.g}, m={self.m}, y={self.y}"
            )
        if self.m <= 1:
            raise StripTooNarrow(
                f"lambda_minus = -m = {-self.m:g} >= -1: -i falls outside the strip"
            )
        # phi's constants, once per model: -c Gamma(-y), m**y and g**y
        object.__setattr__(self, "_scale", -self.c * _gamma_fn(-self.y))
        object.__setattr__(self, "_m_y", self.m**self.y)
        object.__setattr__(self, "_g_y", self.g**self.y)
        # the first two cumulants (``cumulants``), once per model
        object.__setattr__(self, "_cumulants", (
            self.mu + self.c * _gamma_fn(1.0 - self.y) * (self.m ** (self.y - 1.0) - self.g ** (self.y - 1.0)),
            self.c * _gamma_fn(2.0 - self.y) * (self.m ** (self.y - 2.0) + self.g ** (self.y - 2.0))))

    @property
    def strip(self):
        return (-self.m, self.g)

    @property
    def order(self):
        return self.y

    @property
    def decay_coefficient(self):
        return -2.0 * self.c * _gamma_fn(-self.y) * math.cos(math.pi * self.y / 2)

    @property
    def growth_cone(self):
        # (m - i zeta)**y + (g + i zeta)**y ~ 2 cos(pi y / 2) |zeta|**y e^{i y arg zeta}: cos(y arg zeta) > 0
        return math.pi / (2.0 * self.y)

    @property
    def cumulants(self):
        return self._cumulants

    @property
    def decay_shift(self):
        # the subtracted m^y + g^y constants delay the asymptotic decay
        return max(0.0, -self.c * _gamma_fn(-self.y) * (self.m**self.y + self.g**self.y))

    def phi(self, xi):
        """-c Gamma(-y) ((m - i xi)**y - m**y + (g + i xi)**y - g**y).

        Both powers come from one stacked base as exp(y log z): bit for bit
        ``np.power``, which takes the same route through the C library's
        cpow, at a lower cost per point.  -c Gamma(-y), m**y and g**y are
        computed once per model, in ``__post_init__``.  The bases meet the
        principal cut (-inf, 0] only on psi's cuts, which ``psi`` rejects.
        """
        base = np.empty((2, *np.shape(xi)), dtype=complex)
        base[0] = self.m - 1j * xi
        base[1] = self.g + 1j * xi
        np.log(base, out=base)
        base *= self.y
        powers = np.exp(base, out=base)
        return self._scale * (powers[0] - self._m_y + powers[1] - self._g_y)

    def phi_average(self, xi):
        # phi(u) = -c Gamma(-y) (m**y ((1 - iu/m)**y - 1) + g**y ((1 + iu/g)**y - 1))
        xi = np.asarray(xi, dtype=complex)
        c, g, m, y = self.c, self.g, self.m, self.y
        # Taylor radius: the branch points -i*m and i*g
        radius = min(m, g)

        def direct(x):
            return self._scale * (self._m_y * _power_mean(y, -1j * x / m)
                                  + self._g_y * _power_mean(y, 1j * x / g))

        # one series for both parts, so that their linear terms cancel
        # exactly when m == g
        return _series_near_zero(xi, radius, lambda: _cgmy_means(c, g, m, y, radius), direct)


@dataclass(frozen=True)
class _AveragedModel(LevyModel):
    """The mean of X over [0, t] as a model, built by ``of``: psi averaged, -i (mu / 2) xi + ``base.phi_average(xi)``.

    It has the base model's strip, cuts and growth cone
    (``LevyModel.phi_average``); the continuous Asian is a vanilla under it.
    """

    base: LevyModel

    kind = "averaged"

    @classmethod
    def of(cls, base: LevyModel) -> "_AveragedModel":
        return cls(0.5 * base.mu, base.r, base)

    @property
    def strip(self):
        return self.base.strip

    @property
    def growth_cone(self):
        return self.base.growth_cone

    def phi(self, xi):
        return self.base.phi_average(xi)


@lru_cache(maxsize=64)
def _nig_means(alpha: float, beta: float, radius: float) -> tuple:
    """Coefficients of t**k in the NIG average / delta, t = xi / radius; cached, so once per model.

    S**2 = gamma**2 - 2i beta R t + R**2 t**2 with R = radius, and the
    Taylor coefficients s_k of S follow from squaring the series.
    """
    gam = math.sqrt(alpha * alpha - beta * beta)
    sq = [gam * gam, -2j * beta * radius, radius * radius]
    s = [complex(gam)]
    for n in range(1, SERIES_TERMS + 1):
        conv = sum(s[k] * s[n - k] for k in range(1, n))
        s.append(((sq[n] if n < 3 else 0.0) - conv) / (2.0 * gam))
    return tuple(s[k] / (k + 1) for k in range(1, SERIES_TERMS + 1))


@lru_cache(maxsize=64)
def _cgmy_means(c: float, g: float, m: float, y: float, radius: float) -> tuple:
    """Coefficients of t**k in the CGMY average, t = xi / radius; cached, so once per model."""
    scale = -c * _gamma_fn(-y)
    zm, zg = -1j * radius / m, 1j * radius / g
    return tuple(scale * bk * (m**y * zm**k + g**y * zg**k)
                 for k, bk in enumerate(_binomial_means(y), start=1))


def _mean_corrected(probe: LevyModel) -> LevyModel:
    """``probe``, built with mu = 0 (which validates it), given the martingale drift r + phi(-i)."""
    model = replace(probe, mu=probe.r + float(probe.phi(-1j).real))
    _assert_emm(model)
    return model


def make_gaussian(sigma: float, r: float, strip_proxy: float = GAUSSIAN_STRIP_PROXY) -> GaussianModel:
    """Black-Scholes dynamics with the mean-correcting martingale drift."""
    return _mean_corrected(GaussianModel(mu=0.0, r=r, sigma=sigma, strip_proxy=strip_proxy))


def make_nig(alpha: float, beta: float, delta: float, r: float) -> NIGModel:
    """Normal inverse Gaussian model, mean-corrected to the pricing measure."""
    return _mean_corrected(NIGModel(mu=0.0, r=r, alpha=alpha, beta=beta, delta=delta))


def make_cgmy(c: float, g: float, m: float, y: float, r: float) -> CGMYModel:
    """CGMY model, mean-corrected; activity y in ]0,1[ or ]1,2[ and m > 1."""
    return _mean_corrected(CGMYModel(mu=0.0, r=r, c=c, g=g, m=m, y=y))


def make_model(kind: str, params: dict, r: float) -> LevyModel:
    """Generic constructor used by the JSON front end."""
    kind = kind.lower()
    if kind == "gaussian":
        return make_gaussian(params["sigma"], r, params.get("strip_proxy", GAUSSIAN_STRIP_PROXY))
    if kind == "nig":
        return make_nig(params["alpha"], params["beta"], params["delta"], r)
    if kind == "cgmy":
        return make_cgmy(params["c"], params["g"], params["m"], params["y"], r)
    raise InvalidModel(f"unknown model kind {kind!r}")


def _assert_emm(model: LevyModel) -> None:
    res = model.emm_residual()
    if res > EMM_TOL:
        raise InvalidModel(f"martingale residual {res:g} exceeds {EMM_TOL:g}")


def esscher_calibrate(historic: LevyModel, r: float) -> LevyModel:
    """Exponential-tilt change of measure to the martingale measure.

    Solves psi_P(-ih) - psi_P(-ih - i) = r for the tilt h, then returns the
    model whose exponent is psi_P(. - ih) - psi_P(-ih).  For each supported
    family the tilted process stays in the family: Gaussian keeps sigma and
    gains drift sigma^2 h, NIG shifts beta by h, CGMY shifts (g, m) by
    (+h, -h).  The historic model may carry any drift.
    """
    lo_strip, hi_strip = historic.strip
    lo, hi = -hi_strip, -lo_strip - 1.0  # both -ih and -ih-i must stay inside
    if not lo < hi:
        raise NoRoot("strip too narrow to tilt: no admissible h interval")
    pad = 1e-9 * (hi - lo)
    lo, hi = lo + pad, hi - pad

    def residual(h: float) -> float:
        return (historic.psi(-1j * h) - historic.psi(-1j * h - 1j)).real - r

    grid = np.linspace(lo, hi, 257)
    vals = np.array([residual(h) for h in grid])
    sign_change = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
    if vals[0] == 0.0:
        h_star = float(grid[0])
    elif len(sign_change) == 0:
        raise NoRoot("Esscher equation has no root inside the strip")
    else:
        from scipy.optimize import brentq

        k = int(sign_change[0])
        h_star = brentq(residual, grid[k], grid[k + 1], xtol=1e-14, rtol=8.9e-16)
    if abs(residual(h_star)) > EMM_TOL:
        raise NoRoot(f"Esscher residual {residual(h_star):g} above tolerance")

    if isinstance(historic, GaussianModel):
        tilted = GaussianModel(
            mu=historic.mu + historic.sigma**2 * h_star, r=r,
            sigma=historic.sigma, strip_proxy=historic.strip_proxy,
        )
    elif isinstance(historic, NIGModel):
        tilted = NIGModel(
            mu=historic.mu, r=r,
            alpha=historic.alpha, beta=historic.beta + h_star, delta=historic.delta,
        )
    elif isinstance(historic, CGMYModel):
        tilted = CGMYModel(
            mu=historic.mu, r=r,
            c=historic.c, g=historic.g + h_star, m=historic.m - h_star, y=historic.y,
        )
    else:
        raise InvalidModel(f"unsupported model type {type(historic).__name__}")
    _assert_emm(tilted)
    return tilted
