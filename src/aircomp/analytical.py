"""Analytical MSE of over-the-air aggregation in the Poisson IoT cell.

Three formula variants are carried side by side.  The first two are the
paper's: its printed closed form and its own step-by-step derivation disagree
in the constant of the Marcum-Q-weighted radial integral.  Both multiply the
whole bracket by E[1/K; K >= 1]:

* "printed": constant +2, the closed form as published.
* "rederived": constant 0, obtained by expanding the capped/inverted branch
  split directly (the unit masses of the two branches cancel against the
  CDF/CCDF split).

The third is the expectation that the Monte Carlo estimator targets:

* "conditional": the "rederived" bracket conditioned on the device count,
  so only the noise term carries the inverse moment of K.

The Monte Carlo estimator adjudicates between them; criterion 3 names the
variant that matches, and `sweep`'s flag compares with "rederived" alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import NetworkParams
from .numerics import integrate, power_integral, refine_bracket
from .specfun import (RicianParams, marcum_q1, poisson_inverse_moment,
                      rician_pdf)

__all__ = [
    "PAPER_VARIANTS",
    "VARIANTS",
    "AnalyticBreakdown",
    "EtaBound",
    "EtaOptimum",
    "mse_analytic",
    "eta_upper_bound",
    "log_eta_grid",
    "optimize_eta",
    "radius_curve",
    "radius_grid",
    "rician_mean",
]

PAPER_VARIANTS = ("printed", "rederived")
VARIANTS = PAPER_VARIANTS + ("conditional",)

# (rel_tol, abs_tol) of the radial and the fading-axis quadratures
_RADIAL_TOL = (1e-8, 1e-14)
_FADING_TOL = (1e-9, 1e-15)

# The Rician density at v > c + 20 sigma carries ~1e-90 of the mass; integrals
# against it are truncated there.
_TAIL_SIGMAS = 20.0

# Lower end of every eta scan, in units of the noise power.
_ETA_FLOOR = 1e-6

# optimize_eta: the points of each scan, Brent's tolerance in ln eta, and the
# factor and count by which the search interval is inflated while the
# minimum sits on its top.
_ETA_POINTS = 64
_ETA_TOL = 1e-6
_SAFETY = 10.0
_MAX_EXTENSIONS = 3


@dataclass(frozen=True)
class AnalyticBreakdown:
    """The analytical MSE and the terms it combines.

    bracket is the integral over [1, R] that the variant's closed form
    multiplies by 2 pi lambda, with that variant's Marcum constant (+2 for
    "printed"); noise_term is w^2 / eta.  Neither depends on lambda.

    For "printed" and "rederived":
    total = k_factor * (2 pi lambda * bracket + noise_term)

    For "conditional", with mu = lambda pi R^2 the mean device count:
    total = 2 pi lambda * bracket / mu + k_factor * noise_term / (1 - exp(-mu))

    bracket, noise_term and total depend on eta: they are floats for a float
    eta and arrays, one entry per eta, for an eta array.
    """

    k_factor: float
    bracket: float | np.ndarray
    noise_term: float | np.ndarray
    total: float | np.ndarray


def _fading_cutoff(rp: RicianParams) -> float:
    return rp.c + _TAIL_SIGMAS * rp.sigma


def mse_analytic(params: NetworkParams, eta,
                 variant: str = "rederived") -> AnalyticBreakdown:
    """Evaluate the analytical MSE at denoising factor eta.

    eta is a float or a 1-D array; an array evaluates every eta in one pass,
    each of the two integrals below running as one lockstep integrate over
    all of them, with the same arithmetic per eta as a float eta.

    The capped-branch double integral over (r, v) is evaluated with the
    integration order swapped so the radial part is closed-form and a single
    adaptive quadrature over the fading magnitude remains; the Marcum-Q
    weighted term is one adaptive radial quadrature.

    The "conditional" variant is the mean of the per-realization MSE
    (sum_k (a_k - 1)^2 + w^2 / eta) / K over realizations with K >= 1, the
    quantity the Monte Carlo estimator averages.  Given K = k >= 1 the
    devices are iid uniform in the disc, so that mean is
    2 I / R^2 + (w^2 / eta) / k, with I the "rederived" bracket.  Averaging
    over K ~ Poisson(mu), mu = lambda pi R^2, conditioned on K >= 1 gives

        2 pi lambda I / mu + (w^2 / eta) E[1/K; K >= 1] / (1 - exp(-mu)).

    The [1, R] bracket leaves out the devices within 1 m, which the "clamp"
    Monte Carlo mode places at 1 m.  There the inverted branch is exact
    (a_k = 1), so what is left out is their capped-branch error, of order
    P(|h| <= sqrt(eta / p_max)) / R^2; on the acceptance density grid it is
    below 1e-8 relative, but not where sqrt(eta / p_max) is large next to
    the fading or R is small: at R = 1.5, lambda = 0.5 and 30 times the
    optimal eta it is 0.39 of the total, and this variant is not the clamp
    mode's mean there.  The "annulus" mode, which drops those devices, is
    not this variant's target.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    etas = np.asarray(eta, dtype=float)
    if etas.ndim > 1:
        raise ValueError("eta must be a float or a 1-D array")
    if not (etas > 0).all():
        raise ValueError("eta must be > 0")
    rp = params.rician()
    alpha, eps, r_max = params.alpha, params.epsilon, params.radius
    s = alpha * eps
    eta_1d = np.atleast_1d(etas)
    ratio = np.sqrt(params.p_max / eta_1d)  # sqrt(P_max / eta)
    v_hi = np.minimum(np.power(r_max, 0.5 * s) / ratio, _fading_cutoff(rp))

    # Both integrands take, besides their nodes, each node's eta index k.
    def capped_integrand(v, k):
        # v <= D(r)  <=>  r >= (v * ratio)^(2/s); at s = 0 (epsilon = 0) the
        # capping threshold is radius-independent and every r in [1, R] counts
        w = v * ratio[k]
        with np.errstate(over="ignore"):
            r_lo = np.clip(np.power(w, 2.0 / s), 1.0, r_max) if s > 0 else 1.0
        j1 = power_integral(r_lo, r_max, 1.0 - alpha)
        j2 = power_integral(r_lo, r_max, 1.0 - 0.5 * alpha)
        return rician_pdf(v, rp) * (w * w * j1 - 2.0 * w * j2)

    capped_term = integrate(capped_integrand, 0.0, v_hi, *_FADING_TOL)

    kappa = 2.0 if variant == "printed" else 0.0
    a_marcum = rp.c / rp.sigma

    ratio_sigma = ratio * rp.sigma

    def marcum_integrand(r, k):
        poly = np.power(r, s - alpha) - 2.0 * np.power(r, 0.5 * (s - alpha)) + kappa
        return poly * r * marcum_q1(a_marcum, np.power(r, 0.5 * s)
                                    / ratio_sigma[k])

    marcumq_term = integrate(marcum_integrand, 1.0, np.full(ratio.size, r_max),
                             *_RADIAL_TOL)

    bracket = capped_term + 0.5 * (r_max ** 2 - 1.0) + marcumq_term
    noise_term = params.noise_power / eta_1d
    mu = params.mean_count
    k_factor = poisson_inverse_moment(mu)
    misalignment = 2.0 * math.pi * params.density * bracket
    if variant == "conditional":
        total = misalignment / mu - k_factor * noise_term / math.expm1(-mu)
    else:
        total = k_factor * (misalignment + noise_term)
    if etas.ndim == 0:
        bracket, noise_term, total = (float(t[0]) for t in (bracket, noise_term, total))
    return AnalyticBreakdown(k_factor=k_factor, bracket=bracket,
                             noise_term=noise_term, total=total)


def rician_mean(params: NetworkParams) -> float:
    """E[|h|] by quadrature of v f(v)."""
    rp = params.rician()
    return integrate(lambda v, _: v * rician_pdf(v, rp),
                     0.0, _fading_cutoff(rp), *_FADING_TOL)


@dataclass(frozen=True)
class EtaBound:
    """Upper bound of the denoising-factor search interval.

    The capped-power moment appears in two mutually reciprocal printed
    readings; the safe bound takes the larger.  rician_mean_printed is the
    sqrt(pi/2) sigma value the published ratio uses; rician_mean gives the
    exact E[|h|].
    """

    value: float
    capped_moment_printed: float
    capped_moment_appendix: float
    ratio_moment: float
    rician_mean_printed: float


def eta_upper_bound(params: NetworkParams) -> EtaBound:
    """Maximum denoising factor bounding the search interval."""
    r_max, alpha, eps = params.radius, params.alpha, params.epsilon
    rp = params.rician()
    r_ratio = 3.0 * r_max ** 2 / (2.0 * (r_max ** 3 - 1.0))
    capped_printed = params.p_max * r_ratio ** (alpha * eps)
    capped_appendix = params.p_max * (1.0 / r_ratio) ** (alpha * eps)

    two_pi_lam = 2.0 * math.pi * params.density
    num = two_pi_lam * params.p_max * float(power_integral(1.0, r_max, 1.0 - alpha)) \
        + params.noise_power
    mean_printed = math.sqrt(math.pi / 2.0) * rp.sigma
    den = two_pi_lam * math.sqrt(params.p_max) \
        * float(power_integral(1.0, r_max, 1.0 - 0.5 * alpha)) * mean_printed
    ratio_moment = (num / den) ** 2

    return EtaBound(
        value=max(capped_printed, capped_appendix, ratio_moment),
        capped_moment_printed=capped_printed,
        capped_moment_appendix=capped_appendix,
        ratio_moment=ratio_moment,
        rician_mean_printed=mean_printed,
    )


@dataclass(frozen=True)
class EtaOptimum:
    eta: float
    mse: float
    search_hi: float   # after any safety inflation
    boundary: bool     # minimizer flagged an edge cell
    extended: bool     # search interval was inflated beyond the bound


def log_eta_grid(params: NetworkParams, eta_hi: float, n: int) -> np.ndarray:
    """n etas evenly spaced in ln eta, from 1e-6 * noise_power to eta_hi.

    The one eta scan: optimize_eta's search, eta-report's curve and the
    acceptance suite's dense-grid oracle all run on it.
    """
    eta_lo = _ETA_FLOOR * params.noise_power
    if not eta_lo < eta_hi < math.inf:
        raise ValueError(f"eta_hi must be finite and above {eta_lo!r}, "
                         f"got {eta_hi!r}")
    return np.exp(np.linspace(math.log(eta_lo), math.log(eta_hi), n))


def optimize_eta(params: NetworkParams, variant: str = "rederived") -> EtaOptimum:
    """Minimize the analytical MSE over the denoising factor.

    Searches log_eta_grid(params, eta_hat, 64): the scan is one mse_analytic
    call on the array of its etas, then Brent's method refines in ln eta.
    If the minimum lands on the upper edge the interval is inflated tenfold
    and scanned again (at most three times), and the result is flagged.
    """
    hi = eta_upper_bound(params).value

    def objective(eta):
        return mse_analytic(params, eta, variant).total

    for extensions in range(_MAX_EXTENSIONS + 1):
        if extensions:
            hi *= _SAFETY
        etas = log_eta_grid(params, hi, _ETA_POINTS)
        result = refine_bracket(objective, etas, objective(etas), _ETA_TOL)
        if result.edge != "high":
            break
    return EtaOptimum(eta=result.x_min, mse=result.g_min, search_hi=hi,
                      boundary=result.edge is not None, extended=extensions > 0)


def radius_grid(r_min: float, r_max: float) -> np.ndarray:
    """1 m steps from r_min, then r_max itself: the access-radius scan.

    A fractional span keeps its last, shorter step: 11 to 12.5 gives 11, 12
    and 12.5.
    """
    grid = np.arange(r_min, r_max, 1.0)
    return np.append(grid[grid < r_max - 1e-6], r_max)


def radius_curve(params: NetworkParams, radii, variant: str) -> np.ndarray:
    """The eta-optimized MSE at each access radius, params' radius replaced."""
    return np.array([optimize_eta(replace(params, radius=float(r)), variant).mse
                     for r in radii])
