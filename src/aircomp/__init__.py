"""Over-the-air computation MSE analysis in Poisson cellular IoT networks."""

from .analytical import (AnalyticBreakdown, EtaBound, EtaOptimum,
                         eta_star_realization, eta_upper_bound, mse_analytic,
                         optimize_eta)
from .model import (NetworkParams, Realization, realization_rng, sample_fading,
                    sample_ppp_chunks, sample_ppp_disc, transmit_power)
from .montecarlo import (CampbellReport, MseEstimate, campbell_check,
                         estimate_mse, realization_mse)
from .numerics import QuadratureSpec, integrate, minimize_unimodal
from .specfun import (RicianParams, bessel_i0e, marcum_q1,
                      poisson_inverse_moment, rician_ccdf, rician_pdf)

__version__ = "0.1.0"
