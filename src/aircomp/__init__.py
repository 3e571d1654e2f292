"""Over-the-air computation MSE analysis in Poisson cellular IoT networks."""

from .analytical import (AnalyticBreakdown, EtaBound, EtaOptimum,
                         eta_upper_bound, mse_analytic, optimize_eta)
from .model import NetworkParams, sample_ppp_chunks, transmit_power
from .montecarlo import (MseEstimate, estimate_mse, eta_star_realization,
                         realization_mse)
from .numerics import integrate
from .specfun import (RicianParams, bessel_i0e, marcum_q1,
                      poisson_inverse_moment, rician_pdf)

__version__ = "0.1.0"
