"""Level-excursion distributions of stationary Gaussian processes.

The package approximates the lengths of excursions above and below a
level u through the independent interval approximation driven by the
crossing-conditioned (Slepian) representation: the expected value of
the clipped crossing process is matched to a non-stationary binary
switch process, whose switching-time laws are geometric sums with a
renewal law that one FFT solves and one inverse-CDF draw per excursion
samples.  A trajectory simulator (circulant embedding) with crossing
extraction, switch-process machinery with full Laplace-domain
identities, and survival-tail persistency fitting close the validation
loop.  Simulated paths, whether trajectories or crossing-conditioned
samples, are plain arrays with one row per path.
"""

__version__ = "0.14.0"

from .covmodel import CovarianceModel, diffusion_covariance, validate
from .clipped import arcsin_covariance, clipped_covariance
from .errors import (DomainError, EmptyExcursionSet, ExcursionError, FitError,
                     GridTooShort, MonotonicityViolation, NumericalError,
                     ValidationError)
from .gpsim import (extract_excursions, persistency_from_trajectories,
                    rice_crossing_rate, simulate_gp_batch, simulate_gp_spectral)
from .iia import (IIAModel, build_iia, excursion_law, persistency_exponent,
                  persistency_table, psi_hat, sample_excursion)
from .numerics import (Grid, TailModel, b_integral, gaver_stehfest_invert,
                       inverse_cdf_sample, norm_cdf, numerical_laplace)
from .persistency import BatchEstimate, SurvivalFit, aggregate_fits, fit_persistency
from .slepian import (conditional_expected_clipped, expected_clipped_down,
                      expected_clipped_up, sample_slepian_path)
from .switchproc import (CharacteristicEstimate, IntervalDistribution,
                         SwitchPaths, deterministic_interval, erlang_interval,
                         estimate_characteristics, exponential_interval,
                         interval_from_spec, laplace_A_less, laplace_E_delta,
                         laplace_E_prime, laplace_N_greater, laplace_N_less,
                         laplace_P_delta, laplace_stationary_P,
                         laplace_stationary_cov, recover_psi,
                         simulate_switch_paths, switch_count_distribution)
