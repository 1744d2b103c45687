"""Level-excursion distributions of stationary Gaussian processes.

The package approximates the lengths of excursions above and below a
level u through the independent interval approximation driven by the
crossing-conditioned (Slepian) representation: the expected value of
the clipped crossing process is matched to a non-stationary binary
switch process, whose switching-time laws then admit an explicit
geometric-sum sampler.  A trajectory simulator (circulant embedding),
switch-process machinery with full Laplace-domain identities, and
survival-tail persistency fitting close the validation loop.
"""

__version__ = "0.2.0"

from .covmodel import CovarianceModel, diffusion_covariance, validate
from .clipped import arcsin_covariance, clipped_covariance
from .errors import (DomainError, EmptyExcursionSet, ExcursionError, FitError,
                     GridTooShort, MonotonicityViolation, NumericalError,
                     ValidationError)
from .gpsim import (ExcursionSet, Trajectory, extract_excursions,
                    persistency_from_trajectories, rice_crossing_rate,
                    simulate_gp, simulate_gp_batch, simulate_gp_spectral)
from .iia import IIAModel, build_iia, psi_hat, sample_excursion
from .numerics import (Grid, LaplaceEvaluable, TailModel, b_integral,
                       fit_exponential_tail, gaver_stehfest_invert,
                       inverse_cdf_sample, norm_cdf, numerical_laplace)
from .persistency import (BatchEstimate, SurvivalFit, batch_ci,
                          empirical_survival, fit_persistency)
from .slepian import (SlepianPath, conditional_expected_clipped,
                      expected_clipped_down, expected_clipped_up,
                      sample_slepian_path)
from .switchproc import (CharacteristicEstimate, IntervalDistribution,
                         SwitchPath, deterministic_interval, erlang_interval,
                         estimate_characteristics, exponential_interval,
                         interval_from_spec, laplace_A_less, laplace_E_delta,
                         laplace_E_prime, laplace_N_greater, laplace_N_less,
                         laplace_P_delta, laplace_stationary_P,
                         laplace_stationary_cov, recover_psi,
                         simulate_stationary_switch, simulate_switch,
                         simulate_switch_paths, switch_count_distribution)
