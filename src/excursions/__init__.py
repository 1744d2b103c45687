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

Importing the package loads none of its modules.  Each public name is
imported from its submodule, the one whose ``__all__`` lists it, as in
``from excursions.iia import build_iia``.
"""

__version__ = "0.21.0"
