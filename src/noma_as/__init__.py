"""Joint antenna selection for two-user MIMO-NOMA downlinks.

Seedable Rayleigh-fading link simulation, five low-complexity selection
policies with exhaustive-search references, closed-form high-SNR average
rates, and a Monte Carlo harness that validates the two against each other.
The policies are the entries of ``noma_as.selection.POLICIES``; they select
over stacked channel draws from ``sample_channel_batch``.

The package's parallelism is its own process pool, and it makes no BLAS
call, so numpy is loaded with one OpenBLAS thread: an idle BLAS thread only
spins and competes with the workers.  An ``OPENBLAS_NUM_THREADS`` set by the
user wins, and the environment is restored after the import, so processes
started later are unaffected.
"""

import os as _os
import sys as _sys

if "numpy" not in _sys.modules and "OPENBLAS_NUM_THREADS" not in _os.environ:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .analytics import (EULER_GAMMA, mcg_avg_secondary_rate, prob_h_ge_g,
                        a3_avg_sum_rate, aia_avg_sum_rate,
                        pu_avg_secondary_rate, quadrature_rate,
                        su_avg_secondary_rate)
from .channel import FadingConfig, sample_channel_batch
from .figures import figure_rows, reproduce_figure
from .harness import (ConfigurationError, RateReport, Scenario,
                      ValidationPoint, ValidationResult, apply_axis,
                      load_scenario, load_validation_grid, run_point,
                      sweep, validate_asymptotics)
from .rates import (RatePair, cr_rates, fnoma_pair_rates, oma_pair_rates,
                    qos_epsilon)

__version__ = "0.1.0"
