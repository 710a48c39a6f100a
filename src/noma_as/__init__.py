"""Joint antenna selection for two-user MIMO-NOMA downlinks.

Seedable Rayleigh-fading link simulation, five low-complexity selection
policies with exhaustive-search references, closed-form high-SNR average
rates, and a Monte Carlo harness that validates the two against each other.
The policies are the entries of ``noma_as.selection.POLICIES``; they select
over stacked channel draws from ``sample_channel_batch``.
"""

from .analytics import (AnalyticConfig, AnalyticResult, EULER_GAMMA,
                        aia_strong_pdf, exp_integral_ei,
                        mcg_avg_secondary_rate, prob_h_ge_g,
                        a3_avg_sum_rate, aia_avg_sum_rate,
                        pu_avg_secondary_rate, quadrature_rate,
                        su_avg_secondary_rate)
from .channel import (FadingConfig, omega_from_distance, sample_channel_batch,
                      transmit_snr)
from .figures import figure_rows, reproduce_figure
from .harness import (ConfigurationError, RateReport, Scenario,
                      ValidationPoint, ValidationResult, apply_axis,
                      load_scenario, load_validation_grid, run_point,
                      run_trials, sweep, validate_asymptotics)
from .rates import (PowerSplit, RatePair, cr_power_split, cr_rates,
                    fnoma_pair_rates, fnoma_sum_rate, jain_fairness,
                    oma_pair_rates, qos_epsilon)

__version__ = "0.1.0"
