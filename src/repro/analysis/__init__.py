"""Analysis helpers: CDFs and time-series statistics."""

from repro.analysis.cdf import (
    cdf_knee,
    coverage_fraction,
    write_probability_cdf,
)
from repro.analysis.stats import (
    coefficient_of_variation,
    fraction_below,
    relative_swing,
    windowed_average,
)
from repro.analysis.wa_model import (
    lambert_w,
    wa_fifo_uniform,
    wa_for_config,
    wa_greedy_uniform,
)

__all__ = [
    "lambert_w",
    "wa_fifo_uniform",
    "wa_for_config",
    "wa_greedy_uniform",
    "write_probability_cdf",
    "coverage_fraction",
    "cdf_knee",
    "windowed_average",
    "coefficient_of_variation",
    "relative_swing",
    "fraction_below",
]
