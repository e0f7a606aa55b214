"""Container for stochastic (and exact) numerical results."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Estimate:
    """A numerical result with provenance.

    method is one of "exact", "monte-carlo", "time-average". std_error is 0
    for exact results, positive for Monte-Carlo ones, and for time averages
    the convergence diagnostic |value(t_max) - value(t_max/2)|, 0 once
    converged. value is a number, or an array for a matrix-valued average.
    """

    value: complex | float
    std_error: float
    n_samples: int
    seed: int | None = None
    method: str = "monte-carlo"

    def __post_init__(self):
        if self.method not in ("exact", "monte-carlo", "time-average"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.method != "time-average" and (self.std_error == 0.0) != (self.method == "exact"):
            raise ValueError("std_error must be 0 iff the method is exact")
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")

    @property
    def real(self) -> float:
        return float(self.value.real) if isinstance(self.value, complex) else float(self.value)
