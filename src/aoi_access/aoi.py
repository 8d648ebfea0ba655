"""Closed-form age-of-information analytics for the status-update user.

With one fresh sample per slot and per-slot update success probability
mu2, the age at the receiver is geometric: it resets to 1 on a delivered
update and climbs by 1 otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError


@dataclass(frozen=True)
class AoiParams:
    """Per-slot probability a status update is delivered (mu2).

    0 is allowed; it yields a degenerate never-refreshed age with an
    unbounded average.
    """

    update_success_prob: float

    def __post_init__(self):
        if not 0.0 <= self.update_success_prob <= 1.0:
            raise ParameterError(
                f"update_success_prob must be in [0,1], got {self.update_success_prob}"
            )


def average_aoi(p: AoiParams) -> float:
    """Mean stationary age, 1/mu2; infinite when updates never succeed."""
    if p.update_success_prob == 0.0:
        return math.inf
    return 1.0 / p.update_success_prob


def aoi_violation(p: AoiParams, x: int) -> float:
    """Stationary probability the age exceeds x: (1 - mu2)^x."""
    if not isinstance(x, int) or x < 0:
        raise ParameterError(f"violation threshold must be an integer >= 0, got {x!r}")
    return (1.0 - p.update_success_prob) ** x
