"""Positive scalars stored as their natural log.

Partition functions of graphs with thousands of vertices overflow doubles,
so each partition function and rooting measure is formed as a float log
where it is computed, and handed out as ``LogValue(log)``. The class only
carries that log: ``.log()`` reads it back, and ``.to_float()`` converts it
on demand. It has no arithmetic; callers add and subtract the logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["LogValue"]


@dataclass(frozen=True)
class LogValue:
    """A positive real number stored as the log of its magnitude."""

    logmag: float

    def to_float(self) -> float:
        """Convert to a float; overflows to inf, underflows to 0."""
        try:
            return math.exp(self.logmag)
        except OverflowError:
            return math.inf

    def log(self) -> float:
        """Natural log."""
        return self.logmag
