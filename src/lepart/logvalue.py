"""Positive scalars stored as their natural log.

Partition functions of graphs with thousands of vertices overflow doubles,
so they are carried around as ``exp(logmag)`` and only converted to a plain
float on demand. Every partition function and rooting measure is positive,
and every closed form is a product, quotient or power of positive factors,
so the arithmetic is exactly those three operations, each one addition,
subtraction or multiplication of logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["LogValue"]


@dataclass(frozen=True)
class LogValue:
    """A positive real number stored as the log of its magnitude."""

    logmag: float

    @staticmethod
    def from_float(x: float) -> "LogValue":
        if not x > 0:
            raise ValueError(f"LogValue holds positive numbers only, got {x}")
        return LogValue(math.log(x))

    @staticmethod
    def from_log(logmag: float) -> "LogValue":
        return LogValue(logmag)

    def to_float(self) -> float:
        """Convert to a float; overflows to inf, underflows to 0."""
        try:
            return math.exp(self.logmag)
        except OverflowError:
            return math.inf

    def log(self) -> float:
        """Natural log."""
        return self.logmag

    def __mul__(self, other: "LogValue") -> "LogValue":
        return LogValue(self.logmag + other.logmag)

    def __truediv__(self, other: "LogValue") -> "LogValue":
        return LogValue(self.logmag - other.logmag)

    def __pow__(self, k: int) -> "LogValue":
        if not isinstance(k, int):
            raise TypeError("only integer powers are supported")
        return LogValue(k * self.logmag)
