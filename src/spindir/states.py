"""Spin quantum numbers.

A state is a plain complex numpy array: one state is (d,), a stack of M
states (M, d). Amplitudes of one spin-j multiplet are ordered m = j down to
-j; on a register of spin-1/2 systems qubit k is bit k of the amplitude index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def is_integer(value) -> bool:
    """A Python or numpy integer; bool is refused, though Python counts it."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class SpinJ:
    """Angular momentum quantum number, stored as 2j so half-integers stay exact."""

    twice_j: int

    def __post_init__(self):
        if not is_integer(self.twice_j) or self.twice_j < 0:
            raise ValueError(f"2j must be a non-negative integer, got {self.twice_j!r}")

    @classmethod
    def from_j(cls, j: float) -> "SpinJ":
        twice = round(2 * j)
        if abs(2 * j - twice) > 1e-9:
            raise ValueError(f"j must be integer or half-integer, got {j}")
        return cls(int(twice))

    @property
    def j(self) -> float:
        return self.twice_j / 2.0

    @property
    def dim(self) -> int:
        return self.twice_j + 1

    @property
    def is_integer(self) -> bool:
        return self.twice_j % 2 == 0

    def __repr__(self):
        return f"SpinJ(j={self.twice_j / 2:g})"
