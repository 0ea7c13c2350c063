"""Discretization grids for translations and dilations.

At level k the translation range [-4, 0] and dilation range [1, 2] are split
into cells of width delta_{k+1}^L; grid values are the cell centers.  Tuples
of grid pairs are what the correlation gates quantify over.  Grids are far
too large to enumerate at production sizes, so sampling (uniform plus a
near-diagonal stratum, where tangency pressure concentrates) stands in for
the sup; callers record the coverage mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, GridError
from .intersect import AffineTuple
from .params import ConstructionParams


@dataclass(frozen=True)
class DiscretizationGrid:
    """The level-k grid of pairs (c, r), as ``for_level`` builds it from k and L."""

    spacing: Fraction  # delta_{k+1}^L
    n_c: int  # 4 / spacing
    n_r: int  # 1 / spacing
    diag_window: int  # grid steps spanning one level-k interval

    @classmethod
    def for_level(cls, params: ConstructionParams, k: int) -> "DiscretizationGrid":
        if k < 1:
            raise DomainError("grid level must be >= 1")
        M_next = params.M(k + 1)
        spacing = Fraction(1, M_next**params.L)
        window = M_next**params.L // params.M(k)
        return cls(
            spacing=spacing,
            n_c=4 * M_next**params.L,
            n_r=M_next**params.L,
            diag_window=max(1, window),
        )

    def c_value(self, i: int) -> Fraction:
        if not (1 <= i <= self.n_c):
            raise GridError(f"translation index {i} outside 1..{self.n_c}")
        return -4 + (2 * i - 1) * self.spacing / 2

    def r_value(self, i: int) -> Fraction:
        if not (1 <= i <= self.n_r):
            raise GridError(f"dilation index {i} outside 1..{self.n_r}")
        return 1 + (2 * i - 1) * self.spacing / 2

    def total_pairs(self) -> int:
        return self.n_c * self.n_r

    def _rand_index(self, rng: np.random.Generator, n: int) -> int:
        if n <= 1 << 62:
            return int(rng.integers(1, n + 1))
        hi = rng.integers(0, (n >> 31) + 1)
        lo = rng.integers(0, 1 << 31)
        return int(hi << 31 | lo) % n + 1

    def sample_tuple(
        self, rng: np.random.Generator, n: int, near_diagonal: bool = False
    ) -> AffineTuple:
        """Draw an n-tuple of grid pairs.

        With ``near_diagonal`` the later slots stay within one level-k
        interval length of the first slot in both parameters.
        """
        ci = self._rand_index(rng, self.n_c)
        ri = self._rand_index(rng, self.n_r)
        c_idx, r_idx = [ci], [ri]
        for _ in range(n - 1):
            if near_diagonal:
                w = self.diag_window
                cj = ci + int(rng.integers(-w, w + 1))
                rj = ri + int(rng.integers(-w, w + 1))
                cj = min(max(cj, 1), self.n_c)
                rj = min(max(rj, 1), self.n_r)
            else:
                cj = self._rand_index(rng, self.n_c)
                rj = self._rand_index(rng, self.n_r)
            c_idx.append(cj)
            r_idx.append(rj)
        pairs = tuple((self.c_value(ci_), self.r_value(ri_)) for ci_, ri_ in zip(c_idx, r_idx))
        return AffineTuple(pairs)
