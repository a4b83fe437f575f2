"""Streaming moment accumulation for Monte-Carlo estimators.

A single pass over chunked sample values maintains the count, mean and
central moment sums M2..M4 with the numerically stable pairwise update
(Chan/Pebay).  From these the accumulator reports the unbiased variance,
the standard error of the mean, and the delete-one jackknife standard
error of the variance in closed form:

    Var_J(s^2) = (n M4 - M2^2) / ((n-1) (n-2)^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MomentAccumulator"]


@dataclass
class MomentAccumulator:
    n: int = 0
    mean: float = 0.0
    m2: float = 0.0
    m3: float = 0.0
    m4: float = 0.0

    def add_chunk(self, values: np.ndarray) -> None:
        """Fold a chunk of sample values into the running moments; the M4 merge reads both halves' m3, so m3 is kept."""
        values = np.asarray(values, dtype=np.float64)
        nb = values.size
        if nb == 0:
            return
        with np.errstate(over="ignore", invalid="ignore"):  # np.float64 moments overflow to inf/nan; a float's ** raises
            mb = values.mean()
            dv = values - mb
            dv2 = dv * dv
            m2b, m3b, m4b = dv2.sum(), (dv2 * dv).sum(), (dv2 * dv2).sum()
            if self.n == 0:
                self.n, self.mean, self.m2, self.m3, self.m4 = nb, mb, m2b, m3b, m4b
                return
            n = self.n + nb
            delta = mb - self.mean
            na_f, nb_f, n_f = float(self.n), float(nb), float(n)
            m4 = (
                self.m4
                + m4b
                + delta**4 * na_f * nb_f * (na_f**2 - na_f * nb_f + nb_f**2) / n_f**3
                + 6.0 * delta**2 * (na_f**2 * m2b + nb_f**2 * self.m2) / n_f**2
                + 4.0 * delta * (na_f * m3b - nb_f * self.m3) / n_f
            )
            m3 = (
                self.m3
                + m3b
                + delta**3 * na_f * nb_f * (na_f - nb_f) / n_f**2
                + 3.0 * delta * (na_f * m2b - nb_f * self.m2) / n_f
            )
            m2 = self.m2 + m2b + delta**2 * na_f * nb_f / n_f
            self.mean += delta * nb_f / n_f
        self.n, self.m2, self.m3, self.m4 = n, m2, m3, m4

    @property
    def variance(self) -> float:
        """Unbiased sample variance."""
        if self.n < 2:
            raise ValueError("variance needs at least two samples")
        return self.m2 / (self.n - 1)

    @property
    def se_mean(self) -> float:
        return float(np.sqrt(self.variance / self.n))

    @property
    def se_variance(self) -> float:
        """Delete-one jackknife standard error of the sample variance."""
        if self.n < 3:
            raise ValueError("variance standard error needs at least three samples")
        n = float(self.n)
        with np.errstate(over="ignore", invalid="ignore"):
            num = n * self.m4 - self.m2**2
        return float(np.sqrt(max(num, 0.0) / ((n - 1.0) * (n - 2.0) ** 2)))
