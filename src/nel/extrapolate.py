"""Richardson extrapolation for sequences with power-law corrections.

Assumes s_n = L + sum_j e_j n^(-p_j) and eliminates the correction terms
stage by stage.  When the exponents form an arithmetic ladder p, 2p, 3p...
the elimination is done as Neville extrapolation in the variable n^(-p),
which recovers polynomial models exactly for arbitrary index spacing; for
general exponent lists the standard pairwise elimination weights
(n_{i+j}/n_i)^{p_j} are used, which are exact for geometric index spacing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = ["ExtrapolationResult", "IllConditioned", "richardson",
           "fit_correction_exponent"]

_WEIGHT_CAP = 1e12


class IllConditioned(ArithmeticError):
    """Elimination weights grew beyond 1e12; the result would be noise."""


@dataclass(frozen=True)
class ExtrapolationResult:
    limit: float
    stages: int
    exponents: tuple[float, ...]
    table: tuple[tuple[float, ...], ...]   # row j = values after stage j
    error_estimate: float                  # last-stage delta, >= 0
    weight_norm: float                     # sum |c_i| of the final combination

    @property
    def diagonal(self) -> tuple[float, ...]:
        return tuple(row[0] for row in self.table)


def richardson(values: Sequence[float], indices: Sequence[float],
               exponents: Sequence[float] | None = None,
               stages: int | None = None) -> ExtrapolationResult:
    """Extrapolate s_n -> L by eliminating n^(-p_1), ..., n^(-p_stages).

    ``indices`` must be positive and strictly increasing, with at least
    stages + 1 entries.  The default exponents are the integer ladder
    1, 2, ..., stages.  Every value, index and exponent must be finite.
    """
    vals = [float(v) for v in values]
    idx = [float(n) for n in indices]
    if len(vals) != len(idx):
        raise ValueError("values and indices must have equal length")
    if not all(map(math.isfinite, [*vals, *idx, *(exponents or ())])):
        raise ValueError("values, indices and exponents must be finite")
    if len(vals) < 2:
        raise ValueError("need at least two values")
    if any(n <= 0 for n in idx):
        raise ValueError("indices must be positive")
    if any(b <= a for a, b in zip(idx, idx[1:])):
        raise ValueError("indices must be strictly increasing")
    if stages is None:
        stages = len(vals) - 1
    if not 1 <= stages <= len(vals) - 1:
        raise ValueError("stages must be in 1..len(values)-1")
    if exponents is None:
        exponents = tuple(float(j) for j in range(1, stages + 1))
    else:
        exponents = tuple(float(p) for p in exponents)
        if len(exponents) < stages:
            raise ValueError("need one exponent per stage")
        if any(b <= a for a, b in zip(exponents, exponents[1:])):
            raise ValueError("exponents must be strictly increasing")

    ladder = all(abs(exponents[j] - (j + 1) * exponents[0]) < 1e-12
                 for j in range(stages))

    t = list(vals)
    # weights[i][k]: coefficient of the original value k in t[i]
    weights = [[1.0 if k == i else 0.0 for k in range(len(vals))]
               for i in range(len(vals))]
    table = [tuple(t)]
    for j in range(1, stages + 1):
        new_t, new_w = [], []
        for i in range(len(t) - 1):
            if ladder:
                # Neville in h = n^(-p): span-ratio weights, exact for any
                # spacing when the corrections are polynomial in h.
                w = (idx[i + j] / idx[i]) ** exponents[0]
            else:
                # classical per-stage weights; exact for geometric spacing
                w = (idx[i + 1] / idx[i]) ** exponents[j - 1]
            denom = w - 1.0
            new_t.append((w * t[i + 1] - t[i]) / denom)
            new_w.append([(w * b - a) / denom
                          for a, b in zip(weights[i], weights[i + 1])])
        t, weights = new_t, new_w
        table.append(tuple(t))
        wn = max(sum(abs(c) for c in row) for row in weights)
        if wn > _WEIGHT_CAP:
            raise IllConditioned(f"weight norm {wn:.3g} after stage {j}")

    err = abs(table[-1][0] - table[-2][0]) if stages >= 1 else 0.0
    return ExtrapolationResult(
        limit=t[0],
        stages=stages,
        exponents=exponents[:stages],
        table=tuple(table),
        error_estimate=err,
        weight_norm=sum(abs(c) for c in weights[0]),
    )


def fit_correction_exponent(values: Sequence[float], indices: Sequence[float],
                            limit: float) -> float:
    """Least-squares slope of log|s_n - L| vs log n (reported, not asserted).

    Diagnostic for the leading correction exponent; returns the negated
    slope so a sequence L + c/n yields roughly 1.0.
    """
    xs, ys = [], []
    for v, n in zip(values, indices):
        d = abs(v - limit)
        if d > 0:
            xs.append(math.log(n))
            ys.append(math.log(d))
    if len(xs) < 2:
        raise ValueError("not enough distinct points to fit")
    return -_ls_slope(xs, ys)


def _ls_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of ys against xs (centred sums, in this order)."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((u - mx) ** 2 for u in xs)
    sxy = sum((u - mx) * (v - my) for u, v in zip(xs, ys))
    return sxy / sxx
