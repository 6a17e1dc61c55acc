"""Floating-point evaluation of truncated series as input-output maps.

Words act on an input signal through iterated integrals: the integrator
letter integrates the constant 1, every other letter integrates the
matching input channel against the inner value.  Quadrature is the
trapezoidal rule on a uniform grid, so identity deviations for smooth
inputs shrink at second order when the grid is refined.  The checks
here compare the two sides of the parallel-product, cascade and
feedback-group identities, which hold exactly at the series level, so
the observed deviation is pure quadrature error.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .series import Series
from .words import Word


class Signal:
    """Uniformly sampled m-channel input on [0, T]; values has shape (m, len(grid))."""

    __slots__ = ("grid", "values")

    def __init__(self, grid, values):
        self.grid = np.asarray(grid, dtype=float)
        self.values = np.atleast_2d(np.asarray(values, dtype=float))
        if self.values.shape[1] != self.grid.shape[0]:
            raise ValueError("values and grid length mismatch")
        steps = np.diff(self.grid)
        if steps.size and not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
            raise ValueError("grid must be uniform")

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @classmethod
    def from_functions(cls, fns, T: float, N: int) -> "Signal":
        grid = np.linspace(0.0, T, N + 1)
        values = np.vstack([np.vectorize(f)(grid) for f in fns])
        return cls(grid, values)


def _cumtrapz(f: np.ndarray, h: float) -> np.ndarray:
    out = np.empty_like(f)
    out[0] = 0.0
    np.cumsum((f[1:] + f[:-1]) * (h / 2.0), out=out[1:])
    return out


def _integrals(u: Signal):
    """Memoized iterated integral of each word against the signal."""
    h = float(u.grid[1] - u.grid[0]) if u.grid.size > 1 else 0.0
    ones = np.ones_like(u.grid)
    cache: dict[Word, np.ndarray] = {(): ones}

    def integral(w: Word) -> np.ndarray:
        hit = cache.get(w)
        if hit is not None:
            return hit
        letter, rest = w[0], w[1:]
        track = ones if letter == 0 else u.values[letter - 1]
        val = _cumtrapz(track * integral(rest), h)
        cache[w] = val
        return val

    return integral


def iterated_integral(word: Word, u: Signal) -> np.ndarray:
    """Iterated integral of a word against the signal, sampled on the grid."""
    return _integrals(u)(tuple(word))


def fliess_eval(c: Series, u: Signal) -> np.ndarray:
    """Sampled outputs of the operator with generating series c; shape (ell, N+1)."""
    if u.m < c.m:
        raise ValueError(f"signal has {u.m} channels, series needs {c.m}")
    integral = _integrals(u)
    out = np.zeros((c.ell, u.grid.shape[0]))
    den = c.den
    for (channel, word), n in c.nums.items():
        out[channel - 1] += n / den * integral(word)  # int / int rounds as float(Fraction)
    return out


def identity_deviation(kind: str, c: Series, d: Series, u: Signal) -> float:
    """Sup-norm gap between the operator-level and series-level sides."""
    from . import groupops
    from .series import shuffle_product

    if kind == "shuffle":
        left = fliess_eval(c, u) * fliess_eval(d, u)
        right = fliess_eval(shuffle_product(c, d), u)
    elif kind == "compose":
        inner = Signal(u.grid, fliess_eval(d, u))
        left = fliess_eval(c, inner)
        right = fliess_eval(groupops.compose(c, d), u)
    elif kind == "group":
        v = Signal(u.grid, u.values + fliess_eval(d, u))
        left = v.values + fliess_eval(c, v)
        right = u.values + fliess_eval(groupops.group_product(c, d), u)
    else:
        raise ValueError(f"unknown identity kind {kind!r}")
    return float(np.max(np.abs(left - right)))


def convergence_table(kind: str, c: Series, d: Series, fns, T: float,
                      grid_sizes) -> list[tuple[int, float]]:
    return [
        (N, identity_deviation(kind, c, d, Signal.from_functions(fns, T, N)))
        for N in grid_sizes
    ]


# ---------------------------------------------------------------------------
# fixed validation corpus


def standard_inputs(m: int = 2):
    """Smooth two-channel test inputs with O(1) curvature."""
    fns = [
        lambda t: math.cos(2.0 * math.pi * t),
        lambda t: math.sin(3.0 * t) + (1.0 - t) ** 2,
    ]
    return fns[:m]


def standard_corpus() -> list[tuple[str, Series, Series]]:
    """Named (kind, c, d) triples used by the convergence checks."""
    half = "1/2"
    shuffle_c = Series(1, 2, 6, {(1, (1,)): 1, (1, (0, 2)): half, (1, (2, 1)): 1})
    shuffle_d = Series(1, 2, 6, {(1, (2,)): 1, (1, (1, 1)): half, (1, ()): 1})
    compose_c = Series(1, 2, 6, {(1, (1,)): 1, (1, (1, 2)): half, (1, (0,)): 1})
    compose_d = Series(2, 2, 6, {(1, ()): 1, (1, (2,)): half, (2, (1,)): 1, (2, (0, 1)): half})
    group_c = Series(2, 2, 6, {(1, (2,)): 1, (1, (1, 1)): half, (2, (0,)): 1})
    group_d = Series(2, 2, 6, {(1, (1,)): half, (2, (1,)): 1, (2, (2, 2)): half})
    paper_c = Series(2, 2, 6, {(1, (2,)): 1})
    paper_d = Series(2, 2, 6, {(2, (1,)): 1})
    return [
        ("shuffle", shuffle_c, shuffle_d),
        ("compose", compose_c, compose_d),
        ("group", group_c, group_d),
        ("group", paper_c, paper_d),
    ]


class CheckRecord(NamedTuple):
    kind: str
    case: int
    deviations: tuple[tuple[int, float], ...]

    @property
    def final_deviation(self) -> float:
        return self.deviations[-1][1]

    def ratios(self) -> list[float]:
        devs = [dev for _n, dev in self.deviations]
        return [devs[i] / devs[i + 1] for i in range(len(devs) - 1)]


def run_standard_checks(N: int = 2000, T: float = 1.0, refinements: int = 3,
                        kind: str | None = None) -> list[CheckRecord]:
    """Deviation-vs-grid records for the fixed corpus, or for its cases of one
    kind; N is the finest grid."""
    grid_sizes = [N // (2 ** k) for k in range(refinements, -1, -1)]
    fns = standard_inputs()
    out = []
    for case, (case_kind, c, d) in enumerate(standard_corpus()):
        if kind in (None, case_kind):
            table = convergence_table(case_kind, c, d, fns, T, grid_sizes)
            out.append(CheckRecord(case_kind, case, tuple(table)))
    return out
