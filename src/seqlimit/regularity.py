"""Weak regularity for limit functions via energy increment.

Given f on [0, 1] and an interval partition P, the conditional
expectation E(f|P) replaces f on each atom by its average, and the
energy is the squared L2 norm of E(f|P).  If some interval I carries
deviation |integral_I (f - E(f|P))| > eps, refining P by the endpoints
of I raises the energy by more than eps^2 (Cauchy-Schwarz), so at most
ceil(eps^-2) refinement rounds yield a partition with every interval
deviation at most eps, adding at most 2 * ceil(eps^-2) atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import poly
from .piecewise import ZERO_FN, PiecewisePoly, _critical_cuts, _unit_breakpoints, _x_primitive, grid_primitive


@dataclass(frozen=True)
class IntervalPartition:
    breakpoints: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", _unit_breakpoints(self.breakpoints))

    @classmethod
    def trivial(cls) -> "IntervalPartition":
        return cls((Fraction(0), Fraction(1)))

    @classmethod
    def uniform(cls, m: int) -> "IntervalPartition":
        if m < 1:
            raise ValueError(f"a uniform partition needs at least 1 atom, got {m}")
        return cls(tuple(Fraction(i, m) for i in range(m + 1)))

    def size(self) -> int:
        return len(self.breakpoints) - 1

    def refine(self, points) -> "IntervalPartition":
        inner = {p for p in map(Fraction, points) if 0 < p < 1}
        return IntervalPartition(tuple(sorted(set(self.breakpoints) | inner)))


def conditional_expectation(f: PiecewisePoly, part: IntervalPartition) -> PiecewisePoly:
    """Step function equal on each atom to the average of f there."""
    F, bps = f.antiderivative(), part.breakpoints
    return PiecewisePoly.step([(F(hi) - F(lo)) / (hi - lo) for lo, hi in zip(bps, bps[1:])], bps)


def energy(f: PiecewisePoly, part: IntervalPartition) -> Fraction:
    """Integral of E(f|P)^2: sum of (F(hi) - F(lo))^2 / (hi - lo) over atoms."""
    F, bps = f.antiderivative(), part.breakpoints
    return sum(((F(hi) - F(lo)) ** 2 / (hi - lo) for lo, hi in zip(bps, bps[1:])), Fraction(0))


def _extremal_of(f: PiecewisePoly, g: PiecewisePoly = ZERO_FN) -> tuple[Fraction, tuple[Fraction, Fraction]]:
    """The interval I maximizing |integral_I (f - g)| together with that
    value, located exactly from the extrema of the primitive: read off
    `grid_primitive(f, g)` when both are step functions, else off the
    critical cuts of `_x_primitive(f, g)`.  Irrational critical points are
    rationalized before evaluation, so the reported deviation is always
    exact for the returned interval.  Ties go to the largest maximizer
    and the smallest minimizer."""
    if f.is_step() and g.is_step():
        grid, prim, bden, vden = grid_primitive(f, g)
        top, bottom = max(prim), min(prim)
        lo, hi = sorted((prim.index(bottom), len(prim) - 1 - prim[::-1].index(top)))
        return Fraction(top - bottom, bden * vden), (Fraction(grid[lo], bden), Fraction(grid[hi], bden))
    H = _x_primitive(f, g)
    cands = []
    for P, cuts, approx in _critical_cuts(H.breakpoints, H.pieces):
        lo, hi = cuts[0], cuts[-1]
        rationalized = (Fraction(x).limit_denominator(10**12) for x in approx)
        cands += [(poly.peval(P, x), x) for x in cuts + [r for r in rationalized if lo < r < hi]]
    (top, best_max), (bottom, best_min) = max(cands), min(cands)
    return top - bottom, tuple(sorted((best_min, best_max)))


def extremal_interval(
    f: PiecewisePoly, part: IntervalPartition
) -> tuple[Fraction, tuple[Fraction, Fraction]]:
    """The interval maximizing |integral_I (f - E(f|P))|, with the exact
    deviation attained there."""
    return _extremal_of(f, conditional_expectation(f, part))


@dataclass(frozen=True)
class RegularityResult:
    partition: IntervalPartition
    rounds: int
    energies: tuple[Fraction, ...]
    final_deviation: Fraction
    approximation: PiecewisePoly


def weak_regularity(
    f: PiecewisePoly,
    eps,
    initial: IntervalPartition | None = None,
) -> RegularityResult:
    """Energy-increment regularization.

    Refines the partition by the endpoints of an extremal deviating
    interval until every interval deviation is at most eps.  Each round
    provably raises the energy by more than eps^2, which both bounds the
    number of rounds by ceil(eps^-2) and is checked along the way
    (RuntimeError if a guarantee fails).
    """
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    part = initial or IntervalPartition.trivial()
    initial_size = part.size()
    max_rounds = math.ceil(1 / (eps * eps)) + 1
    energies = [energy(f, part)]
    rounds = 0
    while True:
        dev, (lo, hi) = extremal_interval(f, part)
        if dev <= eps:
            break
        if rounds >= max_rounds:
            raise RuntimeError("energy increment failed to terminate in time")
        part = part.refine((lo, hi))
        energies.append(energy(f, part))
        if energies[-1] - energies[-2] <= eps * eps:
            raise RuntimeError("refinement must raise energy by more than eps^2")
        rounds += 1
    if part.size() > initial_size + 2 * math.ceil(1 / (eps * eps)):
        raise RuntimeError("partition exceeds 2 * ceil(eps^-2) extra atoms")
    return RegularityResult(
        partition=part,
        rounds=rounds,
        energies=tuple(energies),
        final_deviation=dev,
        approximation=conditional_expectation(f, part),
    )
