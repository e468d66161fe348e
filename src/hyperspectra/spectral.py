"""Spectra, empirical spectral distributions, and semicircle reference laws.

The semicircle law with variance s^2 has density
(2 pi s^2)^{-1} sqrt(4 s^2 - x^2) on [-2s, 2s], cumulative

    F(x) = 1/2 + x sqrt(4 s^2 - x^2) / (4 pi s^2) + arcsin(x / 2s) / pi,

and Stieltjes transform S(z) = (-z + sqrt(z^2 - 4 s^2)) / (2 s^2) on the
upper half plane, the root with Im S > 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "EmpiricalMeasure",
    "SemicircleLaw",
    "eigenvalues",
    "esd",
    "average_esd",
    "empirical_stieltjes",
    "ks_distance",
    "moment",
]

_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class EmpiricalMeasure:
    """A probability measure of equal-weight atoms, kept sorted."""

    atoms: np.ndarray

    def __post_init__(self) -> None:
        atoms = np.sort(np.asarray(self.atoms, dtype=np.float64).ravel())
        if atoms.size == 0:
            raise ValueError("measure needs at least one atom")
        if not np.isfinite(atoms).all():
            raise ValueError("atoms must be finite")
        atoms.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)

    def cdf(self, x) -> np.ndarray | float:
        """Right-continuous cdf."""
        x = np.asarray(x, dtype=np.float64)
        out = np.searchsorted(self.atoms, x, side="right") / self.atoms.size
        return out if out.ndim else float(out)


def eigenvalues(H: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric real matrix.

    Requires max |H - H^T| <= 1e-12 and finite entries.  The LAPACK
    symmetric solver keeps residuals ||H v - lambda v|| at the
    1e-10 * n * max|H| level, which tests spot-check.
    """
    H = np.asarray(H, dtype=np.float64)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"need a square matrix, got shape {H.shape}")
    if not np.isfinite(H).all():
        raise ValueError("matrix entries must be finite")
    if H.shape[0] > 1:
        # one n x n temporary, made absolute in place, freed before eigvalsh
        asym = H - H.T
        np.abs(asym, out=asym)
        if asym.max() > _SYMMETRY_TOL:
            raise ValueError("matrix is not symmetric within 1e-12")
        del asym
    return np.linalg.eigvalsh(H)


def esd(eigs) -> EmpiricalMeasure:
    """Empirical spectral distribution: one atom of mass 1/n per eigenvalue."""
    return EmpiricalMeasure(eigs)


def average_esd(
    measures: Sequence[EmpiricalMeasure], bins: int
) -> tuple[np.ndarray, np.ndarray]:
    """Equal-weight mixture of the measures, binned on the common hull.

    Returns ``(edges, masses)``: ``bins + 1`` increasing bin edges and the
    mixture's mass in each bin, which sums to 1.
    """
    if not measures:
        raise ValueError("need at least one measure")
    if not isinstance(bins, int) or bins < 1:
        raise ValueError(f"need an integer bin count >= 1, got {bins!r}")
    lo = min(float(m.atoms[0]) for m in measures)
    hi = max(float(m.atoms[-1]) for m in measures)
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    masses = np.zeros(bins, dtype=np.float64)
    share = 1.0 / len(measures)
    edges = np.linspace(lo, hi, bins + 1)
    for m in measures:
        counts, _ = np.histogram(m.atoms, bins=edges)
        masses += counts * (share / m.atoms.size)
    return edges, masses


# ---------------------------------------------------------------------------
# semicircle reference law


@dataclass(frozen=True)
class SemicircleLaw:
    """Semicircle law with variance s_sq, support [-2s, 2s]."""

    s_sq: float

    def __post_init__(self) -> None:
        s_sq = float(self.s_sq)
        if not (s_sq > 0.0) or not math.isfinite(s_sq):
            raise ValueError(f"need a positive finite variance, got {s_sq}")
        object.__setattr__(self, "s_sq", s_sq)

    @property
    def radius(self) -> float:
        return 2.0 * math.sqrt(self.s_sq)

    def pdf(self, x) -> np.ndarray | float:
        x = np.asarray(x, dtype=np.float64)
        sq = 4.0 * self.s_sq - x * x
        out = np.where(
            sq > 0.0, np.sqrt(np.maximum(sq, 0.0)) / (2.0 * math.pi * self.s_sq), 0.0
        )
        return out if out.ndim else float(out)

    def cdf(self, x) -> np.ndarray | float:
        two_s = self.radius
        x = np.asarray(x, dtype=np.float64)
        xc = np.clip(x, -two_s, two_s)
        sq = np.maximum(4.0 * self.s_sq - xc * xc, 0.0)
        out = (
            0.5
            + xc * np.sqrt(sq) / (4.0 * math.pi * self.s_sq)
            + np.arcsin(xc / two_s) / math.pi
        )
        out = np.clip(out, 0.0, 1.0)
        return out if out.ndim else float(out)

    def stieltjes(self, z: complex) -> complex:
        """S(z) = (-z + sqrt(z^2 - 4 s^2)) / (2 s^2), the root with Im S > 0."""
        z = complex(z)
        if not z.imag > 0.0:
            raise ValueError(f"need Im z > 0, got z = {z}")
        w = cmath.sqrt(z * z - 4.0 * self.s_sq)
        S = (-z + w) / (2.0 * self.s_sq)
        if S.imag <= 0.0:
            S = (-z - w) / (2.0 * self.s_sq)
        return S


def empirical_stieltjes(eigs, z: complex) -> complex:
    """Mean of 1 / (lambda - z) over the eigenvalues; Im z > 0 required."""
    z = complex(z)
    if not z.imag > 0.0:
        raise ValueError(f"need Im z > 0, got z = {z}")
    eigs = np.asarray(eigs, dtype=np.float64).ravel()
    if eigs.size == 0:
        raise ValueError("need at least one eigenvalue")
    return complex(np.mean(1.0 / (eigs - z)))


# ---------------------------------------------------------------------------
# distances and moments


def ks_distance(m: EmpiricalMeasure, law) -> float:
    """Kolmogorov distance sup_x |F_m(x) - F(x)| between the measure and any
    target with a ``cdf`` (a ``SemicircleLaw``, an ``EmpiricalMeasure``),
    taking both one-sided limits at each atom."""
    x = m.atoms
    size = x.size
    F = np.asarray(law.cdf(x), dtype=np.float64)
    # left limit matters when the target cdf itself jumps at an atom
    F_left = np.asarray(law.cdf(np.nextafter(x, -np.inf)), dtype=np.float64)
    upper = np.arange(1, size + 1) / size
    lower = np.arange(0, size) / size
    d_plus = float(np.max(upper - F))
    d_minus = float(np.max(F_left - lower))
    return max(d_plus, d_minus, 0.0)


def moment(m: EmpiricalMeasure, k: int) -> float:
    """k-th moment of the atoms."""
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"need an integer moment order >= 0, got {k!r}")
    return float(np.mean(m.atoms**k))
