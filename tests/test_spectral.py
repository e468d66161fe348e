"""Spectral measures, semicircle utilities, Stieltjes transforms, KS distance.

Quadrature oracles use the substitution x = 2s sin(theta), which removes the
square-root endpoint singularity of the semicircle density.
"""

import cmath
import math

import numpy as np
import pytest
from scipy import integrate

from hyperspectra import (
    EmpiricalMeasure,
    ModelParams,
    SemicircleLaw,
    adjacency,
    average_esd,
    center_scale,
    eigenvalues,
    empirical_stieltjes,
    esd,
    ks_distance,
    moment,
    sample_hypergraph,
    sample_surrogate,
)
from hyperspectra import CovarianceProfile


def quad_semicircle(f, s_sq: float) -> float:
    """Integral of f against the semicircle density, via x = 2s sin(t)."""
    s = math.sqrt(s_sq)

    def g(t):
        x = 2.0 * s * math.sin(t)
        return f(x) * (2.0 / math.pi) * math.cos(t) ** 2

    val, err = integrate.quad(
        g, -math.pi / 2, math.pi / 2, limit=500, epsabs=1e-11, epsrel=1e-11
    )
    assert err < 5e-9
    return val


# ---------------------------------------------------------------------------
# eigenvalues


def test_eigenvalues_catalog():
    assert eigenvalues(np.zeros((5, 5))) == pytest.approx(np.zeros(5), abs=0.0)
    e = eigenvalues(np.asarray([[0.0, 1.0], [1.0, 0.0]]))
    assert e == pytest.approx(np.asarray([-1.0, 1.0]), rel=1e-14)


def test_eigenvalues_residual_and_trace():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((60, 60))
    H = (X + X.T) / 2.0
    e = eigenvalues(H)
    assert np.all(np.diff(e) >= 0.0)
    assert abs(e.sum() - np.trace(H)) <= 1e-8 * 60 * np.abs(H).max()
    # residual spot checks through an independent full decomposition
    w, V = np.linalg.eigh(H)
    norm = np.linalg.norm(H, 2)
    for j in rng.choice(60, size=5, replace=False):
        r = np.linalg.norm(H @ V[:, j] - w[j] * V[:, j])
        assert r <= 1e-8 * norm


def test_eigenvalues_zero_trace_centered():
    params = ModelParams.of(30, [3], [0.1])
    H = center_scale(adjacency(sample_hypergraph(params, seed=0)), params)
    e = eigenvalues(H)
    assert abs(e.sum()) <= 1e-8 * 30 * max(np.abs(H).max(), 1.0)


def test_eigenvalues_reject_asymmetric():
    with pytest.raises(ValueError):
        eigenvalues(np.asarray([[0.0, 1.0], [0.5, 0.0]]))


# ---------------------------------------------------------------------------
# measures


def test_esd_catalog():
    m = esd([0.0, 0.0])
    assert m.cdf(0.0) == 1.0 and m.cdf(-1e-9) == 0.0

    m = esd([1.0, -1.0])
    assert m.atoms == pytest.approx([-1.0, 1.0])
    assert m.cdf(0.0) == 0.5

    with pytest.raises(ValueError):
        esd([])


def test_esd_symmetric_sample_median():
    goe = CovarianceProfile(rho_n=0.0, gamma_n=0.0, theta_sq=1.0)
    m = esd(eigenvalues(sample_surrogate(2000, goe, seed=4)))
    assert 0.45 <= m.cdf(0.0) <= 0.55


def test_average_esd_catalog():
    single = esd([-1.0, 0.0, 1.0])
    edges, masses = average_esd([single], bins=10)
    assert edges.size == masses.size + 1
    assert masses.sum() == pytest.approx(1.0, abs=1e-12)

    _, masses = average_esd([esd([0.0]), esd([0.0])], bins=12)
    assert masses.max() == pytest.approx(1.0, abs=1e-12)

    _, masses = average_esd([esd([-1.0]), esd([1.0])], bins=2)
    assert masses == pytest.approx([0.5, 0.5], abs=1e-12)


def test_moment_catalog():
    assert moment(esd([0.0, 0.0, 0.0]), 5) == 0.0
    assert moment(esd([-1.0, 1.0]), 4) == 1.0
    assert moment(esd([-1.0, 1.0]), 3) == 0.0


def test_moment_quantile_grid():
    # atoms on the nu_1 quantile grid: m2 ~ 1
    law = SemicircleLaw(1.0)
    qs = (np.arange(20_000) + 0.5) / 20_000
    xs = np.interp(
        qs,
        law.cdf(np.linspace(-2.0, 2.0, 200_001)),
        np.linspace(-2.0, 2.0, 200_001),
    )
    assert moment(esd(xs), 2) == pytest.approx(1.0, abs=1e-3)


# ---------------------------------------------------------------------------
# semicircle law


def test_semicircle_pdf_cdf_catalog():
    law = SemicircleLaw(1.0)
    assert law.pdf(0.0) == pytest.approx(1.0 / math.pi, rel=1e-14)
    assert law.pdf(2.5) == 0.0
    assert law.cdf(-2.0) == 0.0
    assert law.cdf(2.0) == pytest.approx(1.0, abs=1e-14)
    assert law.cdf(0.0) == pytest.approx(0.5, abs=1e-14)
    with pytest.raises(ValueError):
        SemicircleLaw(0.0)


def test_semicircle_density_normalization():
    for s_sq in (0.25, 0.49, 1.0):
        total = quad_semicircle(lambda x: 1.0, 1.0)  # reference weight itself
        assert total == pytest.approx(1.0, abs=1e-9)
        s = math.sqrt(s_sq)
        val, err = integrate.quad(SemicircleLaw(s_sq).pdf, -2 * s, 2 * s, limit=300)
        assert val == pytest.approx(1.0, abs=1e-9)


def test_semicircle_cdf_matches_quadrature():
    for s_sq in (0.25, 1.0):
        s = math.sqrt(s_sq)
        law = SemicircleLaw(s_sq)
        for x in (-1.5 * s, -0.3 * s, 0.0, 0.8 * s, 1.9 * s):
            want, err = integrate.quad(law.pdf, -2 * s, x, limit=300)
            assert law.cdf(x) == pytest.approx(want, abs=1e-9 + err)


def test_semicircle_second_moment():
    for s_sq in (0.25, 0.49, 1.0):
        m2 = quad_semicircle(lambda x: x * x, s_sq)
        assert m2 == pytest.approx(s_sq, rel=1e-8)


# ---------------------------------------------------------------------------
# Stieltjes transforms


def test_stieltjes_catalog():
    got = SemicircleLaw(1.0).stieltjes(1j)
    want = 1j * (math.sqrt(5.0) - 1.0) / 2.0
    assert got == pytest.approx(want, abs=1e-12)


def test_stieltjes_matches_quadrature():
    for s_sq in (0.25, 1.0):
        for z in (1j, 1.0 + 1.0j, -0.5 + 2.0j):
            want = quad_semicircle(lambda x: ((x - z) ** -1).real, s_sq) + 1j * (
                quad_semicircle(lambda x: ((x - z) ** -1).imag, s_sq)
            )
            got = SemicircleLaw(s_sq).stieltjes(z)
            assert abs(got - want) < 1e-8
            assert got.imag > 0.0


def test_stieltjes_large_z_decay():
    z = 100j
    assert abs(z * SemicircleLaw(1.0).stieltjes(z) + 1.0) < 1e-3


def test_stieltjes_herglotz_randomized():
    rng = np.random.default_rng(88)
    for _ in range(50):
        s_sq = float(rng.uniform(0.05, 4.0))
        z = complex(rng.uniform(-5, 5), rng.uniform(1e-3, 5))
        assert SemicircleLaw(s_sq).stieltjes(z).imag > 0.0
        eigs = np.sort(rng.standard_normal(7))
        assert empirical_stieltjes(eigs, z).imag > 0.0
    with pytest.raises(ValueError):
        SemicircleLaw(1.0).stieltjes(1.0 - 1j)
    with pytest.raises(ValueError):
        empirical_stieltjes([0.0], 0.5 + 0.0j)


def test_empirical_stieltjes_catalog():
    assert empirical_stieltjes([0.0], 1j) == pytest.approx(1j, abs=1e-15)
    # symmetric spectrum, purely imaginary z: purely imaginary transform
    got = empirical_stieltjes([-2.0, -1.0, 1.0, 2.0], 0.5j)
    assert got.real == pytest.approx(0.0, abs=1e-15)
    assert got.imag > 0.0


# ---------------------------------------------------------------------------
# KS distance


def test_ks_quantile_grid():
    law = SemicircleLaw(1.0)
    grid = np.linspace(-2.0, 2.0, 400_001)
    cdf = law.cdf(grid)
    qs = (np.arange(100_000) + 0.5) / 100_000
    atoms = np.interp(qs, cdf, grid)
    assert ks_distance(esd(atoms), law) <= 1e-4


def test_ks_point_mass_against_semicircle():
    assert ks_distance(esd([0.0]), SemicircleLaw(1.0)) == pytest.approx(0.5, abs=1e-12)


def test_ks_measure_against_own_cdf():
    rng = np.random.default_rng(3)
    m = esd(rng.standard_normal(257))
    assert ks_distance(m, m) == 0.0


# ---------------------------------------------------------------------------
# refusals


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: eigenvalues(np.zeros((2, 3))), "need a square matrix, got shape (2, 3)"),
        (lambda: eigenvalues(np.array([[0.0, np.nan], [np.nan, 0.0]])), "matrix entries must be finite"),
        (lambda: EmpiricalMeasure(np.array([0.0, np.inf])), "atoms must be finite"),
        (lambda: average_esd([], 10), "need at least one measure"),
        (lambda: average_esd([esd([0.0])], 0), "need an integer bin count >= 1, got 0"),
        (lambda: empirical_stieltjes([], 1j), "need at least one eigenvalue"),
        (lambda: moment(esd([0.0]), -1), "need an integer moment order >= 0, got -1"),
    ],
    ids=["non-square", "nan-entry", "inf-atom", "no-measures", "zero-bins", "no-eigenvalues", "negative-order"],
)
def test_spectral_refusals(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
