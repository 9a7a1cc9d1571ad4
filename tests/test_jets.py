"""Truncated power-series (jet) arithmetic."""

import cmath
import math

import numpy as np
import pytest
from scipy.special import binom

from dicke_fcs.jets import (CountingJet, seq_exp, seq_log, seq_mul,
                            seq_reciprocal, seq_sqrt)


def test_constructors_and_derivative():
    c = CountingJet.constant(2.5, 4)
    assert c.order == 4
    assert c.derivative(0) == 2.5
    assert c.derivative(3) == 0.0
    s = CountingJet.variable(4)
    assert s.derivative(1) == 1.0
    assert s.derivative(2) == 0.0


def test_known_series_exp_log_sqrt():
    s = CountingJet.variable(8)
    e = s.exp()
    for k in range(9):
        assert e.coefficients[k] == pytest.approx(1.0 / math.factorial(k),
                                                  rel=1e-15)
    lg = (1.0 + s).log()
    assert lg.coefficients[0] == 0.0
    for k in range(1, 9):
        assert lg.coefficients[k] == pytest.approx((-1.0) ** (k + 1) / k,
                                                   rel=1e-14)
    rt = (1.0 + s).sqrt()
    for k in range(9):
        assert rt.coefficients[k] == pytest.approx(binom(0.5, k), rel=1e-13)


def test_arithmetic_identities():
    rng = np.random.default_rng(7)
    for _ in range(20):
        coeff = rng.normal(size=7) + 1j * rng.normal(size=7)
        coeff[0] = 1.5 + rng.uniform(0, 1)      # keep constants away from 0
        x = CountingJet(coeff)
        one = CountingJet.constant(1.0, 6)
        assert np.allclose((x * x.reciprocal()).coefficients,
                           one.coefficients, atol=1e-13)
        assert np.allclose(x.log().exp().coefficients, x.coefficients,
                           rtol=1e-12, atol=1e-12)
        y = x.sqrt()
        assert np.allclose((y * y).coefficients, x.coefficients,
                           rtol=1e-12, atol=1e-12)


def test_leibniz_product_rule():
    rng = np.random.default_rng(11)
    a = CountingJet(rng.normal(size=6) + 1j * rng.normal(size=6))
    b = CountingJet(rng.normal(size=6) + 1j * rng.normal(size=6))
    prod = a * b
    for n in range(6):
        direct = sum(math.comb(n, k) * a.derivative(k) * b.derivative(n - k)
                     for k in range(n + 1))
        assert prod.derivative(n) == pytest.approx(direct, rel=1e-12)


def test_scalar_mixing_and_reflected_ops():
    s = CountingJet.variable(5)
    assert np.allclose((2.0 * s - s - s).coefficients, 0.0)
    inv = 1.0 / (1.0 + s)
    geometric = [(-1.0) ** k for k in range(6)]
    assert np.allclose(inv.coefficients, geometric)
    assert np.allclose((3.0 - s).coefficients, (-(s - 3.0)).coefficients)
    assert np.allclose((s / 2.0).coefficients, (0.5 * s).coefficients)


def test_composite_matches_scalar_function():
    # F(s) = exp(s) * (2 + s) / sqrt(4 + s) + log(3 + s*exp(-s))
    # evaluated as a jet must agree with the cmath evaluation to O(h^{K+1}).
    order = 6

    def scalar(z):
        return (cmath.exp(z) * (2 + z) / cmath.sqrt(4 + z)
                + cmath.log(3 + z * cmath.exp(-z)))

    s = CountingJet.variable(order)
    jet = (s.exp() * (2.0 + s) / (4.0 + s).sqrt()
           + (3.0 + s * (-s).exp()).log())

    def taylor(h):
        return sum(jet.coefficients[k] * h ** k for k in range(order + 1))

    resid_h = abs(scalar(0.1) - taylor(0.1))
    resid_h2 = abs(scalar(0.05) - taylor(0.05))
    assert resid_h < 1e-7
    # halving the step should shrink the remainder ~2^(order+1) = 128-fold
    assert resid_h / resid_h2 > 60


def test_truncation_stability():
    # coefficient n of any composite depends only on input coefficients <= n
    rng = np.random.default_rng(3)
    coeff = rng.normal(size=9)
    coeff[0] = 2.0
    full = CountingJet(coeff)
    cut = CountingJet(coeff[:5])
    for op in (lambda x: x.exp(), lambda x: x.log(), lambda x: x.sqrt(),
               lambda x: x * x + 3.0 * x, lambda x: x.reciprocal()):
        assert np.allclose(op(full).coefficients[:5], op(cut).coefficients,
                           rtol=1e-14, atol=1e-14)


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        CountingJet.variable(4) + CountingJet.variable(5)


def test_zero_constant_reciprocal_rejected():
    s = CountingJet.variable(4)
    with pytest.raises(ZeroDivisionError):
        s.reciprocal()
    with pytest.raises(ZeroDivisionError):
        s.log()


def test_raw_sequence_helpers_consistent():
    rng = np.random.default_rng(5)
    c = rng.normal(size=6) + 1j * rng.normal(size=6)
    c[0] = 1.2
    assert np.allclose(seq_mul(c, seq_reciprocal(c)),
                       [1, 0, 0, 0, 0, 0], atol=1e-13)
    assert np.allclose(seq_exp(seq_log(c)), c, rtol=1e-12, atol=1e-12)
    assert np.allclose(seq_mul(seq_sqrt(c), seq_sqrt(c)), c,
                       rtol=1e-12, atol=1e-12)


def test_batched_primitives_match_rows():
    rng = np.random.default_rng(7)
    c = rng.normal(size=(2, 3, 7)) + 1j * rng.normal(size=(2, 3, 7))
    c[..., 0] += 3.0
    other = rng.normal(size=7) + 1j * rng.normal(size=7)
    for fn in (seq_reciprocal, seq_exp, seq_log, seq_sqrt):
        batch = fn(c)
        for i in range(2):
            for j in range(3):
                assert np.allclose(batch[i, j], fn(c[i, j]),
                                   rtol=1e-14, atol=0.0)
    product = seq_mul(c, other)
    for i in range(2):
        for j in range(3):
            assert np.allclose(product[i, j], seq_mul(c[i, j], other),
                               rtol=1e-14, atol=1e-15)
            assert np.allclose(seq_mul(other, c)[i, j], product[i, j],
                               rtol=1e-14, atol=1e-15)
    with pytest.raises(ZeroDivisionError):
        seq_reciprocal(np.array([[1.0, 2.0], [0.0, 1.0]]))
