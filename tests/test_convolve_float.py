"""The float64 FFT path of cyclic_convolve against the NTT+CRT oracle.

_float_convolve must return the exact convolution whenever Percival's bound
certifies it (|u|^2 |v|^2 below _norm_limit(log2 L + 1), L the zero-padded
length), and cyclic_convolve must reach the NTT (_convolve_mod) exactly when
it does not.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import modroots.convolve as convolve
from modroots.convolve import NAIVE_THRESHOLD, _float_convolve, _norm_limit, cyclic_convolve


class ReachedNTT(Exception):
    pass


def _refuse(*args):
    raise ReachedNTT


def norm_squares(u, v):
    return sum(x * x for x in u.tolist()) * sum(x * x for x in v.tolist())


def limit_for(q):
    L = 1
    while L < 2 * q - 1:
        L *= 2
    return _norm_limit(L.bit_length())  # log2 L + 1 levels


def certified(u, v):
    return norm_squares(u, v) < limit_for(len(u))


def draw_vector(rng, q, kind):
    if kind == "bits":
        return (rng.random(q) < rng.random()).astype(np.int64)
    if kind == "counts":
        return rng.integers(0, rng.integers(1, 200), size=q, dtype=np.int64)
    bits = int(rng.choice([1, 8, 16, 24, 30]))
    return rng.integers(-(1 << bits), 1 << bits, size=q, dtype=np.int64)


KINDS = st.sampled_from(["bits", "counts", "signed"])
SEEDS = st.integers(0, 2**32 - 1)
# q just above the naive threshold, and on both sides of each doubling of L
EDGE_Q = st.one_of(
    st.integers(NAIVE_THRESHOLD + 1, NAIVE_THRESHOLD + 4),
    st.builds(lambda k, side: (1 << k) + side, st.integers(9, 13), st.sampled_from([0, 1])),
)


def test_norm_limit_against_decimal():
    with localcontext() as ctx:
        ctx.prec = 80
        eps, beta = Decimal(2) ** -53, Decimal(2) ** -50
        for n in (1, 2, 10, 20, 21, 24, 27):
            f = (1 + eps) ** (3 * n) * (1 + eps * Decimal(5).sqrt()) ** (3 * n + 1)
            f = f * (1 + beta) ** (3 * n) - 1
            exact = 1 / (16 * f * f)
            # sqrt(5) is rounded up, so the limit errs low, by a relative 2^-60 at most
            assert exact * (1 - Decimal(2) ** -60) <= _norm_limit(n) <= exact + 1
    assert all(_norm_limit(n) > _norm_limit(n + 1) for n in range(1, 30))


@given(st.integers(1, NAIVE_THRESHOLD + 200), KINDS, KINDS, SEEDS)
@settings(max_examples=150, deadline=None)
def test_float_kernel_against_ntt(q, kind_u, kind_v, seed):
    rng = np.random.default_rng(seed)
    u, v = draw_vector(rng, q, kind_u), draw_vector(rng, q, kind_v)
    w = _float_convolve(u, v)
    if certified(u, v):
        assert w is not None and w.dtype == np.int64
        assert w.tolist() == cyclic_convolve(u, v, method="ntt").tolist()
    else:
        assert w is None


@given(EDGE_Q, KINDS, KINDS, SEEDS)
@settings(max_examples=60, deadline=None)
def test_auto_route_follows_the_guard(q, kind_u, kind_v, seed):
    rng = np.random.default_rng(seed)
    u, v = draw_vector(rng, q, kind_u), draw_vector(rng, q, kind_v)
    expect = cyclic_convolve(u, v, method="ntt").tolist()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(convolve, "_convolve_mod", _refuse)
        if q <= NAIVE_THRESHOLD or certified(u, v):
            assert cyclic_convolve(u, v).tolist() == expect
        else:
            with pytest.raises(ReachedNTT):
                cyclic_convolve(u, v)


@given(st.one_of(st.integers(1, 64), EDGE_Q), st.sampled_from(["bits", "counts", "delta"]), SEEDS)
@settings(max_examples=60, deadline=None)
def test_inputs_scaled_to_either_side_of_the_bound(q, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "delta":
        u, v = np.zeros(q, dtype=np.int64), np.zeros(q, dtype=np.int64)
        u[rng.integers(q)] = v[rng.integers(q)] = 1
    else:
        u, v = draw_vector(rng, q, kind), draw_vector(rng, q, kind)
        u[0] = v[0] = 1  # nonzero norms
    limit = limit_for(q)
    # largest t with t^4 |u|^2 |v|^2 < limit: t u, t v is certified and (t+1) u, (t+1) v is not
    t = math.isqrt(math.isqrt((limit - 1) // norm_squares(u, v)))
    below, above = (t * u, t * v), ((t + 1) * u, (t + 1) * v)
    assert certified(*below) and not certified(*above)
    assert int(np.abs(above[0]).max()) < 1 << 31  # the guard, not the entry cap, decides
    for pair, ok in ((below, True), (above, False)):
        w = _float_convolve(*pair)
        expect = cyclic_convolve(*pair, method="ntt").tolist()
        assert (w is not None) == ok
        if ok:
            assert w.tolist() == expect
        if q > NAIVE_THRESHOLD:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(convolve, "_convolve_mod", _refuse)
                if ok:
                    assert cyclic_convolve(*pair).tolist() == expect
                else:
                    with pytest.raises(ReachedNTT):
                        cyclic_convolve(*pair)


def test_sum_identity_rejects_an_inexact_transform(monkeypatch):
    # with the bound switched off, 24-bit entries give linear entries near 2^57,
    # beyond float64's 53-bit mantissa, so rounding cannot recover them
    monkeypatch.setattr(convolve, "_norm_limit", lambda levels: 1 << 400)
    rng = np.random.default_rng(3)
    q = NAIVE_THRESHOLD + 100
    u = rng.integers(0, 1 << 24, size=q, dtype=np.int64)
    v = rng.integers(0, 1 << 24, size=q, dtype=np.int64)
    assert _float_convolve(u, v) is None
    assert cyclic_convolve(u, v).tolist() == cyclic_convolve(u, v, method="naive").tolist()


def test_entry_cap_and_dtype_decline():
    q = NAIVE_THRESHOLD + 1
    u = np.zeros(q, dtype=np.int64)
    u[0] = 1 << 31
    e = np.zeros(q, dtype=np.int64)
    e[0] = 1
    assert _float_convolve(u, e) is None  # certified by the bound, but above the entry cap
    assert _float_convolve(u >> 1, e).tolist() == (u >> 1).tolist()
    assert _float_convolve(e.astype(object), e) is None
