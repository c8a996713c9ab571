"""The float64 FFT path of cyclic_convolve and its bit split against the NTT+CRT oracle.

_float_convolve must return the exact convolution whenever Percival's bound
certifies it (|u|^2 |v|^2 below _norm_limit(log2 L + 1), L the zero-padded
length), and cyclic_convolve must reach the bit split (_split_convolve)
exactly when it does not; the split must agree with the oracles at every
magnitude, sign and length.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import modroots.convolve as convolve
from modroots.convolve import NAIVE_THRESHOLD, _float_convolve, _norm_limit, cyclic_convolve
from modroots.energy import difference_rep
from modroots.errors import CapacityError
from modroots.sets import IndicatorSet

from convolve_oracles import naive_convolve, ntt_convolve


class ReachedSplit(Exception):
    pass


def _refuse(*args):
    raise ReachedSplit


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


def scaled_pair(u, v):
    """(t u, t v) and ((t+1) u, (t+1) v) on either side of the bound, t the largest certified."""
    t = math.isqrt(math.isqrt((limit_for(len(u)) - 1) // norm_squares(u, v)))
    below, above = (t * u, t * v), ((t + 1) * u, (t + 1) * v)
    assert certified(*below) and not certified(*above)
    assert int(np.abs(above[0]).max()) < 1 << 31  # the guard, not the entry cap, decides
    return below, above


def sparse_convolve(u, v):
    """Cyclic convolution by a loop over the nonzero entries of u and v."""
    q = len(u)
    out = [0] * q
    for i in np.flatnonzero(u).tolist():
        for j in np.flatnonzero(v).tolist():
            out[(i + j) % q] += int(u[i]) * int(v[j])
    return out


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
        assert w.tolist() == ntt_convolve(u, v).tolist()
    else:
        assert w is None
    # the stack form: rows (u, v) against (v, v), certified by the largest row norms;
    # negate correlates, which is the convolution with v reflected, x -> -x
    su, sv = (sum(x * x for x in y.tolist()) for y in (u, v))
    for negate in (False, True):
        w = _float_convolve(np.stack([u, v]), np.stack([v, v]), negate)
        if max(su, sv) * sv < limit_for(q):
            r = np.roll(v[::-1], 1) if negate else v
            assert w.shape == (2, q)
            assert w.tolist() == [ntt_convolve(u, r).tolist(), ntt_convolve(v, r).tolist()]
        else:
            assert w is None


@given(EDGE_Q, KINDS, KINDS, SEEDS)
@settings(max_examples=60, deadline=None)
def test_auto_route_follows_the_guard(q, kind_u, kind_v, seed):
    rng = np.random.default_rng(seed)
    u, v = draw_vector(rng, q, kind_u), draw_vector(rng, q, kind_v)
    expect = ntt_convolve(u, v).tolist()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(convolve, "_split_convolve", _refuse)
        if q <= NAIVE_THRESHOLD or certified(u, v):
            assert cyclic_convolve(u, v).tolist() == expect
        else:
            with pytest.raises(ReachedSplit):
                cyclic_convolve(u, v)
    assert cyclic_convolve(u, v).tolist() == expect


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
    below, above = scaled_pair(u, v)
    for pair, ok in ((below, True), (above, False)):
        w = _float_convolve(*pair)
        expect = ntt_convolve(*pair).tolist()
        assert (w is not None) == ok
        if ok:
            assert w.tolist() == expect
        if q > NAIVE_THRESHOLD:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(convolve, "_split_convolve", _refuse)
                if ok:
                    assert cyclic_convolve(*pair).tolist() == expect
                else:
                    with pytest.raises(ReachedSplit):
                        cyclic_convolve(*pair)
            assert cyclic_convolve(*pair).tolist() == expect


def test_sum_identity_rejects_an_inexact_transform(monkeypatch):
    # with the bound switched off, 24-bit entries give linear entries near 2^57,
    # beyond float64's 53-bit mantissa, so rounding cannot recover them
    monkeypatch.setattr(convolve, "_norm_limit", lambda levels: 1 << 400)
    rng = np.random.default_rng(3)
    q = NAIVE_THRESHOLD + 100
    u = rng.integers(0, 1 << 24, size=q, dtype=np.int64)
    v = rng.integers(0, 1 << 24, size=q, dtype=np.int64)
    with pytest.raises(ArithmeticError, match="sum"):
        _float_convolve(u, v)
    with pytest.raises(ArithmeticError, match="sum"):
        cyclic_convolve(u, v)


def test_entry_cap_and_dtype_decline():
    q = NAIVE_THRESHOLD + 1
    u = np.zeros(q, dtype=np.int64)
    u[0] = 1 << 31
    e = np.zeros(q, dtype=np.int64)
    e[0] = 1
    assert _float_convolve(u, e) is None  # certified by the bound, but above the entry cap
    assert _float_convolve(u >> 1, e).tolist() == (u >> 1).tolist()
    assert _float_convolve(e.astype(object), e) is None


# --- the bit split --------------------------------------------------------------

EDGE_ENTRIES = [2**31 - 1, 2**31, 2**31 + 1, -(2**31) - 1, 2**62, -(2**62), 2**63 - 1, 2**63, -(2**63)]


@pytest.mark.parametrize("q", [NAIVE_THRESHOLD + 1, 1031])
def test_split_at_word_edges(q):
    rng = np.random.default_rng(q)
    for trial in range(6):
        u = rng.integers(-3, 4, size=q).astype(object)
        v = rng.integers(0, 1 << 20, size=q).astype(object)
        u[rng.integers(q, size=4)] = rng.choice(np.array(EDGE_ENTRIES, dtype=object), 4)
        v[rng.integers(q, size=3)] = rng.choice(np.array(EDGE_ENTRIES, dtype=object), 3)
        if trial % 2:
            u = np.array([x * (1 << 137) - 1 for x in u.tolist()], dtype=object)  # about 2^200
        expect = ntt_convolve(u, v)
        got = cyclic_convolve(u, v)
        assert got.dtype == expect.dtype and got.tolist() == expect.tolist()
        assert all(type(x) is int for x in got.tolist())


def test_split_of_signed_62_bit_entries():
    rng = np.random.default_rng(62)
    q = 2 * NAIVE_THRESHOLD + 3
    for bits in (31, 32, 40, 62):
        u = rng.integers(-(1 << bits) + 1, 1 << bits, size=q, dtype=np.int64)
        v = rng.integers(-(1 << bits) + 1, 1 << bits, size=q, dtype=np.int64)
        expect = ntt_convolve(u, v)
        got = cyclic_convolve(u, v)
        assert got.dtype == expect.dtype and got.tolist() == expect.tolist()


@given(st.integers(NAIVE_THRESHOLD + 1, NAIVE_THRESHOLD + 40), st.sampled_from([2, 9, 33, 63]), SEEDS)
@settings(max_examples=20, deadline=None)
def test_forced_deep_splits_match_the_oracle(q, bits, seed):
    # a tiny bound certifies only small halves, so every pair is split down to a few bits
    rng = np.random.default_rng(seed)
    u = rng.integers(-(1 << (bits - 1)), 1 << (bits - 1), size=q, dtype=np.int64)
    v = rng.integers(-3, 4, size=q, dtype=np.int64)
    v[rng.integers(q)] = -(1 << (bits - 1))
    expect = ntt_convolve(u, v).tolist()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(convolve, "_norm_limit", lambda levels: 1 << 40)
        assert cyclic_convolve(u, v).tolist() == expect


def test_unit_operands_past_the_bound_are_a_capacity_error(monkeypatch):
    monkeypatch.setattr(convolve, "_norm_limit", lambda levels: 1)  # only zero vectors certify
    q = NAIVE_THRESHOLD + 1
    ones, signs = np.ones(q, dtype=np.int64), np.resize(np.array([1, -1, 0]), q)
    for u, v in ((ones, ones), (signs, ones), (5 * ones, signs)):
        with pytest.raises(CapacityError, match="float error bound"):
            cyclic_convolve(u, v)
    assert cyclic_convolve(np.zeros(q, dtype=np.int64), ones).tolist() == [0] * q
    # and so does a dense 0/1 block of the pair-count kernel
    with pytest.raises(CapacityError, match="float error bound"):
        difference_rep(IndicatorSet(q, range(q)))


def test_certified_input_calls_float_convolve_once(monkeypatch):
    calls = []

    def counted(u, v):
        calls.append(len(u))
        return _float_convolve(u, v)

    monkeypatch.setattr(convolve, "_float_convolve", counted)
    rng = np.random.default_rng(5)
    q = 1009
    u, v = draw_vector(rng, q, "bits"), draw_vector(rng, q, "counts")
    below, above = scaled_pair(u, v)
    assert cyclic_convolve(*below).tolist() == ntt_convolve(*below).tolist()
    assert calls == [q]
    calls.clear()
    assert cyclic_convolve(*above).tolist() == ntt_convolve(*above).tolist()
    assert len(calls) >= 3  # the declined pair, then both halves


def test_split_at_the_ntt_length_limit():
    # q = 2^19 is the oracle's last length; 2^19 + 1 needs 2^21 points, checked by a sparse loop
    rng = np.random.default_rng(19)
    q = 1 << 19
    u, v = draw_vector(rng, q, "bits"), draw_vector(rng, q, "bits")
    u[0] = v[0] = 1
    for pair in scaled_pair(u, v):
        assert cyclic_convolve(*pair).tolist() == ntt_convolve(*pair).tolist()
    q += 1
    u, v = np.zeros(q, dtype=np.int64), np.zeros(q, dtype=np.int64)
    u[rng.integers(q, size=40)] = rng.integers(1, 1 << 10, size=40)
    v[rng.integers(q, size=40)] = rng.integers(1, 1 << 10, size=40)
    for pair in scaled_pair(u, v):
        assert cyclic_convolve(*pair).tolist() == sparse_convolve(*pair)
    big = (u << 50) - (v << 51)  # entries near 2^61, split below 2^31 before any transform
    assert cyclic_convolve(big, v).tolist() == sparse_convolve(big, v)
