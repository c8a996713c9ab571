"""Span tracing for the benchmark's traced run.

Tracer.install() replaces every cross-module call site listed in
_boundaries() with a wrapper that records a span (name, start, end, parent)
and, for some boundaries, work counts derived from the call's arguments and
result.  Only the name bound in the importing module's namespace is replaced,
so a module's calls to its own functions stay inside its layer.  No source
file changes; the process that installs the tracer runs one workload and
exits.

A layer's self time is the duration of its spans minus the time covered by
their child spans and by the tracer's own counting work.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict

from modroots import convolve, energy, equidist, expsums, harness, modular, prodpoly

LAYERS = (
    "harness", "modular", "energy", "convolve", "gowers",
    "lattice", "prodpoly", "expsums", "equidist",
)

COUNTS = (
    "modular.table_cells",
    "energy.primes", "energy.cosets", "energy.preimage_members",
    "convolve.ntt_calls", "convolve.crt_primes", "convolve.transform_points",
    "lattice.points", "lattice.enum_volume",
    "prodpoly.build_s", "prodpoly.terms", "prodpoly.grid_tuples", "prodpoly.zeros",
    "gowers.work",
    "expsums.root_pairs", "expsums.window_terms",
)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _q(q) -> int:
    return getattr(q, "q", q)  # PrimeModulus or int


class Tracer:
    def __init__(self):
        self.spans = []  # [name, layer, start, end, parent index or -1]
        self.stack = []
        self.hidden = defaultdict(float)  # span index -> counting time inside it
        self.counts = dict.fromkeys(COUNTS, 0)
        self.gamma_args = []  # (q, P) of each prime_roots_ratio call
        self.missing = []  # boundaries absent from the code under test
        # 31-bit CRT primes c*2^20 + 1, largest first, as cyclic_convolve draws them
        self.crt_pool = [p for p in ((c << 20) | 1 for c in range(2047, 0, -2)) if modular.is_prime(p)]

    def wrap(self, fn, name, layer, count=None, watch=None):
        spans, stack, hidden, clock = self.spans, self.stack, self.hidden, time.perf_counter

        def traced(*args, **kwargs):
            misses = watch.cache_info().misses if watch else 0
            parent = stack[-1] if stack else -1
            span = [name, layer, 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if count is not None:
                t = clock()
                new_misses = watch.cache_info().misses - misses if watch else 0
                count(self, args, kwargs, result, span[3] - span[2], new_misses)
                hidden[parent] += clock() - t
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for owner, name, layer, count, watch in _boundaries():
            fn = getattr(owner, name, None)
            if fn is None:
                self.missing.append(f"{owner.__name__}.{name}")
                continue
            if watch is not None and not hasattr(watch, "cache_info"):
                watch = None
            label = f"{owner.__name__.rsplit('.', 1)[-1]}.{name}"
            setattr(owner, name, self.wrap(fn, label, layer, count, watch))

    def layer_metrics(self) -> dict:
        spans = self.spans
        covered = [self.hidden.get(i, 0.0) for i in range(len(spans))]
        for _, _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        out.update({f"{layer}.calls": 0 for layer in LAYERS if layer != "harness"})
        for i, (_, layer, start, end, _) in enumerate(spans):
            out[f"{layer}.self_s"] += end - start - covered[i]
            if layer != "harness":
                out[f"{layer}.calls"] += 1
        out.update(self.counts)
        info = getattr(getattr(modular, "residue_map", None), "cache_info", None)
        hits, misses = (info().hits, info().misses) if info else (0, 0)
        out["modular.table_builds"] = misses
        out["modular.table_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out["equidist.points"] = sum(_distinct_prime_roots(q, P) for q, P in self.gamma_args)
        return out


def _distinct_prime_roots(q: int, P: int) -> int:
    """Distinct x with x^2 = p (mod q) for a prime p <= P: the discrepancy's points."""
    return len({x for p in modular.primes_in(2, P) for x in modular.sqrt_mod(p % q, q)})


# ---------------------------------------------------------------------------
# work counters: (tracer, args, kwargs, result, seconds, new cache misses)


def _table_cells(t, args, kwargs, result, seconds, misses):
    # every boundary watching the table cache takes the modulus q last
    t.counts["modular.table_cells"] += misses * _q(kwargs["q"] if "q" in kwargs else args[-1])


def _preimage(t, args, kwargs, result, seconds, misses):
    _table_cells(t, args, kwargs, result, seconds, misses)
    t.counts["energy.preimage_members"] += result.cardinality


def _prime_average(t, args, kwargs, result, seconds, misses):
    t.counts["energy.primes"] += len(result.primes)
    t.counts["energy.cosets"] += sum(math.gcd(result.k, q - 1) for q in result.primes)


def _convolve(t, args, kwargs, result, seconds, misses):
    u, v = args[0], args[1]
    method = kwargs.get("method", args[2] if len(args) > 2 else "auto")
    n = len(u)
    if method == "naive" or (method == "auto" and n <= getattr(convolve, "NAIVE_THRESHOLD", 512)):
        return
    t.counts["convolve.ntt_calls"] += 1
    bound = min(
        sum(map(abs, u)) * max(map(abs, v), default=0),
        sum(map(abs, v)) * max(map(abs, u), default=0),
    )
    if bound == 0:
        return
    primes, modulus = 0, 1
    for p in t.crt_pool:
        primes += 1
        modulus *= p
        if modulus > 2 * bound + 1:
            break
    padded = 1 << (2 * n - 2).bit_length()  # smallest power of two >= 2n - 1
    t.counts["convolve.crt_primes"] += primes
    t.counts["convolve.transform_points"] += 3 * primes * padded


def _norm_work(A, k: int) -> int:
    return A.q ** max(k - 1, 0) * max(A.cardinality, 1)


def _gowers_norm(t, args, kwargs, result, seconds, misses):
    t.counts["gowers.work"] += _norm_work(args[0], _arg(args, kwargs, 1, "k"))


def _char_lemma(t, args, kwargs, result, seconds, misses):
    A, k = args[0], _arg(args, kwargs, 1, "k")
    if A.cardinality:
        t.counts["gowers.work"] += sum(_norm_work(A, m) for m in (k - 1, k, k + 1, 2))


def _enum_volume(bounds) -> int:
    """Volume count_points enumerates: 2*b+1 over every coordinate but the widest."""
    solved = max(range(len(bounds)), key=lambda i: bounds[i])
    return math.prod(2 * b + 1 for i, b in enumerate(bounds) if i != solved)


def _geometry(t, args, kwargs, result, seconds, misses):
    box = _arg(args, kwargs, 1, "box")
    t.counts["lattice.points"] += result.point_count
    t.counts["lattice.enum_volume"] += _enum_volume([int(w) for w in box.half_widths])


def _trichotomy(t, args, kwargs, result, seconds, misses):
    L, M, N = (_arg(args, kwargs, i, name) for i, name in ((3, "L"), (4, "M"), (5, "N")))
    t.counts["lattice.points"] += result.point_count
    t.counts["lattice.enum_volume"] += _enum_volume([N, M, L])


def _product_poly(t, args, kwargs, result, seconds, misses):
    if misses:
        t.counts["prodpoly.build_s"] += seconds
        t.counts["prodpoly.terms"] += len(result.terms)


def _box_zeros(t, args, kwargs, result, seconds, misses):
    t.counts["prodpoly.grid_tuples"] += _arg(args, kwargs, 1, "N") ** 4
    t.counts["prodpoly.zeros"] += result


def _bilinear(t, args, kwargs, result, seconds, misses):
    query = args[0]
    t.counts["expsums.root_pairs"] += len(query.alpha) * len(query.beta)


def _smoothed(t, args, kwargs, result, seconds, misses):
    alpha, bump = _arg(args, kwargs, 4, "alpha"), _arg(args, kwargs, 5, "bump")
    t.counts["expsums.root_pairs"] += len(alpha) * len(bump.support())


def _moment(t, args, kwargs, result, seconds, misses):
    t.counts["expsums.window_terms"] += _arg(args, kwargs, 1, "U0") * _arg(args, kwargs, 3, "q")


def _gamma(t, args, kwargs, result, seconds, misses):
    t.gamma_args.append((_q(_arg(args, kwargs, 0, "q")), _arg(args, kwargs, 1, "P")))


def _boundaries():
    """(importing namespace, name, layer, counter, cache to watch for misses)."""
    tables = getattr(modular, "residue_map", None)
    return [
        (harness, "tuple_energy", "energy", None, None),
        (harness, "prime_averaged_energy", "energy", _prime_average, None),
        (harness, "set_energy", "energy", None, None),
        (harness, "energy_of", "energy", None, None),
        (energy, "preimage_set", "modular", _preimage, tables),
        (energy, "residue_map", "modular", _table_cells, tables),
        (energy, "primes_in", "modular", None, None),
        (harness, "is_prime", "modular", None, None),
        (harness, "primes_in", "modular", None, None),
        (expsums, "kth_roots", "modular", _table_cells, tables),
        (expsums, "unit_roots", "modular", None, None),
        (expsums, "character_table", "modular", None, None),
        (equidist, "sqrt_mod", "modular", None, None),
        (equidist, "primes_in", "modular", None, None),
        (energy, "cyclic_convolve", "convolve", _convolve, None),
        (harness, "gowers_norm", "gowers", _gowers_norm, None),
        (harness, "character_lemma_report", "gowers", _char_lemma, None),
        (harness, "shift_intersection", "gowers", None, None),
        (harness, "verify_geometry", "lattice", _geometry, None),
        (harness, "trichotomy_check", "lattice", _trichotomy, None),
        (harness, "product_poly", "prodpoly", _product_poly, getattr(prodpoly, "product_poly", None)),
        (harness, "count_box_zeros", "prodpoly", _box_zeros, None),
        (prodpoly.IntPoly, "evaluate", "prodpoly", None, None),
        (harness, "bilinear_bound_ratio", "expsums", _bilinear, None),
        (harness, "smoothed_bound_ratio", "expsums", _smoothed, None),
        (harness, "char_inverse_moment", "expsums", _moment, None),
        (harness, "prime_roots_ratio", "equidist", _gamma, None),
    ]
