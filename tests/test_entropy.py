import importlib
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from gcube.entropy import (
    PMFVector,
    _counts_entropy,
    binomial_entropies,
    binomial_entropy,
    binomial_entropy_bounds,
    decreasing_rearrangement,
    entropy,
    entropy_bits,
    iter_signed_vectors,
    karamata_compare,
    majorizes,
    pmf_signed_sum,
    signed_sum_counts,
    verify_entropy_corollary,
    verify_majorization_lemma,
)
from gcube.terms import term_groups


def test_entropy_examples():
    assert entropy(PMFVector(0, (Fraction(1, 2), Fraction(1, 2)))) == 1.0
    assert entropy(PMFVector(0, (0.25, 0.5, 0.25))) == 1.5
    assert entropy(PMFVector(5, (Fraction(1),))) == 0.0
    with pytest.raises(ValueError):
        entropy_bits([0.5, 0.6])
    with pytest.raises(ValueError):
        PMFVector(0, (0.5, 0.4))


def test_pmf_vector_validation():
    with pytest.raises(ValueError):
        PMFVector(0, (0.0, 1.0))
    with pytest.raises(ValueError):
        PMFVector(0, (1.0, 0.0))
    with pytest.raises(ValueError):
        PMFVector(0, ())
    # interior zeros are fine
    p = PMFVector(0, (Fraction(1, 2), Fraction(0), Fraction(1, 2)))
    assert entropy(p) == 1.0


def test_binomial_entropy_values():
    assert binomial_entropy(1) == 1.0
    assert binomial_entropy(2) == 1.5
    assert binomial_entropy(3) == pytest.approx(3 * (4 - math.log2(3)) / 4, rel=1e-12)
    assert binomial_entropy(4) == pytest.approx(2.0306390622, abs=1e-9)
    with pytest.raises(ValueError):
        binomial_entropy(0)


def test_binomial_entropy_bounds():
    lo, hi = binomial_entropy_bounds(1)
    assert lo == pytest.approx(0.7971, abs=1e-4)
    assert hi == pytest.approx(1.1471, abs=1e-4)
    assert lo < 1.0 < hi
    lo, hi = binomial_entropy_bounds(2)
    assert lo < 1.5 < hi
    lo, hi = binomial_entropy_bounds(1000)
    assert hi - lo == pytest.approx(7.0 / 20000.0, rel=1e-12)
    assert lo < binomial_entropy(1000) < hi


def test_ratio_strictly_decreasing_prefix():
    prev = binomial_entropy(1)
    for m in range(2, 60):
        h = binomial_entropy(m)
        assert h / m < prev / (m - 1)
        prev = h


def test_pmf_signed_sum_examples():
    p = pmf_signed_sum((1, 1))
    assert p.support_offset == 0
    assert p.masses == (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))
    p = pmf_signed_sum((1, 2))
    assert p.support_offset == 0
    assert p.masses == tuple([Fraction(1, 4)] * 4)
    p = pmf_signed_sum((1, -1))
    assert p.support_offset == -1
    assert p.masses == (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))
    with pytest.raises(ValueError):
        pmf_signed_sum((1, 0))
    with pytest.raises(ValueError):
        pmf_signed_sum(())


def test_decreasing_rearrangement_examples():
    assert decreasing_rearrangement(PMFVector(0, (0.25, 0.5, 0.25))) == [0.5, 0.25, 0.25]
    assert decreasing_rearrangement(PMFVector(0, (0.25,) * 4)) == [0.25] * 4
    assert decreasing_rearrangement(PMFVector(0, (0.1, 0.7, 0.2))) == [0.7, 0.2, 0.1]


def test_majorizes_examples():
    assert majorizes([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)],
                     [Fraction(1, 4)] * 4)
    assert majorizes([0.5, 0.3, 0.2], [0.5, 0.3, 0.2])
    assert not majorizes([0.4, 0.3, 0.3], [0.5, 0.3, 0.2])
    assert not majorizes([0.6, 0.4], [0.5, 0.3])  # unequal totals
    with pytest.raises(ValueError):
        majorizes([0.2, 0.8], [0.5, 0.5])


def test_karamata_examples():
    res = karamata_compare([1.0, 0.0], [0.5, 0.5], "square")
    assert res.difference == pytest.approx(0.5)
    assert res.consistent and not res.equal
    res = karamata_compare([0.5, 0.5], [0.5, 0.5], "square")
    assert res.difference == 0.0 and res.equal
    res = karamata_compare(
        [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)],
        [Fraction(1, 4)] * 4,
        "neg_x_log2",
    )
    assert res.difference == pytest.approx(1.5 - 2.0)
    with pytest.raises(ValueError):
        karamata_compare([1.0, 0.0], [0.5, 0.5], (lambda v: v * v, "convex"))
    assert res.consistent
    with pytest.raises(ValueError):
        karamata_compare([0.4, 0.3, 0.3], [0.5, 0.3, 0.2], "square")
    with pytest.raises(ValueError):
        karamata_compare([1.0, 0.0], [0.5, 0.5], "no-such-psi")


def test_majorization_lemma_small():
    rep = verify_majorization_lemma(2, 3)
    assert rep.passed
    # 6 choices per coordinate, two coordinates, three checks per vector,
    # plus the m = 1 layer
    assert rep.cases == 3 * (6 + 36)


def test_majorization_lemma_specific_cases():
    binom = decreasing_rearrangement(pmf_signed_sum((1, 1, 1)))
    mixed = decreasing_rearrangement(pmf_signed_sum((1, 1, 2)))
    assert majorizes(binom, mixed)
    assert binom != mixed
    assert entropy(pmf_signed_sum((1, 1, 2))) > binomial_entropy(3)
    assert entropy(pmf_signed_sum((2, 2, 2))) == pytest.approx(binomial_entropy(3))


def test_entropy_corollary_small():
    rep = verify_entropy_corollary(3)
    assert rep.passed
    assert entropy(pmf_signed_sum((1,))) == 1.0 > binomial_entropy(2) / 2
    ratio = entropy(pmf_signed_sum((1, 1))) / 2
    assert ratio == pytest.approx(binomial_entropy(2) / 2, abs=1e-12)
    assert entropy(pmf_signed_sum((1, 2))) / 2 == pytest.approx(1.0)
    assert 1.0 > binomial_entropy(3) / 3


def test_entropy_translation_and_negation_invariance():
    rng = random.Random(31)
    for _ in range(40):
        m = rng.randint(1, 5)
        h = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(m)]
        base = entropy(pmf_signed_sum(h))
        assert entropy(pmf_signed_sum([-v for v in h])) == pytest.approx(base, abs=1e-12)
        shifted = pmf_signed_sum(h).translate(7)
        assert entropy(shifted) == pytest.approx(base, abs=1e-12)


def test_weighted_am_gm_against_entropy():
    # prod g(j)^(q_j) <= 2^(-H(q)) for any simplex g and any group q
    rng = random.Random(37)
    groups = []
    for b, counts in term_groups(4, 3)[0]:
        dense = (0,) * b + counts + (0,) * (4 - b - len(counts))
        groups.append(tuple(Fraction(x, sum(counts)) for x in dense))
    for _ in range(60):
        raw = [rng.random() + 1e-12 for _ in range(4)]
        s = sum(raw)
        g = [v / s for v in raw]
        q = rng.choice(groups)
        prod = 1.0
        for gj, qj in zip(g, q):
            if qj:
                prod *= gj ** float(qj)
        bound = 2.0 ** (-entropy_bits(q))
        assert prod <= bound + 1e-12


@given(st.lists(st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]), min_size=1, max_size=5))
@settings(max_examples=100)
def test_signed_sum_entropy_at_least_binomial(h):
    assert entropy(pmf_signed_sum(h)) >= binomial_entropy(len(h)) - 1e-12


def test_signed_sum_counts_match_sign_vector_count():
    values = [v for v in range(-3, 4) if v]
    for m in range(5):
        for h in product(values, repeat=m):
            sums = Counter(
                sum(v for v, e in zip(h, eps) if e) for eps in product((0, 1), repeat=m)
            )
            lo, counts = signed_sum_counts(h)
            assert lo == min(sums)
            assert counts == tuple(sums[z] for z in range(lo, max(sums) + 1))
            if h:
                pmf = pmf_signed_sum(h)
                assert pmf.support_offset == lo
                assert pmf.masses == tuple(Fraction(c, 2 ** m) for c in counts)
    assert signed_sum_counts(()) == (0, (1,))


def test_verifiers_fail_on_wrong_counts(monkeypatch):
    clean = (verify_majorization_lemma(2, 2).cases, verify_entropy_corollary(3).cases)
    assert clean == (3 * (4 + 16), 4 + 4)
    # gcube.entropy the attribute is the entropy function, not the module.
    entropy_module = importlib.import_module("gcube.entropy")

    def point_mass(h):
        return 0, (2 ** len(h),)  # all 2^m sign vectors on one sum

    monkeypatch.setattr(entropy_module, "signed_sum_counts", point_mass)
    maj = verify_majorization_lemma(2, 2)
    cor = verify_entropy_corollary(3)
    assert (maj.cases, cor.cases) == clean
    assert "h=(1,): binomial does not majorize" in maj.failures
    assert "h=(1, 1): expected entropy H_2, got 0.0" in maj.failures
    assert len(cor.failures) == cor.cases


@pytest.mark.parametrize("bad,wrong", [
    ((1, 1, 1, 1), 0.0),   # h = (±1, ±2), (±2, ±1): not all |h_i| equal
    ((1, 0, 2, 0, 1), 2.0),  # h = (±2, ±2): all |h_i| equal
])
def test_majorization_lemma_reports_each_vector(monkeypatch, bad, wrong):
    # The lemma values each distinct count vector once, yet a wrong entropy
    # still fails the check of every h that reaches the vector, with the
    # message a walk that values each h on its own prints.
    entropy_module = importlib.import_module("gcube.entropy")
    true_entropy = entropy_module._counts_entropy
    monkeypatch.setattr(entropy_module, "_counts_entropy",
                        lambda counts, denom: wrong if counts == bad
                        else true_entropy(counts, denom))
    rep = verify_majorization_lemma(2, 2)
    hits = [h for h in product((-2, -1, 1, 2), repeat=2)
            if signed_sum_counts(h)[1] == bad]
    if len({abs(v) for v in hits[0]}) == 1:
        expect = [f"h={h}: expected entropy H_2, got {wrong!r}" for h in hits]
    else:
        expect = [f"h={h}: entropy {wrong!r} not strictly above H_2" for h in hits]
    assert rep.cases == 3 * (4 + 16)
    assert len(hits) > 1 and rep.failures == expect


@pytest.mark.parametrize("bad,wrong", [
    ((1, 1, 1, 1), 0.0),   # h = (±1, ±2), (±2, ±1) at l = 2: strictly above
    ((1, 3, 3, 1), 3.0),   # h = (±1, ±1, ±1) at l = 3: equality
])
def test_entropy_corollary_reports_each_vector(monkeypatch, bad, wrong):
    # The corollary values each distinct count vector once per l, yet a
    # wrong entropy still fails the check of every h that reaches the
    # vector, in walk order, with the message of that h.
    entropy_module = importlib.import_module("gcube.entropy")
    clean = verify_entropy_corollary(4).cases
    true_entropy = entropy_module._counts_entropy
    monkeypatch.setattr(entropy_module, "_counts_entropy",
                        lambda counts, denom: wrong if counts == bad
                        else true_entropy(counts, denom))
    rep = verify_entropy_corollary(4)
    hits = [h for l in range(1, 4) for h in iter_signed_vectors(3, l)
            if signed_sum_counts(h)[1] == bad]
    ratio = wrong / len(hits[0])
    if len(hits[0]) == 3:
        expect = [f"n=4, h={h}: expected equality, got ratio {ratio!r}" for h in hits]
    else:
        floor = binomial_entropy(3) / 3
        expect = [f"n=4, h={h}: ratio {ratio!r} not strictly above {floor!r}"
                  for h in hits]
    assert rep.cases == clean
    assert len(hits) > 1 and rep.failures == expect


def _ref_signed_sum_counts(h):
    # The dict walk over reachable sums: the reference for the packed counts.
    counts = {0: 1}
    for step in h:
        nxt = {}
        for z, c in counts.items():
            nxt[z] = nxt.get(z, 0) + c
            nxt[z + step] = nxt.get(z + step, 0) + c
        counts = nxt
    lo, hi = min(counts), max(counts)
    return lo, tuple(counts.get(z, 0) for z in range(lo, hi + 1))


@given(st.lists(st.integers(-40, 40), max_size=20))
@settings(max_examples=300)
def test_packed_counts_match_dict_walk(h):
    assert signed_sum_counts(h) == _ref_signed_sum_counts(h)


def test_packed_counts_at_slot_boundaries():
    # m = 7 is the last one-byte slot; m = 8 and m = 16 need 2 and 3 bytes.
    for m in (0, 1, 7, 8, 15, 16, 20):
        assert signed_sum_counts((0,) * m) == (0, (2 ** m,))
        ones = signed_sum_counts((1,) * m)
        assert ones == (0, tuple(math.comb(m, j) for j in range(m + 1)))
        mixed = tuple(v if j % 2 else -v for j, v in enumerate(range(1, m + 1)))
        assert signed_sum_counts(mixed) == _ref_signed_sum_counts(mixed)


BINOMIAL_ENTROPY_HEX = {
    1: "0x1.0000000000000p+0",
    2: "0x1.8000000000000p+0",
    3: "0x1.cfafec54831f2p+0",
    7: "0x1.392b7dca2916fp+1",
    100: "0x1.179de2079dadbp+2",
    999: "0x1.81df7e1318a61p+2",
    1000: "0x1.81eb5123e3086p+2",
    1020: "0x1.82d55b03b5a03p+2",
    1021: "0x1.82e0efc9e345ap+2",
    5000: "0x1.cc388dc5f88f8p+2",
}


def test_binomial_entropy_bits_pinned():
    # Both divisors, either side of the float-overflow switch at m = 1020.
    got = {m: binomial_entropy(m).hex() for m in BINOMIAL_ENTROPY_HEX}
    assert got == BINOMIAL_ENTROPY_HEX


def test_binomial_entropies_match_binomial_entropy():
    # Pascal rows give the bits of the ratio walk on both sides of the
    # divisor switch at m = 1020.
    sweep = [h.hex() for h in binomial_entropies(1100)]
    assert sweep == [binomial_entropy(m).hex() for m in range(1, 1101)]
    assert {m: sweep[m - 1] for m in BINOMIAL_ENTROPY_HEX if m <= 1100} == {
        m: v for m, v in BINOMIAL_ENTROPY_HEX.items() if m <= 1100
    }
    assert list(binomial_entropies(0)) == []


def test_binomial_entropy_streams_its_row():
    # The half row of m = 20,000 would take about 25 MB; the ratio walk
    # holds one binomial at a time.
    tracemalloc.start()
    try:
        binomial_entropy(20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("m", [1021, 1500, 5000])
def test_binomial_entropy_matches_mpmath_above_float_range(m):
    # With 2^m past the float range each mass is still rounded once.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        denom = mpmath.mpf(2) ** m
        ref = -mpmath.fsum(p * mpmath.log(p, 2)
                           for p in (math.comb(m, j) / denom for j in range(m + 1)))
        assert abs((binomial_entropy(m) - ref) / ref) <= 5e-16


def _walk_vectors():
    values = [v for v in range(-4, 5) if v]
    for m in range(1, 5):
        yield from product(values, repeat=m)
    for n in range(2, 9):
        for l in range(1, n):
            yield from iter_signed_vectors(n - 1, l)


def test_walk_entropies_match_entropy_bits():
    vectors = list(_walk_vectors())
    assert len(vectors) == 7952
    for h in vectors:
        counts = signed_sum_counts(h)[1]
        denom = 2 ** len(h)
        expect = entropy_bits([c / denom for c in counts])
        assert _counts_entropy(counts, denom).hex() == expect.hex(), h


def test_counts_entropy_checks_total_exactly():
    assert _counts_entropy((1, 2, 1), 4) == 1.5
    with pytest.raises(ValueError, match="masses must sum to 1"):
        _counts_entropy((1, 2, 1), 8)
    with pytest.raises(ValueError, match="masses must sum to 1"):
        _counts_entropy((2 ** 60, 1), 2 ** 60)


@pytest.mark.parametrize("call", [
    lambda: PMFVector(0, (0.5, -0.5, 1.0)),
    lambda: binomial_entropy_bounds(0),
    lambda: verify_majorization_lemma(6, 4),
    lambda: verify_entropy_corollary(9),
    lambda: verify_entropy_corollary(1),
], ids=["negative-mass", "bounds-m0", "majorization-m6", "corollary-n9",
        "corollary-n1"])
def test_input_checks(call):
    with pytest.raises(ValueError):
        call()
