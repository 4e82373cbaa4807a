"""Property-based invariants for the numeric and sampling primitives."""
from __future__ import annotations

import math
import re
from decimal import ROUND_HALF_UP, Decimal, localcontext

from hypothesis import example, given, strategies as st

from clincorp.agreement import prf
from clincorp.numfmt import fmt_metric, fmt_percent, round_half_up
from clincorp.refdata import matches_display
from clincorp.tagsets import (
    VALID_ASSERTIONS,
    AssertionType,
    EntityType,
    assertion_valid,
)
from clincorp.workflow import SplitMix64, kfold, seeded_shuffle

@st.composite
def count_triples(draw):
    count_a = draw(st.integers(0, 500))
    count_b = draw(st.integers(0, 500))
    agreed = draw(st.integers(0, min(count_a, count_b)))
    return agreed, count_a, count_b


@given(count_triples())
def test_prf_measures_bounded_and_consistent(triple):
    agreed, count_a, count_b = triple
    report = prf(agreed, count_a, count_b)
    for value in (report.precision, report.recall, report.f):
        assert 0.0 <= value <= 1.0
    if not report.vacuous and report.precision > 0 and report.recall > 0:
        low = min(report.precision, report.recall)
        high = max(report.precision, report.recall)
        assert low - 1e-12 <= report.f <= high + 1e-12


@given(count_triples())
def test_prf_swap_symmetry(triple):
    agreed, count_a, count_b = triple
    forward = prf(agreed, count_a, count_b)
    reverse = prf(agreed, count_b, count_a)
    assert forward.precision == reverse.recall
    assert forward.recall == reverse.precision
    assert forward.f == reverse.f


@given(st.integers(1, 500))
def test_prf_full_agreement_is_perfect(n):
    report = prf(n, n, n)
    assert (report.precision, report.recall, report.f) == (1.0, 1.0, 1.0)
    assert not report.vacuous


@given(st.integers(1, 500), st.integers(1, 500))
def test_prf_no_agreement_is_zero(count_a, count_b):
    report = prf(0, count_a, count_b)
    assert (report.precision, report.recall, report.f) == (0.0, 0.0, 0.0)


@given(st.floats(-1e6, 1e6), st.integers(0, 4))
def test_round_half_up_idempotent_and_close(x, places):
    rounded = round_half_up(x, places)
    assert round_half_up(rounded, places) == rounded
    assert abs(rounded - x) <= 0.5 * 10 ** -places + 1e-9


def _decimal_round_half_up(value, places: int) -> float:
    """Reference rounding: Decimal arithmetic on str(value), with precision
    to spare for any float or the integers drawn below."""
    with localcontext() as ctx:
        ctx.prec = 1000
        step = Decimal(1).scaleb(-places)
        return float(Decimal(str(value)).quantize(step, rounding=ROUND_HALF_UP))


@given(
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(-10**300, 10**300),
    ),
    st.integers(0, 6),
)
@example(-0.0, 0)
@example(-0.0, 3)
@example(1e-05, 4)
@example(-1.5e-05, 5)
@example(1e16, 2)
@example(2.5e-07, 6)
@example(5e-324, 6)
@example(1.7976931348623157e308, 6)
@example(0.0005, 3)
@example(-0.0005, 3)
@example(18.575, 2)
@example(2.675, 2)
@example(7, 0)
def test_round_half_up_matches_decimal_reference(value, places):
    got = round_half_up(value, places)
    want = _decimal_round_half_up(value, places)
    assert got == want
    assert math.copysign(1.0, got) == math.copysign(1.0, want)  # -0.0 stays -0.0


@given(st.floats(0, 1e6))
def test_round_half_up_odd_symmetry(x):
    assert round_half_up(-x, 2) == -round_half_up(x, 2)


@given(st.floats(0, 1))
def test_fmt_metric_shape_and_value(x):
    text = fmt_metric(x)
    assert re.fullmatch(r"\d+\.\d{3}", text)
    assert float(text) == round_half_up(x, 3)


@given(st.floats(0, 100))
def test_fmt_percent_agrees_with_display_matching(x):
    text = fmt_percent(x)
    assert re.fullmatch(r"\d+\.\d{2}", text)
    assert matches_display(x, text, 0.0)


@given(st.integers(min_value=0))
def test_splitmix64_outputs_are_64_bit_and_deterministic(seed):
    gen_a, gen_b = SplitMix64(seed), SplitMix64(seed)
    stream = [gen_a.next() for _ in range(5)]
    assert stream == [gen_b.next() for _ in range(5)]
    assert all(0 <= v < 1 << 64 for v in stream)
    folded = SplitMix64(seed + (1 << 64))
    assert [folded.next() for _ in range(5)] == stream


@given(st.lists(st.text(min_size=1, max_size=6), max_size=80), st.integers(0, 2**32))
def test_seeded_shuffle_is_a_pure_deterministic_permutation(items, seed):
    snapshot = list(items)
    once = seeded_shuffle(items, seed)
    assert items == snapshot
    assert sorted(once) == sorted(items)
    assert seeded_shuffle(items, seed) == once


@st.composite
def fold_inputs(draw):
    k = draw(st.integers(2, 12))
    n = draw(st.integers(k, 300))
    seed = draw(st.integers(0, 2**32))
    return [f"doc{i}" for i in range(n)], k, seed


@given(fold_inputs())
def test_kfold_partitions_evenly(case):
    ids, k, seed = case
    manifest = kfold(ids, k, seed)
    assert len(manifest.folds) == k
    flat = [d for fold in manifest.folds for d in fold]
    assert sorted(flat) == sorted(ids)
    sizes = [len(fold) for fold in manifest.folds]
    assert max(sizes) - min(sizes) <= 1
    assert manifest.folds == kfold(ids, k, seed).folds


@given(st.sampled_from(sorted(EntityType, key=lambda e: e.value)),
       st.sampled_from(sorted(AssertionType, key=lambda a: a.value)))
def test_assertion_validity_matches_published_matrix(etype, assertion):
    assert assertion_valid(etype, assertion) == (assertion in VALID_ASSERTIONS[etype])
