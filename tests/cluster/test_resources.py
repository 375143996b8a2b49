"""Unit + property tests for ResourceVector."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.cluster.resources import RESOURCES, ResourceVector


def vectors(min_value=0.0, max_value=1e6):
    component = st.floats(
        min_value=min_value, max_value=max_value, allow_nan=False, allow_infinity=False
    )
    return st.builds(ResourceVector, component, component, component, component)


class TestBasics:
    def test_zero(self):
        assert ResourceVector.zero().is_zero()

    def test_uniform(self):
        v = ResourceVector.uniform(2.0)
        assert all(x == 2.0 for x in v)

    def test_from_dict_defaults_missing(self):
        v = ResourceVector.from_dict({"cpu": 2})
        assert v.cpu == 2 and v.memory == 0 and v.disk_bw == 0 and v.net_bw == 0

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(KeyError):
            ResourceVector.from_dict({"gpu": 1})

    def test_getitem(self):
        v = ResourceVector(1, 2, 3, 4)
        assert [v[n] for n in RESOURCES] == [1, 2, 3, 4]

    def test_getitem_unknown(self):
        with pytest.raises(KeyError):
            ResourceVector()["gpu"]

    def test_immutability(self):
        v = ResourceVector(1, 1, 1, 1)
        with pytest.raises(AttributeError):
            v.cpu = 5.0

    def test_as_dict_roundtrip(self):
        v = ResourceVector(1, 2, 3, 4)
        assert ResourceVector.from_dict(v.as_dict()) == v

    def test_equality_and_hash(self):
        assert ResourceVector(1, 2, 3, 4) == ResourceVector(1, 2, 3, 4)
        assert hash(ResourceVector(1, 2, 3, 4)) == hash(ResourceVector(1, 2, 3, 4))
        assert ResourceVector(1, 2, 3, 4) != ResourceVector(1, 2, 3, 5)


class TestArithmetic:
    def test_add_sub(self):
        a = ResourceVector(1, 2, 3, 4)
        b = ResourceVector(4, 3, 2, 1)
        assert a + b == ResourceVector(5, 5, 5, 5)
        assert (a + b) - b == a

    def test_scalar_mul_div(self):
        v = ResourceVector(1, 2, 3, 4)
        assert v * 2 == ResourceVector(2, 4, 6, 8)
        assert 2 * v == v * 2
        assert (v * 2) / 2 == v

    def test_elementwise_min_max(self):
        a = ResourceVector(1, 5, 3, 7)
        b = ResourceVector(2, 4, 6, 1)
        assert a.elementwise_min(b) == ResourceVector(1, 4, 3, 1)
        assert a.elementwise_max(b) == ResourceVector(2, 5, 6, 7)

    def test_elementwise_mul(self):
        a = ResourceVector(1, 2, 3, 4)
        assert a.elementwise_mul(ResourceVector(2, 2, 2, 2)) == a * 2

    def test_clamp(self):
        v = ResourceVector(-1, 5, 10, 0.5)
        lo = ResourceVector(0, 0, 0, 1)
        hi = ResourceVector(4, 4, 4, 4)
        assert v.clamp(lo, hi) == ResourceVector(0, 4, 4, 1)

    def test_scale_named_dims(self):
        v = ResourceVector(2, 2, 2, 2)
        scaled = v.scale({"cpu": 2.0, "net_bw": 0.5})
        assert scaled == ResourceVector(4, 2, 2, 1)

    def test_scale_unknown_dim(self):
        with pytest.raises(KeyError):
            ResourceVector().scale({"gpu": 2.0})

    def test_replace(self):
        v = ResourceVector(1, 2, 3, 4).replace(memory=9)
        assert v == ResourceVector(1, 9, 3, 4)


class TestPredicates:
    def test_fits_within(self):
        small = ResourceVector(1, 1, 1, 1)
        big = ResourceVector(2, 2, 2, 2)
        assert small.fits_within(big)
        assert not big.fits_within(small)

    def test_fits_within_tolerance(self):
        a = ResourceVector(1 + 1e-12, 1, 1, 1)
        assert a.fits_within(ResourceVector(1, 1, 1, 1))

    def test_any_negative(self):
        assert ResourceVector(-1, 0, 0, 0).any_negative()
        assert not ResourceVector(0, 0, 0, 0).any_negative()

    @pytest.mark.parametrize(
        "x,y,tolerance",
        [
            (math.nan, 0.0, 1e-9),
            (math.nan, math.nan, 1e-9),
            (0.0, math.nan, math.inf),
            (math.inf, math.inf, 1e-9),
            (-math.inf, -math.inf, 0.0),
            (math.inf, -math.inf, 1e-9),
            (math.inf, 1.0, math.inf),
            (-0.0, 0.0, 0.0),
            (0.0, -0.0, 1e-9),
            (1.0, 1.0 + 1e-6, 1e-6),  # not exactly representable
            (1.0, 1.5, 0.5),  # exactly at tolerance
            (1.0, 1.5, 0.4999999999999999),
            (-2.0, 2.0, 4.0),
            (3.0, 3.0, -1.0),
        ],
    )
    @pytest.mark.parametrize("field", RESOURCES)
    def test_approx_equal_matches_all_form(self, field, x, y, tolerance):
        def reference(a, b):
            return all(
                abs(getattr(a, n) - getattr(b, n)) <= tolerance for n in RESOURCES
            )

        base = ResourceVector(1.0, 2.0, 3.0, 4.0)
        a = base.replace(**{field: x})
        b = base.replace(**{field: y})
        assert a.approx_equal(b, tolerance=tolerance) is reference(a, b)
        assert b.approx_equal(a, tolerance=tolerance) is reference(b, a)

    def test_dominant_share(self):
        usage = ResourceVector(8, 16, 100, 100)
        cap = ResourceVector(16, 64, 500, 1250)
        assert usage.dominant_share(cap) == pytest.approx(0.5)

    def test_bottleneck(self):
        usage = ResourceVector(2, 2, 400, 10)
        cap = ResourceVector(16, 64, 500, 1250)
        assert usage.bottleneck(cap) == "disk_bw"

    def test_fraction_with_zero_capacity(self):
        fractions = ResourceVector(1, 1, 1, 1).total_fraction_of(
            ResourceVector(2, 0, 2, 2)
        )
        assert fractions["memory"] == 0.0


class TestProperties:
    @given(vectors(), vectors())
    def test_addition_commutes(self, a, b):
        assert (a + b).approx_equal(b + a)

    @given(vectors(), vectors(), vectors())
    def test_addition_associates(self, a, b, c):
        assert ((a + b) + c).approx_equal(a + (b + c), tolerance=1e-6)

    @given(vectors())
    def test_zero_identity(self, v):
        assert (v + ResourceVector.zero()).approx_equal(v)

    @given(vectors(), vectors())
    def test_min_fits_within_both(self, a, b):
        m = a.elementwise_min(b)
        assert m.fits_within(a) and m.fits_within(b)

    @given(vectors(), vectors())
    def test_both_fit_within_max(self, a, b):
        m = a.elementwise_max(b)
        assert a.fits_within(m) and b.fits_within(m)

    @given(vectors(min_value=-1e6))
    def test_clamp_nonnegative_never_negative(self, v):
        assert not v.clamp_nonnegative().any_negative(tolerance=0)

    @given(vectors(), vectors(max_value=1e3), vectors(max_value=1e3))
    def test_clamp_respects_bounds(self, v, lo_raw, hi_raw):
        lo = lo_raw.elementwise_min(hi_raw)
        hi = lo_raw.elementwise_max(hi_raw)
        clamped = v.clamp(lo, hi)
        assert lo.fits_within(clamped) and clamped.fits_within(hi)

    @given(vectors(max_value=1e3), vectors(min_value=0.1, max_value=1e3))
    def test_dominant_share_bounds_fractions(self, usage, cap):
        share = usage.dominant_share(cap)
        for frac in usage.total_fraction_of(cap).values():
            assert frac <= share + 1e-9
