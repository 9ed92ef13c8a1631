"""Differential tests of the integer-first CycScalar against a Fraction-only reference.

RefCyc keeps every coefficient a Fraction, multiplies as polynomials in zeta
reduced by its minimal polynomial, and inverts by Cramer's rule on the matrix
of multiplication, so it shares no arithmetic shortcut with CycScalar.  The
last test checks that the slotted loop value types pickle, hash and compare
as frozen values.
"""

import dataclasses
import pickle
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from affsch.loopalg import CycScalar, LaurentMatrix, LoopVector, build_chevalley, root_line_vectors
from affsch.twist import twisted_datum


class RefCyc:
    """a + b*zeta over Q with Fraction coefficients; zeta = 1, -1 or a cube root of 1."""

    def __init__(self, e, a, b=0):
        a, b = Fraction(a), Fraction(b)
        if e < 3:  # zeta is a rational number: fold it into a
            a, b = a + (1 if e == 1 else -1) * b, Fraction(0)
        self.e, self.a, self.b = e, a, b

    def __add__(self, other):
        return RefCyc(self.e, self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return RefCyc(self.e, self.a - other.a, self.b - other.b)

    def __neg__(self):
        return RefCyc(self.e, -self.a, -self.b)

    def __mul__(self, other):
        # (a + b z)(c + d z) = p0 + p1 z + p2 z^2, and z^2 = -1 - z when e = 3
        p0 = self.a * other.a
        p1 = self.a * other.b + self.b * other.a
        p2 = self.b * other.b
        return RefCyc(self.e, p0 - p2, p1 - p2)

    def inverse(self):
        # solve (a + b z)(u + v z) = 1: columns y*1 = (a, b) and y*z = (-b, a - b)
        m00, m01, m10, m11 = self.a, -self.b, self.b, self.a - self.b
        det = m00 * m11 - m01 * m10
        return RefCyc(self.e, m11 / det, -m10 / det)

    def scale(self, r):
        return self * RefCyc(self.e, r)

    @staticmethod
    def zeta_power(e, n):
        out, zeta = RefCyc(e, 1), RefCyc(e, 0, 1)
        for _ in range(n % e):
            out = out * zeta
        return out


def same(x: CycScalar, ref: RefCyc) -> bool:
    exact = all(type(c) in (int, Fraction) for c in (x.a, x.b))
    return exact and (x.e, x.a, x.b) == (ref.e, ref.a, ref.b)


orders = st.sampled_from([1, 2, 3])
rationals = st.one_of(
    st.integers(-40, 40),
    st.fractions(min_value=-40, max_value=40, max_denominator=12),
)
integers = st.integers(-40, 40)
fast = settings(max_examples=150, deadline=None, database=None)


@fast
@given(orders, rationals, rationals, rationals, rationals, rationals)
def test_field_operations_match_the_fraction_reference(e, a, b, c, d, r):
    x, y = CycScalar.of(e, a, b), CycScalar.of(e, c, d)
    rx, ry = RefCyc(e, a, b), RefCyc(e, c, d)
    assert same(x, rx) and same(y, ry)
    assert same(x + y, rx + ry)
    assert same(x - y, rx - ry)
    assert same(-x, -rx)
    assert same(x * y, rx * ry)
    assert same(x.scale(r), rx.scale(r))
    assume(y)
    assert same(y.inverse(), ry.inverse())
    assert same(x / y, rx * ry.inverse())
    assert same(r / y, ry.inverse().scale(r))


@fast
@given(orders, st.integers(-20, 20))
def test_zeta_powers_match_the_fraction_reference(e, n):
    assert same(CycScalar.zeta_power(e, n), RefCyc.zeta_power(e, n))


@pytest.mark.parametrize("e", [1, 2, 3])
def test_zeta_powers_are_shared_values_equal_to_built_ones(e):
    zeta = CycScalar.of(e, 0, 1)
    built = CycScalar.of(e, 1)
    powers = [built]
    for _ in range(e - 1):
        built = built * zeta
        powers.append(built)
    for n in range(-12, 13):
        value = CycScalar.zeta_power(e, n)
        assert value == powers[n % e] and type(value.a) is int and type(value.b) is int
        assert value is CycScalar.zeta_power(e, n % e)  # one value per (e, n mod e)


@pytest.mark.parametrize("e", [0, 4, -1, 6])
def test_zeta_power_refuses_a_bad_order(e):
    for n in (0, 1, 5):
        with pytest.raises(ValueError, match="cyclotomic order must be 1, 2, or 3"):
            CycScalar.zeta_power(e, n)


@fast
@given(orders, integers, integers, integers, integers, st.integers(-20, 20))
def test_integer_inputs_stay_integers_until_a_division(e, a, b, c, d, n):
    x, y = CycScalar.of(e, a, b), CycScalar.of(e, c, d)
    ring = [x, y, x + y, x - y, -x, x * y, x.scale(c), CycScalar.zeta_power(e, n)]
    for value in ring:
        assert type(value.a) is int and type(value.b) is int, value
    assume(y)
    for value in (y.inverse(), x / y, 1 / y):
        # a division makes a Fraction, never a float
        assert all(type(coeff) in (int, Fraction) for coeff in (value.a, value.b)), value


def test_slotted_loop_values_pickle_hash_and_compare_as_values():
    """CycScalar, LoopVector and RelativeAffineRoot hold no __dict__ and behave as frozen values."""
    datum = twisted_datum("3D4")
    _, _, rel, vec = root_line_vectors(datum, 1)[0]
    scalar = CycScalar.of(3, Fraction(1, 2), -1)
    rebuilt = {
        scalar: CycScalar(3, Fraction(1, 2), -1),
        rel: dataclasses.replace(rel),
        vec: LoopVector.make(vec.algebra, vec.e, vec.terms),
    }
    for value, twin in rebuilt.items():
        assert not hasattr(value, "__dict__") and type(value).__slots__
        assert value == twin and hash(value) == hash(twin) and value is not twin
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, dataclasses.fields(value)[0].name, None)
        # a LoopVector pickles with its algebra, which compares by identity
        algebra, copy = pickle.loads(pickle.dumps((getattr(value, "algebra", None), value)))
        if algebra is not None:
            twin = LoopVector(algebra, vec.e, vec.terms)
            assert copy.terms == vec.terms
        assert copy == twin and hash(copy) == hash(twin)


@pytest.mark.parametrize("e", [1, 2, 3])
@pytest.mark.parametrize("a,b", [(1.5, 0.25), (1.0, 0), (0, 2.0), (True, 0), (1, False), (None, 0)])
def test_of_refuses_coefficients_that_are_not_exact(e, a, b):
    with pytest.raises(ValueError, match="not ints or Fractions"):
        CycScalar.of(e, a, b)


def test_inexact_coefficients_do_not_reach_a_loop_vector():
    algebra = build_chevalley("A2")
    for c in (0.5, 1.0, True):
        with pytest.raises(ValueError, match="not ints or Fractions"):
            LoopVector.make(algebra, 1, [(("X", (1, 0)), 0, c)])
        with pytest.raises(ValueError, match="not ints or Fractions"):
            LoopVector.make(algebra, 1, [(("X", (1, 0)), 0, 1)]).scale(c)
        with pytest.raises(ValueError, match="not ints or Fractions"):
            LaurentMatrix(1, 2).add_term(0, 1, 0, c)
    vec = LoopVector.make(algebra, 1, [(("X", (1, 0)), 0, Fraction(1, 2)), (("X", (1, 0)), 0, 1)])
    assert vec.terms == ((("X", (1, 0)), 0, CycScalar.of(1, Fraction(3, 2))),)
