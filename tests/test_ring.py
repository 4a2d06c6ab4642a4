"""Exactness tests for the cyclotomic integer ring."""
import cmath
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from p2flis.ring import (Cyclo10, ONE, PHI, PHI2_ZETA, PHI_ZETA, ZERO, ZETA,
                         ZETA_POW, cross_area2, cross_sign, dot_sign,
                         floor_phi, grid_floors, imag_sign, phi_power,
                         quad_sign, real_sign, sq_abs)

Z = cmath.exp(1j * math.pi / 5)
GOLD = (1 + math.sqrt(5)) / 2

coeff = st.integers(min_value=-40, max_value=40)
elem = st.builds(Cyclo10, coeff, coeff, coeff, coeff)


def close(x: complex, y: complex) -> bool:
    return abs(x - y) < 1e-8


def test_constants():
    assert complex(ZERO) == 0
    assert close(complex(ONE), 1)
    assert close(complex(ZETA), Z)
    assert close(complex(PHI), GOLD)
    assert ZETA_POW[5] == Cyclo10(-1)
    for k in range(10):
        assert close(complex(ZETA_POW[k]), Z ** k)
        assert close(complex(PHI_ZETA[k]), GOLD * Z ** k)
        assert close(complex(PHI2_ZETA[k]), GOLD * GOLD * Z ** k)


@given(elem, elem)
def test_mul_matches_complex(a, b):
    assert close(complex(a * b), complex(a) * complex(b))


@given(elem, elem, elem)
def test_ring_axioms(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == ZERO


@given(elem, elem)
def test_conj_is_homomorphism(a, b):
    assert (a * b).conj() == a.conj() * b.conj()
    assert (a + b).conj() == a.conj() + b.conj()
    assert a.conj().conj() == a
    assert close(complex(a.conj()), complex(a).conjugate())


@given(elem, st.integers(min_value=-15, max_value=25))
def test_rotation(a, k):
    assert a.rotated(k) == a * ZETA_POW[k % 10]
    assert close(complex(a.rotated(k)), complex(a) * Z ** (k % 10))


@given(elem)
def test_phi_multiplication(a):
    assert a.times_phi() == a * PHI
    assert a.times_phi().div_phi() == a
    assert a.div_phi().times_phi() == a


@given(st.integers(min_value=-12, max_value=12),
       st.integers(min_value=-12, max_value=12))
def test_phi_power_homomorphism(m, n):
    assert phi_power(m + n) == phi_power(m) * phi_power(n)


@given(elem)
@settings(max_examples=300)
def test_signs_match_float_when_decisive(a):
    z = complex(a)
    if abs(z.real) > 1e-6:
        assert real_sign(a) == (1 if z.real > 0 else -1)
    if abs(z.imag) > 1e-6:
        assert imag_sign(a) == (1 if z.imag > 0 else -1)


def test_quad_sign_beyond_float_precision():
    # fib(n)*phi - fib(n+1) = -(-1/phi)**n shrinks geometrically; its sign
    # alternates, which doubles cannot resolve once the terms pass 1e16.
    a, b = 1, 1  # fib(n), fib(n+1)
    for n in range(1, 80):
        assert quad_sign(-b, a) == (1 if n % 2 else -1)
        a, b = b, a + b


def test_real_subring():
    assert PHI.is_real and PHI.real_pair() == (0, 1)
    assert (PHI * PHI).real_pair() == (1, 1)
    x = Cyclo10(3, 0, -2, 2)
    assert x.is_real and x.real_pair() == (5, -2)
    assert not ZETA.is_real


@given(elem)
def test_sq_abs(a):
    pa = sq_abs(a)
    assert quad_sign(*pa) >= 0
    assert (quad_sign(*pa) == 0) == (a == ZERO)
    assert abs(pa[0] + pa[1] * GOLD - abs(complex(a)) ** 2) < 1e-6


@given(elem, elem)
def test_cross_and_dot(u, v):
    zu, zv = complex(u), complex(v)
    cr = (zu.conjugate() * zv).imag
    dt = (zu.conjugate() * zv).real
    if abs(cr) > 1e-6:
        assert cross_sign(u, v) == (1 if cr > 0 else -1)
    if abs(dt) > 1e-6:
        assert dot_sign(u, v) == (1 if dt > 0 else -1)
    a, b = cross_area2(u, v)
    assert abs((a + b * GOLD) * math.sin(math.pi / 5) - cr) < 1e-6


def test_hash_and_equality():
    assert Cyclo10(1, 2, 3, 4) == Cyclo10(1, 2, 3, 4)
    assert hash(Cyclo10(1, 2, 3, 4)) == hash(Cyclo10(1, 2, 3, 4))
    assert Cyclo10(7) == 7
    assert len({ZETA, ZETA, PHI}) == 2


@given(st.integers(min_value=-10**30, max_value=10**30)
       | st.integers(min_value=0, max_value=400).map(lambda e: -(10**e) + 7))
def test_floor_phi_is_exact(m):
    # f <= m*phi < f + 1, decided by quad_sign
    f = floor_phi(m)
    assert quad_sign(-f, m) >= 0 and quad_sign(-f - 1, m) < 0


@given(elem.map(lambda x: x * phi_power(40)) | elem)
def test_grid_floors_are_exact(x):
    # the floors of 8*(2 Re x) and 8*Im(x)/sin(pi/5), each an a + b*phi
    # form, are the integers just below them
    gx, gy = grid_floors(*x)
    for f, (a, b) in ((gx, (2 * x.c0 - x.c2 + x.c3, x.c1 + x.c2 - x.c3)),
                      (gy, (x.c1, x.c2 + x.c3))):
        assert quad_sign(8 * a - f, 8 * b) >= 0
        assert quad_sign(8 * a - f - 1, 8 * b) < 0
    if abs(x.c0) + abs(x.c1) + abs(x.c2) + abs(x.c3) < 10**6:
        z = complex(x)
        assert abs(gx - 16 * z.real) <= 1 + 1e-6
        assert abs(gy - 8 * z.imag / math.sin(math.pi / 5)) <= 1 + 1e-6
