"""Exact arithmetic in the ring Z[zeta], zeta = exp(i*pi/5).

Every point and displacement in this package is an element of Z[zeta],
stored as four integers (c0, c1, c2, c3) meaning

    c0 + c1*zeta + c2*zeta**2 + c3*zeta**3.

zeta is a primitive 10th root of unity with minimal polynomial
z**4 - z**3 + z**2 - z + 1, so reduction uses

    zeta**4 = zeta**3 - zeta**2 + zeta - 1,    zeta**5 = -1.

The golden ratio phi = 2*cos(pi/5) = 1 + zeta**2 - zeta**3 lives in the
ring, as does 1/phi = phi - 1, so multiplying or dividing by phi is exact.
Real elements form the subring Z[phi]; sign tests on a + b*phi reduce to
integer comparisons, which gives exact orientation and comparison
predicates for all the geometry built on top.
"""
from __future__ import annotations

import cmath
import math
from typing import Iterator


class Cyclo10:
    """An element of Z[zeta].  Immutable, hashable, exact."""

    __slots__ = ("c0", "c1", "c2", "c3")

    def __init__(self, c0: int, c1: int = 0, c2: int = 0, c3: int = 0) -> None:
        object.__setattr__(self, "c0", c0)
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)
        object.__setattr__(self, "c3", c3)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Cyclo10 is immutable")

    # -- basics --------------------------------------------------------

    @property
    def coeffs(self) -> tuple[int, int, int, int]:
        return (self.c0, self.c1, self.c2, self.c3)

    def __iter__(self) -> Iterator[int]:
        return iter(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Cyclo10):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == (other, 0, 0, 0)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Cyclo10{self.coeffs}"

    def __bool__(self) -> bool:
        return self.coeffs != (0, 0, 0, 0)

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "Cyclo10") -> "Cyclo10":
        return Cyclo10(self.c0 + other.c0, self.c1 + other.c1,
                       self.c2 + other.c2, self.c3 + other.c3)

    def __sub__(self, other: "Cyclo10") -> "Cyclo10":
        return Cyclo10(self.c0 - other.c0, self.c1 - other.c1,
                       self.c2 - other.c2, self.c3 - other.c3)

    def __neg__(self) -> "Cyclo10":
        return Cyclo10(-self.c0, -self.c1, -self.c2, -self.c3)

    def __mul__(self, other: "Cyclo10 | int") -> "Cyclo10":
        if isinstance(other, int):
            return Cyclo10(self.c0 * other, self.c1 * other,
                           self.c2 * other, self.c3 * other)
        a0, a1, a2, a3 = self.coeffs
        b0, b1, b2, b3 = other.coeffs
        # convolution up to degree 6, then reduce zeta**4..zeta**6
        e0 = a0 * b0
        e1 = a0 * b1 + a1 * b0
        e2 = a0 * b2 + a1 * b1 + a2 * b0
        e3 = a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0
        e4 = a1 * b3 + a2 * b2 + a3 * b1
        e5 = a2 * b3 + a3 * b2
        e6 = a3 * b3
        return Cyclo10(e0 - e4 - e5, e1 + e4 - e6, e2 - e4, e3 + e4)

    __rmul__ = __mul__

    def rotated(self, k: int) -> "Cyclo10":
        """Rotate by k * 36 degrees, i.e. multiply by zeta**k."""
        k %= 10
        c0, c1, c2, c3 = self.coeffs
        if k >= 5:
            k -= 5
            c0, c1, c2, c3 = -c0, -c1, -c2, -c3
        for _ in range(k):
            c0, c1, c2, c3 = -c3, c0 + c3, c1 - c3, c2 + c3
        return Cyclo10(c0, c1, c2, c3)

    def times_phi(self) -> "Cyclo10":
        """Multiply by phi = 1 + zeta**2 - zeta**3, exactly."""
        c0, c1, c2, c3 = self.coeffs
        # phi * zeta**k for k = 0..3: (1,0,1,-1), (1,0,1,0), (0,1,0,1), (-1,1,0,1)
        return Cyclo10(c0 + c1 - c3, c2 + c3, c0 + c1, -c0 + c2 + c3)

    def div_phi(self) -> "Cyclo10":
        """Divide by phi (phi is a unit: 1/phi = phi - 1)."""
        return self.times_phi() - self

    def conj(self) -> "Cyclo10":
        """Complex conjugate (zeta -> zeta**-1)."""
        c0, c1, c2, c3 = self.coeffs
        return Cyclo10(c0 + c1, -c1, c1 - c3, -c1 - c2)

    # -- real subring Z[phi] ------------------------------------------

    @property
    def is_real(self) -> bool:
        return self.c1 == 0 and self.c2 == -self.c3

    def real_pair(self) -> tuple[int, int]:
        """For a real element, return (a, b) with value a + b*phi."""
        if not self.is_real:
            raise ValueError(f"{self!r} is not real")
        return (self.c0 - self.c2, self.c2)

    # -- numeric embedding --------------------------------------------

    def __complex__(self) -> complex:
        z = cmath.exp(1j * math.pi / 5)
        return self.c0 + self.c1 * z + self.c2 * z * z + self.c3 * z ** 3


ZERO = Cyclo10(0)
ONE = Cyclo10(1)
ZETA = Cyclo10(0, 1)
PHI = Cyclo10(1, 0, 1, -1)

#: zeta**k for k = 0..9
ZETA_POW = tuple(ONE.rotated(k) for k in range(10))
#: phi * zeta**k for k = 0..9
PHI_ZETA = tuple(PHI.rotated(k) for k in range(10))
#: phi**2 * zeta**k for k = 0..9
PHI2_ZETA = tuple(PHI.times_phi().rotated(k) for k in range(10))


def phi_power(n: int) -> Cyclo10:
    """phi**n for any integer n (phi is a unit of the ring)."""
    x = ONE
    if n >= 0:
        for _ in range(n):
            x = x.times_phi()
    else:
        for _ in range(-n):
            x = x.div_phi()
    return x


def quad_sign(a: int, b: int) -> int:
    """Exact sign of a + b*phi, phi = (1 + sqrt(5)) / 2."""
    # a + b*phi = (2a + b + b*sqrt(5)) / 2
    p, q = 2 * a + b, b
    if p >= 0 and q >= 0:
        return 1 if (p or q) else 0
    if p <= 0 and q <= 0:
        return -1
    # opposite signs: compare p**2 with 5 q**2 (equal only when both zero)
    if p > 0:
        return 1 if p * p > 5 * q * q else -1
    return 1 if 5 * q * q > p * p else -1


def floor_phi(m: int) -> int:
    """floor(m*phi), exactly: m*phi = (m + sqrt(5 m**2)) / 2 for m >= 0
    and (m - sqrt(5 m**2)) / 2 below, with sqrt(5 m**2) irrational."""
    r = math.isqrt(5 * m * m)
    return (m + r) // 2 if m >= 0 else (m - r - 1) // 2


def grid_floors(c0: int, c1: int, c2: int, c3: int) -> tuple[int, int]:
    """floor(16*Re(x)) and floor(8*Im(x)/sin(pi/5)) of the x with these
    coefficients, exactly: 8 times the forms of real_sign and imag_sign.
    A point of a segment or triangle has floors within its corners'."""
    return (8 * (2 * c0 - c2 + c3) + floor_phi(8 * (c1 + c2 - c3)),
            8 * c1 + floor_phi(8 * (c2 + c3)))


def real_sign(x: Cyclo10) -> int:
    """Exact sign of Re(x)."""
    # 2*Re(x) = (2c0 - c2 + c3) + (c1 + c2 - c3)*phi
    return quad_sign(2 * x.c0 - x.c2 + x.c3, x.c1 + x.c2 - x.c3)


def imag_sign(x: Cyclo10) -> int:
    """Exact sign of Im(x)."""
    # Im(x) = sin(pi/5) * (c1 + (c2 + c3)*phi)
    return quad_sign(x.c1, x.c2 + x.c3)


def cross_sign(u: Cyclo10, v: Cyclo10) -> int:
    """Sign of the 2D cross product u x v (positive = v counterclockwise of u)."""
    return imag_sign(u.conj() * v)


def dot_sign(u: Cyclo10, v: Cyclo10) -> int:
    """Sign of the dot product of u and v."""
    return real_sign(u.conj() * v)


def sq_abs(x: Cyclo10) -> tuple[int, int]:
    """|x|**2 as an exact (a, b) pair meaning a + b*phi."""
    return (x * x.conj()).real_pair()


def quad_cmp(x: tuple[int, int], y: tuple[int, int]) -> int:
    """Compare two (a, b) pairs as the reals a + b*phi."""
    return quad_sign(x[0] - y[0], x[1] - y[1])


def cross_area2(u: Cyclo10, v: Cyclo10) -> tuple[int, int]:
    """u x v in exact units of sin(pi/5), as an (a, b) = a + b*phi pair.

    The doubled signed area of a triangle (p, q, r) is
    cross_area2(q - p, r - p); summing these pairs gives exact area
    bookkeeping without ever leaving integer arithmetic.
    """
    w = u.conj() * v
    return (w.c1, w.c2 + w.c3)

