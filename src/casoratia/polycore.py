"""Dense univariate polynomials and linear algebra over scalar backends.

``Poly`` holds a polynomial in the sinusoidal coordinate eta, without ring arithmetic:
every product is built on coefficient lists by one step, ``times_linear`` ((v - c) p).
The dense solvers (determinant, square solve, least squares) act on scalar matrices.
Coefficients are mpmath complex numbers (``numkernel.MPScalars``) or exact
Gaussian rationals, with sqrt(q) adjoined for AW (``exact.ExactScalars``).
The pivot choice and the coefficient height are written here once, on the
backend's absolute value ``magnitude``; exact zero factors are skipped, and
``trim`` drops trailing exact zeros only (a degree is decided where it is made).
"""

from __future__ import annotations

from fractions import Fraction


class Poly:
    """Dense polynomial sum_k c[k] v**k with backend-agnostic coefficients."""

    __slots__ = ("coeffs", "scalars", "_value", "_height", "_trimmed")

    def __init__(self, coeffs, scalars):
        self.coeffs = list(coeffs) if coeffs else [scalars.zero]
        self.scalars = scalars
        # made at the first use and kept, as nothing mutates coeffs: the backend's Horner
        # evaluator, the height and the trimmed form
        self._value = self._height = self._trimmed = None

    @property
    def height(self):
        """The largest coefficient magnitude."""
        if self._height is None:
            self._height = max(map(self.scalars.magnitude, self.coeffs))
        return self._height

    def trim(self):
        """Drop trailing exact zero coefficients."""
        if self._trimmed is None:
            sc, cs = self.scalars, self.coeffs
            while len(cs) > 1 and sc.is_zero(cs[-1]):
                cs = cs[:-1]
            self._trimmed = self if len(cs) == len(self.coeffs) else Poly(cs, sc)
            # only zeros were dropped, so the trimmed form keeps the height
            self._trimmed._trimmed, self._trimmed._height = self._trimmed, self._height
        return self._trimmed

    @property
    def degree(self) -> int:
        return len(self.trim().coeffs) - 1

    def lead(self):
        return self.trim().coeffs[-1]

    def __call__(self, v):
        return (self._value or self.evaluator())(v)

    def evaluator(self):
        """The backend's Horner evaluator of this polynomial, made once."""
        if self._value is None:
            self._value = self.scalars.horner(self.coeffs)
        return self._value

    def derivative(self) -> "Poly":
        if len(self.coeffs) == 1:
            return Poly([self.scalars.zero], self.scalars)
        return Poly([self.coeffs[k] * k for k in range(1, len(self.coeffs))], self.scalars)


def times_linear(cs, c):
    """The coefficients of (v - c) p from those cs of p: the one product by a linear factor
    of the package (base recurrence, exact Newton form, Lagrange numerators)."""
    return [-(c * cs[0])] + [a - c * b for a, b in zip(cs, cs[1:])] + [cs[-1]]


def lagrange_numerator(roots, j: int, one):
    """The coefficients of prod_{l != j} (v - roots[l]), one the backend's unit."""
    cs = [one]
    for l, r in enumerate(roots):
        if l != j:
            cs = times_linear(cs, r)
    return cs


def ladder_points(n: int):
    """Shift multipliers t_j, j=1..n, with x_j = x + i t_j gamma (t = (n+1)/2 - j)."""
    return [Fraction(n + 1, 2) - j for j in range(1, n + 1)]


# -- dense linear algebra over generic scalars ---------------------------------


def pivot_row(a, col: int, scalars):
    """The first row r >= col of largest magnitude in column col, None if that is zero."""
    mags = [scalars.magnitude(row[col]) for row in a[col:]]
    best = max(mags)
    return None if best == 0 else col + mags.index(best)


def solve_dense(rows, rhs, scalars):
    """Solve A x = b by Gaussian elimination with partial pivoting (pivot_row)."""
    n = len(rows)
    a = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    one = scalars.one
    for col in range(n):
        piv = pivot_row(a, col, scalars)
        if piv is None:
            raise ZeroDivisionError("singular linear system")
        a[col], a[piv] = a[piv], a[col]
        inv = one / a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] * inv
            if scalars.is_zero(f):
                continue
            for c in range(col, n + 1):
                a[r][c] = a[r][c] - f * a[col][c]
    x = [scalars.zero] * n
    for r in range(n - 1, -1, -1):
        s = a[r][n]
        for c in range(r + 1, n):
            s = s - a[r][c] * x[c]
        x[r] = s / a[r][r]
    return x


def det_dense(rows, scalars):
    """Determinant of a scalar matrix by elimination."""
    n = len(rows)
    a = [list(r) for r in rows]
    one = scalars.one
    det = one
    sign = 1
    for col in range(n):
        piv = pivot_row(a, col, scalars)
        if piv is None:
            return scalars.zero
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        det = det * a[col][col]
        inv = one / a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] * inv
            if scalars.is_zero(f):
                continue
            for c in range(col + 1, n):
                a[r][c] = a[r][c] - f * a[col][c]
    return det if sign == 1 else -det


def lstsq_dense(rows, rhs, scalars):
    """Least squares via normal equations (ample precision headroom)."""
    m = len(rows)
    n = len(rows[0])
    ata = [[scalars.zero] * n for _ in range(n)]
    atb = [scalars.zero] * n
    for i in range(m):
        ri = rows[i]
        for a in range(n):
            ca = ri[a].conjugate()
            atb[a] = atb[a] + ca * rhs[i]
            for b in range(a, n):
                ata[a][b] = ata[a][b] + ca * ri[b]
    for a in range(n):
        for b in range(a):
            ata[a][b] = ata[b][a].conjugate()
    return solve_dense(ata, atb, scalars)
