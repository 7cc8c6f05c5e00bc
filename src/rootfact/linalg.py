"""Exact dense linear algebra over Gaussian rationals.

Matrices are lists of rows of Scalars; jets reach only ``identity`` and
``mul_right_i_plus``.  The determinant is one Gaussian elimination over
reduced Gaussian-rational (a, b, d) triples.
"""

from __future__ import annotations

import math

from .errors import InvalidInputError, StratumError
from .scalar import ONE, ZERO, Scalar, _red


def identity(n: int):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_mul(x, y):
    n, m, p = len(x), len(y), len(y[0])
    out = []
    for i in range(n):
        xi = x[i]
        row = []
        for j in range(p):
            acc = xi[0] * y[0][j]
            for k in range(1, m):
                c = xi[k]
                if not c.is_zero():
                    acc = acc.addmul(c, y[k][j])
            row.append(acc)
        out.append(row)
    return out


def mat_copy(x):
    return [row[:] for row in x]


def scale_cols(x, diag):
    """x @ diag(entries) without building the diagonal matrix."""
    return [[v * diag[j] for j, v in enumerate(row)] for row in x]


def mul_right_i_plus(g, terms):
    """g @ (I + M) for sparse M given as [(row, col, weight), ...].

    Mutates and returns g.  Each row of g takes the terms in their order,
    g[i][col] += g[i][row] * weight, with no copy of the row, so no term
    may read a column that an earlier one wrote.  Strictly upper terms by
    descending column, and strictly lower ones by ascending column, keep
    that: exp_e and exp_f take their terms so from each root triple, and a
    join hands over its L_M by ascending pivot column.
    """
    terms = [(r, col, w) for (r, col, w) in terms if not w.is_zero()]
    for gi in g:
        for r, col, w in terms:
            v = gi[r]
            if not v.is_zero():
                gi[col] = gi[col].addmul(v, w)
    return g


def _check_square(x):
    """InvalidInputError unless every row of x has as many entries as x has rows."""
    if any(len(row) != len(x) for row in x):
        raise InvalidInputError("matrix is not square")


def mat_inverse(x):
    """Exact inverse via Gauss-Jordan; InvalidInputError when singular or not square."""
    _check_square(x)
    n = len(x)
    a = mat_copy(x)
    inv = identity(n)
    for k in range(n):
        piv = next((i for i in range(k, n) if not a[i][k].is_zero()), None)
        if piv is None:
            raise InvalidInputError("matrix is singular")
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            inv[k], inv[piv] = inv[piv], inv[k]
        p = a[k][k]
        a[k] = [v / p for v in a[k]]
        inv[k] = [v / p for v in inv[k]]
        for i in range(n):
            if i == k:
                continue
            f = a[i][k]
            if f.is_zero():
                continue
            a[i] = [u - f * v for u, v in zip(a[i], a[k])]
            inv[i] = [u - f * v for u, v in zip(inv[i], inv[k])]
    return inv


def det_exact(x) -> Scalar:
    """Determinant of a square Scalar matrix, by ``_eliminate``, reduced once."""
    _check_square(x)
    return _red(*_eliminate(x))


def _eliminate(x):
    """det of a square Scalar matrix as (a, b, d), the Gaussian-integer
    numerator a + b*i over the integer denominator d, unreduced.

    Gaussian elimination over reduced (a, b, d) triples.  Step k pivots
    on the nonzero entry of column k, from row k down, with the fewest
    bits, max(|a|, |b|).bit_length() + d.bit_length(), the lowest row on
    a tie; a row swap flips the sign.  Each row i below takes
    m_ij + f m_kj, f = -m_ik / p, one fused update and one gcd per
    nonzero m_kj, and the det is the signed product of the pivots.
    """
    zero = 0, 0, 1  # shared by every zero entry, as no triple is ever mutated
    m = [[(v.a, v.b, v.d) if v.a or v.b else zero for v in row] for row in x]
    n = len(m)
    gcd = math.gcd
    da, db, dd = 1, 0, 1
    for k in range(n):
        piv = best = None
        for i in range(k, n):
            a, b, d = m[i][k]
            if a or b:
                size = max(abs(a), abs(b)).bit_length() + d.bit_length()
                if best is None or size < best:
                    piv, best = i, size
        if piv is None:
            return 0, 0, 1
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            da, db = -da, -db
        mk = m[k]
        pa, pb, pd = mk[k]
        da, db, dd = da * pa - db * pb, da * pb + db * pa, dd * pd
        # -1/p = pd (-pa + pb*i) / (pa^2 + pb^2)
        qa, qb, qd = -pd * pa, pd * pb, pa * pa + pb * pb
        vs = [(j, mk[j]) for j in range(k + 1, n) if mk[j][0] or mk[j][1]]
        for i in range(k + 1, n):
            mi = m[i]
            ia, ib, id_ = mi[k]
            if not (ia or ib):
                continue
            fa, fb, fd = ia * qa - ib * qb, ia * qb + ib * qa, id_ * qd
            g = gcd(fa, fb, fd)
            fa, fb, fd = fa // g, fb // g, fd // g
            for j, (va, vb, vd) in vs:
                ta, tb, td = fa * va - fb * vb, fa * vb + fb * va, fd * vd
                ua, ub, ud = mi[j]
                ta, tb, td = ta * ud + ua * td, tb * ud + ub * td, td * ud
                g = gcd(ta, tb, td)
                mi[j] = ta // g, tb // g, td // g
    return da, db, dd


def ldu(g):
    """Factor g = L @ diag(d) @ U with unipotent triangular L, U.

    Raises InvalidInputError when g is singular or not square, StratumError
    with the 1-based pivot position when g is invertible but some leading
    principal minor vanishes.
    """
    _check_square(g)
    n = len(g)
    a = mat_copy(g)
    lower = identity(n)
    upper = identity(n)
    d = []
    for k in range(n):
        p = a[k][k]
        if p.is_zero():
            if det_exact(g).is_zero():
                raise InvalidInputError("matrix is singular")
            raise StratumError(f"vanishing leading minor at position {k + 1}", index=k + 1)
        d.append(p)
        ak = a[k]
        # an exact zero stays as it is, undivided, and its row needs no update
        for j in range(k + 1, n):
            upper[k][j] = ak[j] if ak[j].is_zero() else ak[j] / p
        for i in range(k + 1, n):
            f = lower[i][k] = a[i][k]
            if f.is_zero():
                continue
            f = lower[i][k] = f / p
            f, ai = -f, a[i]
            for j in range(k + 1, n):
                ai[j] = ai[j].addmul(f, ak[j])
    return lower, d, upper


def principal_minor(g, k: int) -> Scalar:
    return det_exact([row[:k] for row in g[:k]])


def ldu_minors(g):
    """LDU of an invertible matrix through quotients of minors.

    l[i][j] (i > j) is det of rows (1..j-1, i), cols (1..j), divided
    by the j-th principal minor; u[i][j] (i < j) mirrors that with the
    roles of rows and columns swapped; d holds ratios of consecutive
    principal minors.
    """
    n = len(g)
    sig = [ONE] + [principal_minor(g, k) for k in range(1, n + 1)]
    if sig[n].is_zero():
        raise InvalidInputError("matrix is singular")
    for k in range(1, n):
        if sig[k].is_zero():
            raise StratumError(f"vanishing leading minor at position {k}", index=k)
    lower = identity(n)
    upper = identity(n)
    for j in range(1, n + 1):
        for i in range(j + 1, n + 1):
            rows = list(range(j - 1)) + [i - 1]
            cols = list(range(j))
            lower[i - 1][j - 1] = det_exact([[g[r][c] for c in cols] for r in rows]) / sig[j]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            rows = list(range(i))
            cols = list(range(i - 1)) + [j - 1]
            upper[i - 1][j - 1] = det_exact([[g[r][c] for c in cols] for r in rows]) / sig[i]
    d = [sig[k] / sig[k - 1] for k in range(1, n + 1)]
    return lower, d, upper
