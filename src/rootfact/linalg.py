"""Exact dense linear algebra over Gaussian rationals and jets.

Matrices are lists of lists of numbers in the sense of
``scalar.Number``, so Scalar and Jet matrices share every routine here.
The determinant specializes to fraction-free elimination over Gaussian
integers when all entries are Scalars.
"""

from __future__ import annotations

import math

from .errors import InvalidInputError, StratumError
from .scalar import ONE, ZERO, Scalar, _red

Matrix = list


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


def mat_inverse(x):
    """Exact inverse via Gauss-Jordan; InvalidInputError when singular."""
    n = len(x)
    a = mat_copy(x)
    inv = identity(n)
    for k in range(n):
        piv = None
        for i in range(k, n):
            if not a[i][k].val.is_zero():
                piv = i
                break
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


def _gauss_div(xa, xb, ya, yb):
    # exact division in Z[i]; callers guarantee divisibility
    if yb:
        q = ya * ya + yb * yb
        xa, xb = xa * ya + xb * yb, xb * ya - xa * yb
    else:
        q = ya
    qa, ra = divmod(xa, q)
    qb, rb = divmod(xb, q)
    if ra or rb:
        raise ArithmeticError("inexact Gaussian division in Bareiss elimination")
    return qa, qb


def det_exact(x) -> Scalar:
    """Determinant of a Scalar matrix, singleton lines peeled first.

    A row or column with one nonzero left is a 1x1 diagonal block: the
    entry joins the product and its row and column leave, which can leave
    other lines with one entry, or none (det x is then an exact zero); a
    worklist keeps this linear in the nonzeros.  The rest goes to
    ``_bareiss`` with rows and columns in their original relative order,
    times the sign of the permutation pairing peeled rows with their
    columns and the rest in order.  The peeled product is carried as a
    Gaussian-integer numerator over an integer denominator and reduced
    once, with the core's factor."""
    n = len(x)
    # lines: row i is i, column j is n + j; adj lists the other side's lines
    adj = [[n + j for j, v in enumerate(row) if v.a or v.b] for row in x] + [[] for _ in x]
    for i in range(n):
        for j in adj[i]:
            adj[j].append(i)
    left, live = [len(a) for a in adj], [True] * (2 * n)
    work = [k for k in range(2 * n) if left[k] == 1]
    na, nb, nd, sigma = 1, 0, 1, [0] * n
    while work:
        k = work.pop()
        if live[k]:
            o = next(o for o in adj[k] if live[o])
            i, j = min(k, o), max(k, o) - n
            v, sigma[i], live[k], live[o] = x[i][j], j, False, False
            na, nb, nd = na * v.a - nb * v.b, na * v.b + nb * v.a, nd * v.d
            for p in adj[o]:
                if live[p]:
                    left[p] -= 1
                    if not left[p]:
                        return ZERO
                    if left[p] == 1:
                        work.append(p)
    rows = [i for i in range(n) if live[i]]
    cols = [j for j in range(n) if live[n + j]]
    for i, j in zip(rows, cols):
        sigma[i] = j
    core = _bareiss([[x[i][j] for j in cols] for i in rows])
    # times the sign of sigma, by its inversions in O(n^2) as for the pattern
    if sum(a > b for k, a in enumerate(sigma) for b in sigma[k + 1:]) % 2:
        na, nb = -na, -nb
    return _red(na * core.a - nb * core.b, na * core.b + nb * core.a, nd * core.d)


def _bareiss(x) -> Scalar:
    """Determinant of a Scalar matrix, fraction-free over Z[i].

    Bareiss's step k replaces each row i below the pivot p_k = m_kk by
    (p_k m_ij - m_ik m_kj) / p_(k-1), which keeps every entry a minor of
    the integer matrix.  Exact zeros make parts of it pointless: a zero
    m_kj adds no cross term, a zero target without one stays zero, and a
    zero m_ik leaves only the rescale by p_k / p_(k-1).  That rescale is
    deferred: at step k a row whose last update was step t - 1 holds its
    value times p_(t-1) / p_(k-1), the skipped rescales telescoping, so
    its next update divides by p_(t-1) in place of p_(k-1), and a pivot
    row is brought up to date before it is used.

    Each row is first scaled by the lcm of its denominators, then each
    column divided by the gcd of its real and imaginary parts (an
    all-zero column is left as it is); the product of those gcds
    multiplies the answer.  Every minor would otherwise carry that
    content, so the elimination runs on far smaller integers.
    """
    n = len(x)
    if n == 0:
        return ONE
    denom = 1
    m = []
    for row in x:
        d = 1
        for v in row:
            d = d * v.d // math.gcd(d, v.d)
        denom *= d
        m.append([(v.a * (d // v.d), v.b * (d // v.d)) for v in row])
    content = 1
    for j in range(n):
        g = math.gcd(*(p for row in m for p in row[j]))
        if g > 1:
            content *= g
            for row in m:
                row[j] = (row[j][0] // g, row[j][1] // g)
    sign = 1
    div = [(1, 0)]  # div[k] = p_(k-1), the divisor of step k
    since = [0] * n  # the last update of row i was step since[i] - 1
    for k in range(n):
        if m[k][k] == (0, 0):
            piv = next((i for i in range(k + 1, n) if m[i][k] != (0, 0)), None)
            if piv is None:
                return ZERO
            m[k], m[piv] = m[piv], m[k]
            since[k], since[piv] = since[piv], since[k]
            sign = -sign
        mk = m[k]
        if since[k] != k:
            (ca, cb), (ea, eb) = div[k], div[since[k]]
            for j in range(k, n):
                ua, ub = mk[j]
                if ua or ub:
                    mk[j] = _gauss_div(ua * ca - ub * cb, ua * cb + ub * ca, ea, eb)
        pa, pb = mk[k]
        div.append((pa, pb))
        for i in range(k + 1, n):
            mi = m[i]
            ia, ib = mi[k]
            if not (ia or ib):
                continue
            mi[k] = (0, 0)
            ea, eb = div[since[i]]
            since[i] = k + 1
            for j in range(k + 1, n):
                ua, ub = mi[j]
                ja, jb = mk[j]
                if ja or jb:
                    ta = ua * pa - ub * pb - (ia * ja - ib * jb)
                    tb = ua * pb + ub * pa - (ia * jb + ib * ja)
                elif ua or ub:
                    ta, tb = ua * pa - ub * pb, ua * pb + ub * pa
                else:
                    continue
                mi[j] = _gauss_div(ta, tb, ea, eb)
    da, db = m[n - 1][n - 1]
    return _red(sign * content * da, sign * content * db, denom)


def ldu(g):
    """Factor g = L @ diag(d) @ U with unipotent triangular L, U.

    Raises InvalidInputError when g is singular, StratumError with the
    1-based pivot position when g is invertible but some leading
    principal minor vanishes.
    """
    n = len(g)
    a = mat_copy(g)
    lower = identity(n)
    upper = identity(n)
    d = []
    for k in range(n):
        p = a[k][k]
        if p.val.is_zero():
            if det_exact([[v.val for v in row] for row in g]).is_zero():
                raise InvalidInputError("matrix is singular")
            raise StratumError(f"vanishing leading minor at position {k + 1}", index=k + 1)
        d.append(p)
        ak = a[k]
        # an exact zero stays as it is, undivided, and its row needs no
        # update (the library hands ldu Scalars; a Jet of value 0 may carry partials)
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
