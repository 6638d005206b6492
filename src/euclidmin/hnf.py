"""Integer matrix utilities: column HNF, kernels over F_p,
determinants (also of integer interval matrices), solving.

Matrices are lists of rows. The Hermite normal form used throughout is the
upper-triangular column form: the lattice is spanned by the columns, the
diagonal is positive, and every entry to the right of the diagonal is
reduced modulo the diagonal entry of its row.
"""

from __future__ import annotations


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def hnf_columns(columns: list[list[int]]) -> list[list[int]]:
    """Upper-triangular column HNF of the lattice spanned by the columns.

    The column echelon of the rows taken last to first, its first n
    columns reversed, is upper triangular; each pivot is then made
    positive and the entries right of it reduced modulo it. Requires the
    columns to span a full-rank lattice in Z^n.
    """
    if not columns:
        raise ValueError("no columns")
    n = len(columns[0])
    a, _, pivots = _column_echelon([[c[i] for c in columns]
                                    for i in range(n - 1, -1, -1)])
    if None in pivots:
        raise ValueError("columns do not span a full-rank lattice")
    cols = [[a[n - 1 - i][n - 1 - j] for i in range(n)] for j in range(n)]
    for j, cj in enumerate(cols):
        if cj[j] < 0:
            cols[j] = cj = [-x for x in cj]
        for i in range(j - 1, -1, -1):
            ci = cols[i]
            q = cj[i] // ci[i]
            if q:
                for k in range(i + 1):
                    cj[k] -= q * ci[k]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def _column_echelon(rows: list[list[int]]):
    """Column echelon form of a k x m integer matrix by xgcd column steps.

    Returns (a, u, pivots) with a = A u for a unimodular m x m matrix u:
    pivots[r] is the column of row r's pivot, or None when row r has none;
    the pivot columns are 0, 1, ... in row order, each pivot clears the
    rest of its row to the right, and the columns after the last pivot are
    zero.
    """
    k = len(rows)
    m = len(rows[0]) if k else 0
    a = [list(r) for r in rows]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    pivots = []
    pc = 0
    for r in range(k):
        nz = [t for t in range(pc, m) if a[r][t] != 0]
        if not nz:
            pivots.append(None)
            continue
        p = nz[0]
        for t in nz[1:]:
            g, x, y = xgcd(a[r][p], a[r][t])
            ap, at = a[r][p] // g, a[r][t] // g
            for mat in (a, u):
                for line in mat:
                    line[p], line[t] = (x * line[p] + y * line[t],
                                        -at * line[p] + ap * line[t])
        if p != pc:
            for mat in (a, u):
                for line in mat:
                    line[p], line[pc] = line[pc], line[p]
        pivots.append(pc)
        pc += 1
    return a, u, pivots


def mat_vec(m, v):
    return [sum(mi[j] * v[j] for j in range(len(v))) for mi in m]


def int_det(m) -> int:
    """Determinant of an integer matrix by Bareiss fraction-free elimination.

    After step k every entry below the pivot row is a (k+2)-minor of m, so
    each division by the previous pivot is exact (Cohen, GTM 138, sec. 2.2).
    """
    a = [list(row) for row in m]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        piv = a[k][k]
        row_k = a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            f = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (piv * row_i[j] - f * row_k[j]) // prev
        prev = piv
    return sign * a[n - 1][n - 1]


def int_interval_det(m) -> tuple[int, int]:
    """Enclosure (lo, hi) of the determinant of a square matrix of integer
    intervals (lo, hi), by first-row cofactor expansion with interval rules;
    on integers nothing rounds, so it equals the rational enclosure."""
    if len(m) == 1:
        return m[0][0]
    lo = hi = 0
    for j, (a_lo, a_hi) in enumerate(m[0]):
        d_lo, d_hi = int_interval_det([row[:j] + row[j + 1:] for row in m[1:]])
        c = (a_lo * d_lo, a_lo * d_hi, a_hi * d_lo, a_hi * d_hi)
        if j % 2:
            lo -= max(c)
            hi -= min(c)
        else:
            lo += min(c)
            hi += max(c)
    return lo, hi


def int_solve(m, b) -> tuple[list[int], int]:
    """(y, d) with m y = d b, d = +-det(m), for a regular integer matrix m.

    Fraction-free Gauss-Jordan elimination: every row is reduced against each
    pivot, so at the end the left block is d times the identity and the last
    column is d times the solution; all divisions are exact, as in int_det.
    """
    n = len(m)
    a = [list(row) + [v] for row, v in zip(m, b)]
    prev = 1
    for k in range(n):
        p = next((r for r in range(k, n) if a[r][k]), None)
        if p is None:
            raise ValueError("singular matrix")
        a[k], a[p] = a[p], a[k]
        row_k = a[k]
        piv = row_k[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(piv * x - f * y) // prev for x, y in zip(a[i], row_k)]
        prev = piv
    return [a[i][n] for i in range(n)], prev


def echelon_mod_lattice(a_cols, w_cols):
    """The column echelon of [A | W] that solve_echelon solves against.

    A and W are given as lists of columns over Z. The echelon depends on
    the matrices alone, so a system solved for many targets is reduced once.
    """
    n = len(a_cols[0])
    cols = [list(c) for c in a_cols] + [list(c) for c in w_cols]
    # u tracks the transformation: columns stay integer combinations of
    # the originals
    mat, u, piv = _column_echelon([[c[i] for c in cols] for i in range(n)])
    return mat, u, piv, len(a_cols)


def solve_echelon(echelon, target):
    """Find integer u with A u = target - W w for some integer w.

    echelon is echelon_mod_lattice(A, W); returns u or None when the target
    is not in the column span of [A | W].
    """
    mat, u, piv, k = echelon
    n = len(target)
    m = len(u)
    # back-solve target against echelon columns
    t = list(target)
    coeff = [0] * m
    for r in range(n):
        if t[r] == 0:
            continue
        j = piv[r]
        if j is None or mat[r][j] == 0 or t[r] % mat[r][j] != 0:
            return None
        q = t[r] // mat[r][j]
        coeff[j] = q
        for i in range(n):
            t[i] -= q * mat[i][j]
    if any(t):
        return None
    return [sum([u[i][j] * coeff[j] for j in range(m)]) for i in range(k)]


def fp_kernel(rows: list[list[int]], p: int) -> list[list[int]]:
    """Basis of the kernel of a matrix over F_p, entries lifted to [0, p)."""
    k = len(rows)
    m = len(rows[0]) if k else 0
    a = [[x % p for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(m):
        pr = next((i for i in range(r, k) if a[i][c] % p), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [(x * inv) % p for x in a[r]]
        for i in range(k):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == k:
            break
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * m
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-a[i][fc]) % p
        basis.append(v)
    return basis
