"""Exact 4x4 linear algebra over Scalar: matrices, ranks, signatures.

Indices are 0-based internally; the text formats and reports use the
1-based labels e1..e4.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence

from .scalars import (
    EMPTY_DOMAIN, Constraint, ParamDomain, Scalar, ScalarError, ZERO,
    ONE, emit_scalar,
)


class DegenerateError(ScalarError):
    pass


class RankAmbiguous(ScalarError):
    """A pivot is neither identically zero nor provably nonvanishing."""

    def __init__(self, poly):
        self.poly = poly
        super().__init__(f"rank depends on parameters through: {poly!r}")


Vec4 = List[Scalar]


def vzero() -> Vec4:
    return [ZERO, ZERO, ZERO, ZERO]


def vbasis(i: int) -> Vec4:
    v = vzero()
    v[i] = ONE
    return v


def vadd(a: Vec4, b: Vec4) -> Vec4:
    return [x + y for x, y in zip(a, b)]


def vsub(a: Vec4, b: Vec4) -> Vec4:
    return [x - y for x, y in zip(a, b)]


def vis_zero(a: Vec4) -> bool:
    return all(x.is_zero for x in a)


class Mat4:
    """4x4 matrix of Scalars."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence]):
        self.rows = [[Scalar.of(v) for v in row] for row in rows]
        if len(self.rows) != 4 or any(len(r) != 4 for r in self.rows):
            raise ScalarError("Mat4 needs 4x4 entries")

    @staticmethod
    def _of(rows: List[List[Scalar]]) -> "Mat4":
        """A Mat4 on rows that are already 4 lists of 4 Scalars: no coercion."""
        m = object.__new__(Mat4)
        m.rows = rows
        return m

    @staticmethod
    def zeros() -> "Mat4":
        return Mat4._of([[ZERO] * 4 for _ in range(4)])

    @staticmethod
    def identity() -> "Mat4":
        m = Mat4.zeros()
        for i in range(4):
            m.rows[i][i] = ONE
        return m

    def __add__(self, other: "Mat4") -> "Mat4":
        return Mat4._of([[a + b for a, b in zip(r1, r2)]
                         for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other: "Mat4") -> "Mat4":
        return Mat4._of([[a - b for a, b in zip(r1, r2)]
                         for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self) -> "Mat4":
        return Mat4._of([[-a for a in r] for r in self.rows])

    def scale(self, c) -> "Mat4":
        c = Scalar.of(c)
        return Mat4._of([[c * a for a in r] for r in self.rows])

    def __matmul__(self, other: "Mat4") -> "Mat4":
        out = Mat4.zeros()
        for i in range(4):
            row = self.rows[i]
            for j in range(4):
                s = ZERO
                for k in range(4):
                    a, b = row[k], other.rows[k][j]
                    if not (a.is_zero or b.is_zero):
                        s = s + a * b
                out.rows[i][j] = s
        return out

    def apply(self, v: Vec4) -> Vec4:
        return [sum((a * x for a, x in zip(row, v) if not (a.is_zero or x.is_zero)),
                    ZERO) for row in self.rows]

    def transpose(self) -> "Mat4":
        return Mat4._of([[self.rows[j][i] for j in range(4)] for i in range(4)])

    def trace(self) -> Scalar:
        return sum((self.rows[i][i] for i in range(4)), ZERO)

    def det(self) -> Scalar:
        r = self.rows

        def m2(i, j, k, l):
            return r[i][k] * r[j][l] - r[i][l] * r[j][k]

        # Laplace expansion along the first two rows.
        return (m2(0, 1, 0, 1) * m2(2, 3, 2, 3)
                - m2(0, 1, 0, 2) * m2(2, 3, 1, 3)
                + m2(0, 1, 0, 3) * m2(2, 3, 1, 2)
                + m2(0, 1, 1, 2) * m2(2, 3, 0, 3)
                - m2(0, 1, 1, 3) * m2(2, 3, 0, 2)
                + m2(0, 1, 2, 3) * m2(2, 3, 0, 1))

    def _cofactor(self, i: int, j: int) -> Scalar:
        idx = [k for k in range(4) if k != i]
        jdx = [k for k in range(4) if k != j]
        r = self.rows
        a, b, c = ([r[p][q] for q in jdx] for p in idx)
        det3 = (a[0] * (b[1] * c[2] - b[2] * c[1])
                - a[1] * (b[0] * c[2] - b[2] * c[0])
                + a[2] * (b[0] * c[1] - b[1] * c[0]))
        return det3 if (i + j) % 2 == 0 else -det3

    def inverse(self) -> "Mat4":
        d = self.det()
        if d.is_zero:
            raise DegenerateError("matrix determinant is identically zero")
        out = Mat4.zeros()
        for i in range(4):
            for j in range(4):
                out.rows[i][j] = self._cofactor(j, i) / d
        return out

    def is_zero(self) -> bool:
        return all(v.is_zero for r in self.rows for v in r)

    def __eq__(self, other):
        """Exact equality: entries are in canonical form, so equal rational
        functions are equal structurally."""
        return isinstance(other, Mat4) and self.rows == other.rows

    def is_symmetric(self) -> bool:
        return self == self.transpose()

    def is_antisymmetric(self) -> bool:
        return (self + self.transpose()).is_zero()

    def substitute(self, mapping) -> "Mat4":
        return Mat4([[v.substitute(mapping) for v in r] for r in self.rows])

    def params(self) -> set:
        out = set()
        for r in self.rows:
            for v in r:
                out |= v.params()
        return out

    def eval(self, assignment) -> List[List[Fraction]]:
        return [[v.eval(assignment) for v in r] for r in self.rows]

    def __repr__(self):
        body = "; ".join(",".join(emit_scalar(v) for v in r) for r in self.rows)
        return f"Mat4[{body}]"


def mat_from_cols(cols: Sequence[Vec4]) -> Mat4:
    return Mat4([[cols[j][i] for j in range(4)] for i in range(4)])


class ThreeForm4:
    """Alternating 3-form: one Scalar per index triple i<j<k."""

    TRIPLES = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))

    def __init__(self, components: Optional[dict] = None):
        self.components = {t: ZERO for t in self.TRIPLES}
        if components:
            for t, v in components.items():
                self.components[t] = Scalar.of(v)

    def __getitem__(self, triple):
        return self.components[triple]

    def is_zero(self) -> bool:
        return all(v.is_zero for v in self.components.values())


# ---------------------------------------------------------------------------
# Domain-aware elimination: ranks and affine linear solving


def _pick_pivot(rows, row_used, col, domain):
    """Pivot rule on the domain: an unused row whose entry in `col` is
    provably nonvanishing there; RankAmbiguous when the only candidates
    might vanish."""
    best = None
    fallback = None
    for i in range(len(rows)):
        if i in row_used:
            continue
        v = rows[i][col]
        if v.is_zero:
            continue
        if v.is_const:
            return i
        if domain.known_nonzero(v.num):
            if best is None:
                best = i
        else:
            fallback = rows[i][col]
    if best is not None:
        return best
    if fallback is not None:
        raise RankAmbiguous(fallback)
    return None


def rank_on_domain(m: Mat4, domain: ParamDomain = EMPTY_DOMAIN,
                   _depth: int = 0) -> int:
    """Rank over the domain; case-splits on single-variable pivots whose
    vanishing the domain leaves open, and raises RankAmbiguous only when
    the branches genuinely disagree."""
    rows = [[v for v in r] for r in m.rows]
    try:
        return len(_eliminate(rows, 4, domain, _pick_pivot))
    except RankAmbiguous as e:
        split = split_at_root(e.poly, domain) if _depth < 4 else None
        if split is None:
            raise
        var, value, branch = split
        try:
            at_root = m.substitute({var: value})
        except ZeroDivisionError:
            raise e
        r_at = rank_on_domain(at_root, domain, _depth + 1)
        r_off = rank_on_domain(m, branch, _depth + 1)
        if r_at == r_off:
            return r_at
        raise RankAmbiguous(e.poly)


def split_at_root(pivot: Scalar, domain: ParamDomain) -> Optional[tuple]:
    """Case split on a pivot whose vanishing the domain leaves open:
    (param, root, domain with the pivot nonzero) when its numerator is
    univariate of degree 1, or a single-variable monomial (root 0);
    None otherwise."""
    num = pivot.num
    lin = num.univariate_linear()
    if lin is not None:
        var, c1, c0 = lin
        root = Fraction(-c0, c1)
    elif len(num.terms) == 1 and len(next(iter(num.terms))) == 1:
        var, root = next(iter(num.params())), 0
    else:
        return None
    return var, Scalar.const(root), ParamDomain(
        domain.constraints + [Constraint(num, "!=")])


def _first_nonzero(rows, row_used, col, domain):
    """Pivot rule of generic_rank: the first unused row whose entry in `col`
    is not identically zero.  `domain` is the pick rule's slot, unread."""
    return next((i for i in range(len(rows)) if i not in row_used
                 and not rows[i][col].is_zero), None)


def generic_rank(m: Mat4) -> int:
    """Rank at generic parameter values: pivots only need to be nonzero as
    rational functions."""
    return len(_eliminate([list(r) for r in m.rows], 4, EMPTY_DOMAIN, _first_nonzero))


def _eliminate(rows, ncols, domain, pick) -> dict:
    """In-place Gauss-Jordan elimination of the first `ncols` columns;
    returns {column: pivot row}.  `pick(rows, row_used, col, domain)` is the
    pivot-row rule: a row index not in `row_used`, or None to skip `col`."""
    row_used: set = set()
    pivots = {}
    for col in range(ncols):
        i = pick(rows, row_used, col, domain)
        if i is None:
            continue
        row_used.add(i)
        pivots[col] = i
        piv = rows[i][col]
        for j in range(len(rows)):
            if j == i:
                continue
            f = rows[j][col] / piv
            if not f.is_zero:
                rows[j] = [a - f * b for a, b in zip(rows[j], rows[i])]
    return pivots


class AffineSolution:
    """Affine solution set: point + span(basis), with fresh free parameters."""

    def __init__(self, point: List[Scalar], basis: List[List[Scalar]]):
        self.point = point
        self.basis = basis

    @property
    def free_count(self) -> int:
        return len(self.basis)

    def with_params(self, names: Sequence[str]) -> List[Scalar]:
        """point + sum t_k * basis_k as Scalar expressions."""
        out = list(self.point)
        for k, b in enumerate(self.basis):
            t = Scalar.var(names[k])
            out = [o + t * v for o, v in zip(out, b)]
        return out


def solve_affine(a_rows: List[List[Scalar]], b: List[Scalar],
                 domain: ParamDomain = EMPTY_DOMAIN) -> Optional[AffineSolution]:
    """Solve A x = b exactly over Scalar; None when provably inconsistent.

    Raises RankAmbiguous when a pivot or a consistency decision depends on
    parameters in a way the domain cannot certify.
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    aug = [list(row) + [b[i]] for i, row in enumerate(a_rows)]
    pivots = _eliminate(aug, n, domain, _pick_pivot)
    row_used = set(pivots.values())
    # consistency
    for j in range(m):
        if j in row_used:
            continue
        if all(aug[j][c].is_zero for c in range(n)):
            rhs = aug[j][n]
            if rhs.is_zero:
                continue
            if domain.known_nonzero(rhs.num) or rhs.is_const:
                return None
            raise RankAmbiguous(rhs)
    free_cols = [c for c in range(n) if c not in pivots]
    point = [ZERO] * n
    for col, i in pivots.items():
        point[col] = aug[i][n] / aug[i][col]
    basis = []
    for fc in free_cols:
        vec = [ZERO] * n
        vec[fc] = ONE
        for col, i in pivots.items():
            vec[col] = -aug[i][fc] / aug[i][col]
        basis.append(vec)
    return AffineSolution(point, basis)


def signature_of(matrix: List[List[Fraction]]) -> tuple:
    """Exact signature (n_pos, n_neg, n_zero) of a rational symmetric matrix."""
    n = len(matrix)
    a = [[Fraction(v) for v in row] for row in matrix]
    for i in range(n):
        for j in range(n):
            if a[i][j] != a[j][i]:
                raise ScalarError("signature of a non-symmetric matrix")
    alive = list(range(n))
    pos = neg = 0
    while alive:
        k = next((i for i in alive if a[i][i] != 0), None)
        if k is None:
            pair = next(((i, j) for i in alive for j in alive
                         if i != j and a[i][j] != 0), None)
            if pair is None:
                break
            i, j = pair
            # congruence: e_i <- e_i + e_j makes the (i,i) entry nonzero
            for c in range(n):
                a[i][c] += a[j][c]
            for r in range(n):
                a[r][i] += a[r][j]
            k = i
        if a[k][k] > 0:
            pos += 1
        else:
            neg += 1
        alive.remove(k)
        for j in alive:
            f = a[k][j] / a[k][k]
            if f == 0:
                continue
            for c in range(n):
                a[j][c] -= f * a[k][c]
            for r in range(n):
                a[r][j] -= f * a[r][k]
    zero = n - pos - neg
    return pos, neg, zero
