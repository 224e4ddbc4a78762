"""Constructive pipelines: large sets from matrices, vector-grid squares
from matrix pairs, complementary families from translated grids, and the
product / block compositions that assemble large multimagic squares.

Coordinate conventions, pinned by the golden fixtures:

* a grid row or column index is its coordinate vector read as a base-q
  numeral, first vector component most significant;
* a cell's integer encoding weights its first component least, i.e.
  entry = sum(component_l * q**l).

Every constructor verifies its output before returning it.  A square or
family that fails verification is raised as a ConstructionError, never
returned.

Generated squares are row sources, never held whole.  build_sdloa_grid
and build_ms_qt return an SdloaGrid, which is its own square: its rows
are the grid's cell codes, filled on demand from q E1 X and E2 Y by the
compiled grid_rows.  The compositions (product_compose, cms_compose,
build_ms_q2t1) return a ComposedSquare: one implementation, a stack of
member squares, an outer square and a block assignment, whose rows are
filled block row by block row on demand.  The writers read both through
rows(), one block per pool task, filled into the worker's buffer, and so
does verification of a grid square, so neither the grid square (6.08
GiB as int64 at order 28561) nor the composite (8 GiB at order 32768) is
ever held; a composite is verified from its parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg, oa, verify
from .errors import ConstructionError
from .gf import FieldTable, prime_power
from .linalg import FMatrix, MatrixPairCertificate
from .verify import MagicSquare, _covers


def index_to_vec(j: int, q: int, dim: int) -> tuple[int, ...]:
    """Coordinate vector of a grid index (first component most significant)."""
    if not 0 <= j < q**dim:
        raise ValueError(f"index {j} out of range for q^{dim}")
    return tuple((j // q ** (dim - 1 - i)) % q for i in range(dim))


def vec_to_index(vec, q: int) -> int:
    idx = 0
    for w in vec:
        if not 0 <= w < q:
            raise ValueError(f"component {w} outside 0..{q - 1}")
        idx = idx * q + int(w)
    return idx


def _digit_matrix(q: int, dim: int) -> np.ndarray:
    """(q^dim, dim) matrix of coordinate vectors in canonical index order."""
    idx = np.arange(q**dim, dtype=np.int64)
    if dim == 0:
        return np.zeros((1, 0), dtype=np.int64)
    return np.stack([(idx // q ** (dim - 1 - i)) % q for i in range(dim)], axis=1)


def _all_products(table: FieldTable, mat: np.ndarray) -> np.ndarray:
    """mat @ vec over GF(q) for every coordinate vector, canonical order.

    mat is (k, dim); the result is (q^dim, k) of element labels, int16.
    """
    k, dim = mat.shape
    digits = _digit_matrix(table.q, dim)
    acc = np.zeros((digits.shape[0], k), dtype=np.int16)
    for j in range(dim):
        term = table.mul_table[mat[None, :, j], digits[:, j, None]]
        acc = table.add_table[acc, term]
    return acc


def _verified_or_raise(report: verify.VerifyReport, what: str) -> None:
    """Raise ConstructionError naming the first four failures, if any."""
    if not report.passed:
        raise ConstructionError(
            f"{what} failed verification: "
            + "; ".join(f.describe() for f in report.failures[:4])
        )


# ---------------------------------------------------------------------------
# Large sets and grids
# ---------------------------------------------------------------------------

def build_loa(e: FMatrix, e1_cols: int, t: int) -> oa.ArrayFamily:
    """Family A_Y = {E1 X + E2 Y : X} over all Y, columns in canonical X
    order, where E1 is the first e1_cols columns of the nonsingular E."""
    table = e.table
    k = e.n_rows
    if not 1 <= e1_cols <= k:
        raise ValueError("e1_cols out of range")
    if not linalg.is_nonsingular(e):
        raise ValueError("E must be nonsingular")
    e1 = e.col_slice(0, e1_cols)
    if not linalg.is_strength_t(e1, t):
        raise ValueError(f"the first {e1_cols} columns must have strength {t}")
    mat = linalg._labels(e)
    e1x = _all_products(table, mat[:, :e1_cols])
    e2y = _all_products(table, mat[:, e1_cols:])
    members = tuple(
        oa.OrthArray(table.add_table[e1x, shift[None, :]].T, table.q, t)
        for shift in e2y
    )
    fam = oa.ArrayFamily(members)
    if not oa.verify_large_set(fam, t):
        raise ConstructionError("constructed family failed the large-set check")
    return fam


def _grid_stack(cert: MatrixPairCertificate) -> oa._GridStack:
    """The grid's row orientation, never held whole: member r is grid
    row r, entry (r, i, c) component i of cell(X_r, Y_c) = E1 X_r +
    E2 Y_c, read from the flat addition table."""
    table = cert.table
    e1x = _all_products(table, linalg._labels(cert.e1)).astype(np.int64) * table.q
    e2y = _all_products(table, linalg._labels(cert.e2))
    return oa._GridStack(table.add_table.ravel(), e1x, e2y)


class _RowSource:
    """A generated square of entries from 0, never held whole: rows(r0, r1,
    out=None) fills rows r0..r1-1 on demand, into out if given, and
    verification and the writers read the square through it, one block
    of rows per pool task."""

    base = 0

    @property
    def entries(self) -> np.ndarray:
        """The whole (n, n) square, gathered on every call, for tests and
        API users: no pipeline stage reads it."""
        return self.normalized()

    def normalized(self) -> np.ndarray:
        """The whole square, which starts at 0, gathered on every call: a
        composition holds its outer square (order q^t) and its members."""
        return self.rows(0, self.n)


@dataclass(frozen=True)
class SdloaGrid(_RowSource):
    """The q^t x q^t grid of 2t-component cells E1 X + E2 Y of a
    certificate, and the grid's square: the cell code is a bijection, so
    they are one object.  Entry (r, c) of the square is the code of
    cell(X_r, Y_c), sum(component_l * q**l), the member pass's code of
    column c of grid row r.  Nothing of size N^2 is held: rows() fills
    the codes through the compiled grid_rows, in O(rows * N) time and
    memory, and cells gathers the cells whole only on request."""

    cert: MatrixPairCertificate

    @property
    def table(self) -> FieldTable:
        return self.cert.table

    @property
    def t(self) -> int:
        return self.cert.t

    @property
    def n(self) -> int:
        return self.table.q**self.t

    @cached_property
    def stack(self) -> oa._GridStack:
        """The grid's row orientation, built from the certificate once."""
        return _grid_stack(self.cert)

    @property
    def cells(self) -> np.ndarray:
        """The (N, N, 2t) element labels, gathered whole on every call, for
        tests and API users: no pipeline stage reads them."""
        return self.stack.pick(slice(None)).transpose(0, 2, 1)

    def rows(self, r0: int, r1: int, out: np.ndarray | None = None) -> np.ndarray:
        """Rows r0..r1-1 of the square, filled from the grid rows they
        code, into out if given."""
        return self.stack.codes(r0, r1, out)


def _require_pair_flags(cert: MatrixPairCertificate) -> None:
    flags = linalg.revalidate(cert)
    bad = [name for name, ok in flags.items() if not ok]
    if bad:
        raise ConstructionError(f"certificate invalid; failing checks: {bad}")
    stale = [name for name, ok in cert.checked_properties.items()
             if ok and not flags.get(name, False)]
    if stale:
        raise ConstructionError(f"certificate flags do not re-derive: {stale}")


def build_sdloa_grid(cert: MatrixPairCertificate) -> SdloaGrid:
    """Grid with cell(X, Y) = E1 X + E2 Y; verified as a strong double
    large set and as MS(q^t, t) before returning: oa._sdloa_ok checks its
    members, slabs and diagonal selections, and verify_ms its square,
    whose entries, the cell codes, are consecutive exactly when the cells
    cover every 2t-tuple once.  That pass fills each row once and sums
    its powers."""
    _require_pair_flags(cert)
    grid = SdloaGrid(cert)
    if oa._sdloa_ok(grid.stack, grid.table.q, grid.t):
        report = verify.verify_ms(grid, grid.t)
        if report.consecutive_ok:
            _verified_or_raise(report, "encoded square")
            return grid
    raise ConstructionError("grid failed strong-double-large-set verification")


# ---------------------------------------------------------------------------
# Complementary families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TranslationScheme:
    """Ordered (H, H*) translation pairs, one per family member."""

    pairs: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    def validate(self, q: int, t: int) -> None:
        n = q**t
        if len(self.pairs) != n:
            raise ValueError(f"scheme has {len(self.pairs)} pairs, needs {n}")
        for i, (h, star) in enumerate(self.pairs):
            if len(h) != t or len(star) != t:
                raise ValueError(f"pair {i} (H={h}, H*={star}) needs vectors of length {t}")
        hs = [vec_to_index(h, q) for h, _ in self.pairs]
        if hs != list(range(n)):
            raise ValueError("H components must be every vector in index order")
        stars = sorted(vec_to_index(s, q) for _, s in self.pairs)
        if stars != list(range(n)):
            raise ValueError("H* components must be a permutation of all vectors")


def default_scheme(table: FieldTable, t: int, d: int) -> TranslationScheme:
    """H in canonical order with H* = d H."""
    q = table.q
    pairs = []
    for j in range(q**t):
        h = index_to_vec(j, q, t)
        pairs.append((h, tuple(table.mul(d, w) for w in h)))
    return TranslationScheme(tuple(pairs))


@dataclass(frozen=True)
class CmsFamily:
    """m squares of order n forming a complementary degree-t family, held
    as one (m, n, n) int64 stack of entries from 0."""

    stack: np.ndarray
    t: int
    family_checks: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "stack", verify._family_stack(self.stack, self.t))

    @property
    def m(self) -> int:
        return self.stack.shape[0]

    @property
    def n(self) -> int:
        return self.stack.shape[1]

    @cached_property
    def members(self) -> tuple[MagicSquare, ...]:
        """The members as MagicSquares viewing the stack, for API users."""
        return tuple(MagicSquare(member, self.t) for member in self.stack)


def build_cms(cert: MatrixPairCertificate,
              scheme: TranslationScheme | None = None) -> CmsFamily:
    """One member per (H, H*) pair, each an index permutation of grid 0's
    square.

    E1 and E2 are linear, so cell(X + H, Y + H*) = cell(X, Y) + E1 H +
    E2 H*: member s is square0[rows_s][:, cols_s], with rows_s[X] the
    index of X + H_s and cols_s[Y] that of Y + H*_s, and no translated
    grid is built.  Grid 0 is checked as a strong double large set, and
    that check covers every translated grid and every row and column
    family.  A translated grid's rows and columns are grid 0's reordered,
    and its diagonal selections are grid 0's plus the constant E1 H +
    E2 H*, a per-component level permutation that keeps strength t.  As
    the H and the H* run over every vector, row family X holds every row
    of grid 0, so its codes are square0's entries, and so do column
    family Y's.  Only the two diagonal families can fail: each is a
    large set iff its m * N = N^2 codes cover 0..N^2-1, the encoding
    being a bijection and, by pigeonhole, no member repeating a column.

    The two diagonal families are required on the default (H* = d H)
    route, where the certificate guarantees them; an explicit scheme
    records their outcome instead, and the family-level power-sum
    verification is the final gate either way.
    """
    table = cert.table
    t = cert.t
    q = table.q
    n = q**t
    require_diagonals = scheme is None
    if scheme is None:
        if cert.d is None:
            raise ValueError("certificate has no translation scalar; "
                             "supply a scheme explicitly")
        scheme = default_scheme(table, t, cert.d)
    scheme.validate(q, t)
    grid = build_sdloa_grid(cert)

    # (m, 2, N, t) vectors X + H_s and Y + H*_s, then their indices
    sums = table.add_table[_digit_matrix(q, t), np.array(scheme.pairs)[:, :, None]]
    rows, cols = (sums @ q ** np.arange(t - 1, -1, -1)).transpose(1, 0, 2)
    square0 = grid.rows(0, n)  # N = q^t is small here
    stack = square0[rows[:, :, None], cols[:, None, :]]  # (m, N, N)

    ar = np.arange(n)
    checks = {"rows": True, "columns": True,
              "main_diagonal": _covers(stack[:, ar, ar]),
              "back_diagonal": _covers(stack[:, ar, n - 1 - ar])}
    bad = [k for k, ok in checks.items() if not ok]
    if require_diagonals and bad:
        raise ConstructionError(f"diagonal families are not large sets: {bad}")

    _verified_or_raise(verify.verify_cms(stack, t), "complementary family")
    return CmsFamily(stack, t, checks)


# ---------------------------------------------------------------------------
# Registered special-case inputs (q, t) -> matrices excluded by the searches
# ---------------------------------------------------------------------------

_CMS9_E1 = ((1, 0), (0, 1), (1, 1), (2, 1))
_CMS9_E2 = ((0, 1), (2, 0), (1, 2), (1, 1))
_CMS9_H = ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2))
_CMS9_HSTAR = ((0, 1), (0, 2), (0, 0), (2, 1), (2, 2), (2, 0), (1, 1), (1, 2), (1, 0))


def registered_pair(table: FieldTable, t: int) -> MatrixPairCertificate | None:
    """Fixture pair for parameter points the scalar searches cannot reach."""
    if (table.q, t) != (3, 2):
        return None
    e1 = FMatrix.from_rows(table, _CMS9_E1)
    e2 = FMatrix.from_rows(table, _CMS9_E2)
    flags = linalg.check_pair(e1, e2, t)
    return MatrixPairCertificate(e1, e2, t, None, flags)


def registered_scheme(table: FieldTable, t: int) -> TranslationScheme | None:
    if (table.q, t) != (3, 2):
        return None
    return TranslationScheme(tuple(zip(_CMS9_H, _CMS9_HSTAR)))


def build_cms_family(table: FieldTable, t: int) -> CmsFamily:
    """The gen-cms entry point: fixture pair if registered, else the
    certified scalar search with the H* = d H scheme."""
    cert = registered_pair(table, t)
    if cert is not None:
        return build_cms(cert, registered_scheme(table, t))
    cert = linalg.find_cms_pair(table, t)
    return build_cms(cert)


# ---------------------------------------------------------------------------
# Compositions
# ---------------------------------------------------------------------------

def _require_ms(sq: MagicSquare, t: int, what: str) -> np.ndarray:
    rep = verify.verify_ms(sq, t)
    if not rep.passed:
        raise ValueError(f"{what} fails degree-{t} verification")
    return sq.normalized()


@dataclass(frozen=True)
class ComposedSquare(_RowSource):
    """An order m*n square of m x m blocks of order n: block (I, J) is
    member f[I, J] of the (m', n, n) stack of normalised members, shifted
    by outer[I, J].  Block row I depends only on row I of outer and of f,
    so rows() fills any run of rows on demand, in O(rows * m * n) time
    and memory.  verify.verify_ms checks it from these parts, with no
    pass over its (m*n)^2 entries (see verify.py), so a square far beyond
    what could be held or written, such as MS(7^7, 4), is verified."""

    outer: np.ndarray  # (m, m) block shifts, n^2 times the outer square
    stack: np.ndarray  # (m', n, n) members, entries 0..n^2-1 when valid
    f: np.ndarray      # (m, m) member of each block
    t: int

    @property
    def n(self) -> int:
        return self.outer.shape[0] * self.stack.shape[1]

    def rows(self, r0: int, r1: int, out: np.ndarray | None = None) -> np.ndarray:
        """Rows r0..r1-1, filled from the block rows they cross, into out
        if given."""
        m, inner = self.outer.shape[0], self.stack.shape[1]
        if out is None:
            out = np.empty((r1 - r0, m, inner), dtype=np.int64)
        out = out.reshape(r1 - r0, m, inner)
        r = r0
        while r < r1:
            i, lo = divmod(r, inner)
            hi = min(inner, lo + r1 - r)
            # rows lo..hi-1 of every block of block row i, as (row, J, col),
            # gathered in place (f lies in range, so "wrap" never wraps)
            part = out[r - r0:r - r0 + hi - lo]
            np.take(self.stack[:, lo:hi], self.f[i], axis=0, out=part.transpose(1, 0, 2),
                    mode="wrap")
            part += self.outer[i][None, :, None]
            r += hi - lo
        return out.reshape(r1 - r0, m * inner)


def _composed(outer: np.ndarray, stack: np.ndarray, f: np.ndarray, t: int,
              what: str) -> ComposedSquare:
    """The verified ComposedSquare of degree t with blocks stack[f[I, J]] +
    n^2 * outer[I, J], outer and stack normalised."""
    m, n = outer.shape[0], stack.shape[1]
    if ((m * n) ** 2).bit_length() >= 63:
        raise ValueError("composite order is beyond the supported range")
    sq = ComposedSquare(outer * (n * n), stack, f, t)
    _verified_or_raise(verify.verify_ms(sq, t), what)
    return sq


def product_compose(a: MagicSquare, b: MagicSquare) -> ComposedSquare:
    """Order m*n square with entry((i1,i2),(j1,j2)) = a[i1,j1]*n^2 + b[i2,j2],
    of a's degree: the block composition with b as a one-member stack and
    an all-zero assignment."""
    a0 = _require_ms(a, a.t, "first factor")
    b0 = _require_ms(b, a.t, "second factor")
    return _composed(a0, b0[None], np.zeros(a0.shape, dtype=np.int64), a.t, "product square")


@dataclass(frozen=True)
class BlockAssignment:
    """An m x m table over symbols 0..m'-1, balanced on every row, every
    column, and both diagonals (each symbol exactly m/m' times)."""

    m: int
    m_prime: int
    f: np.ndarray

    def __post_init__(self):
        f = verify._int64(self.f)
        m, mp = self.m, self.m_prime
        if f.shape != (m, m):
            raise ValueError("assignment table shape mismatch")
        if m % mp:
            raise ValueError("symbol count must divide the grid order")
        if f.size and (f.min() < 0 or f.max() >= mp):
            raise ValueError("symbols out of range")
        object.__setattr__(self, "f", f)
        per = m // mp
        ar = np.arange(m)
        lines = [self.f[i] for i in range(m)] + [self.f[:, j] for j in range(m)]
        lines.append(self.f[ar, ar])
        lines.append(self.f[ar, m - 1 - ar])
        for line in lines:
            if not np.all(np.bincount(line, minlength=mp) == per):
                raise ValueError("assignment table is not balanced")


def make_block_assignment(table: FieldTable, t_big: int, t_small: int) -> BlockAssignment:
    """f(X, Y) = project(alpha X + beta Y) with the first admissible
    scalar pair; the projection keeps the leading t_small coordinates.

    The back diagonal is balanced because index m-1-j corresponds to the
    componentwise complement vector, and alpha != beta keeps the map
    X -> (alpha - beta) X + beta * complement a bijection.
    """
    if not 0 <= t_small <= t_big or t_big < 1:
        raise ValueError("need 0 <= t_small <= t_big with t_big >= 1")
    q = table.q
    m = q**t_big
    mp = q**t_small

    pair = None
    for beta in range(1, q):
        for alpha in range(1, q):
            if alpha != beta and table.add(alpha, beta) != 0:
                pair = (alpha, beta)
                break
        if pair:
            break
    if pair is None:
        raise ConstructionError(
            f"no admissible scalar pair over GF({q}); q >= 4 is required"
        )
    alpha, beta = pair

    # f(X, Y) read as a base-q numeral, leading component first (Horner)
    index = np.arange(m)
    f = np.zeros((m, m), dtype=np.int64)
    for w in q ** np.arange(t_big - 1, t_big - 1 - t_small, -1):
        x = index // w % q
        f *= q
        f += table.add_table[table.mul_table[x, alpha][:, None], table.mul_table[x, beta]]
    return BlockAssignment(m, mp, f)


def cms_compose(a: MagicSquare, fam: CmsFamily, assign: BlockAssignment) -> ComposedSquare:
    """Block (I, J) of the output holds member f(I, J) of the family,
    shifted by n^2 * a[I, J].  Both inputs are verified first, and the
    output, whose stack is the family's, after."""
    if fam.t != a.t - 1:
        raise ValueError(f"family degree {fam.t} must be {a.t - 1}")
    if assign.m != a.n or assign.m_prime != fam.m:
        raise ValueError("assignment shape does not match the inputs")
    a0 = _require_ms(a, a.t, "outer square")
    rep = verify.verify_cms(fam.stack, fam.t)
    if not rep.passed:
        raise ValueError("family fails complementary verification")
    return _composed(a0, fam.stack, assign.f, a.t, "composed square")


# ---------------------------------------------------------------------------
# End-to-end pipelines
# ---------------------------------------------------------------------------

def build_ms_qt(table: FieldTable, t: int) -> SdloaGrid:
    """Verified MS(q^t, t): a strong-double-large-set grid, which is its
    own square, a row source (see SdloaGrid), as build_sdloa_grid
    verified it."""
    if t < 2:
        raise ValueError("t must be at least 2")
    if table.q < 2 * t - 1:
        raise ValueError(f"q={table.q} must be at least 2t-1={2 * t - 1}")
    cert = registered_pair(table, t) or linalg.find_sdloa_pair(table, t)
    return build_sdloa_grid(cert)


def build_ms_q2t1(table: FieldTable, t: int, progress=None) -> ComposedSquare:
    """Verified MS(q^(2t-1), t): the degree-t grid square block-composed
    with a degree-(t-1) complementary family."""
    if t < 3:
        raise ValueError("t must be at least 3")
    if table.q < 2 * t - 1:
        raise ValueError(f"q={table.q} must be at least 2t-1={2 * t - 1}")
    say = progress or (lambda msg: None)
    say(f"building MS({table.q}^{t}, {t}) from a grid")
    a = build_ms_qt(table, t)
    say(f"grid square verified (order {a.n}); building the {table.q ** (t - 1)}"
        f"-member complementary family")
    fam = build_cms_family(table, t - 1)
    say("complementary family verified; composing blocks")
    assign = make_block_assignment(table, t, t - 1)
    # a and fam were verified by their constructors just above
    out = _composed(a.normalized(), fam.stack, assign.f, t, "composed square")
    say(f"composition verified (order {out.n})")
    return out


# ---------------------------------------------------------------------------
# Order planning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanStep:
    exponent: int  # this factor contributes q^exponent to the order
    method: str    # "qt" or "q2t1"
    q_required: int
    satisfied: bool


@dataclass(frozen=True)
class OrderPlan:
    q: int
    t: int
    m: int
    steps: tuple[PlanStep, ...]
    prime_power_ok: bool
    novelty_window: tuple[int, int]  # q range [low, high) new relative to plain grids

    @property
    def factors(self) -> tuple[int, ...]:
        return tuple(s.exponent for s in self.steps)

    @property
    def feasible(self) -> bool:
        return self.prime_power_ok and all(s.satisfied for s in self.steps)

    def violated(self) -> tuple[PlanStep, ...]:
        return tuple(s for s in self.steps if not s.satisfied)


def plan_order(q: int, t: int, m: int) -> OrderPlan:
    """Decompose the target order q^m into factors q^(t+k), t <= t+k <=
    2t-1, each buildable as a degree-t square, and report feasibility."""
    if t < 3:
        raise ValueError("t must be at least 3")
    if m < t:
        raise ValueError(f"m={m} must be at least t={t}")
    if m <= 2 * t - 1:
        factors = [m]
    else:
        factors = [t] * (m // t - 1) + [t + m % t]

    steps = []
    for f in factors:
        k = f - t
        if k == t - 1:
            method, q_req = "q2t1", 2 * t - 1
        else:
            method, q_req = "qt", 2 * f - 1
        steps.append(PlanStep(f, method, q_req, q >= q_req))

    return OrderPlan(
        q=q,
        t=t,
        m=m,
        steps=tuple(steps),
        prime_power_ok=prime_power(q) is not None,
        novelty_window=(2 * t - 1, 4 * t - 3),
    )
