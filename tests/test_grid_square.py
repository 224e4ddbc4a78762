"""The grid square as a row source: the compiled grid_rows against the
oracle's column codes of the gathered cells, on prime and non-prime
fields, and a broken fill caught by the generator's verification."""

import numpy as np
import pytest

from multimagic import cli, construct, gf, linalg, oa, verify
from multimagic.construct import SdloaGrid

import oa_oracle

# q >= 2t - 1; q = 3 at t = 2 is the registered fixture pair, and 4, 8
# and 9 are non-prime fields
FILLS = [(q, t) for t in (2, 3) for q in (3, 4, 5, 7, 8, 9) if q >= 2 * t - 1]


def grid_of(q: int, t: int) -> construct.SdloaGrid:
    table = gf.build_field_q(q)
    cert = construct.registered_pair(table, t) or linalg.find_sdloa_pair(table, t)
    return construct.build_sdloa_grid(cert)


def oracle_square(grid: construct.SdloaGrid) -> np.ndarray:
    """The oracle's column codes of the grid's row orientation, gathered
    whole: entry (r, c) codes the cell of grid row r and column c."""
    return oa_oracle._column_codes(grid.cells.transpose(0, 2, 1), grid.table.q)


@pytest.mark.parametrize("q,t", FILLS)
def test_fill_matches_the_oracle(q, t):
    sq = grid_of(q, t)
    want = oracle_square(sq)
    n = sq.n
    assert n == q**t and sq.t == t and sq.base == 0
    assert np.array_equal(sq.entries, want)
    assert np.array_equal(sq.normalized(), want)
    spans = [(0, n), (0, 1), (n - 1, n), (1, n - 1), (n // 3, n // 2 + 1), (n // 2, n // 2)]
    for r0, r1 in spans + [(r, r + 1) for r in range(0, n, max(1, n // 7))]:
        got = sq.rows(r0, r1)
        assert got.shape == (r1 - r0, n) and got.dtype == np.int64
        assert np.array_equal(got, want[r0:r1]), (r0, r1)
    assert sq.rows(n, n).shape == (0, n)


def test_rows_outside_the_square_are_refused():
    sq = grid_of(5, 2)
    for r0, r1 in ((-1, 2), (3, 2), (0, 26)):
        with pytest.raises(ValueError, match="outside"):
            sq.rows(r0, r1)


@pytest.mark.parametrize("size, a, b, message", [
    (10, [[0, 1]], [[0, 1]], "not v x v"),
    (16, [[0, 4]], [[1, 4]], "components in 0..3"),
    (16, [[0, 13]], [[1, 2]], "rows index outside the table"),
    (4, [[0] * 63], [[0] * 63], "overflow int64"),
    (4, np.zeros((1, 0)), np.zeros((1, 0)), "at least one component"),
])
def test_fill_refuses_entries_out_of_range(size, a, b, message):
    # every sum indexes the table, but the pair tables of grid_rows would
    # read past it, or the codes would not fit in int64
    stack = oa._GridStack(np.arange(size), np.array(a), np.array(b))
    with pytest.raises(ValueError, match=message):
        stack.codes(0, 1)


def test_the_grid_is_verified_once_as_its_own_square(monkeypatch):
    """build_sdloa_grid at (7, 4) makes one verify_ms call, on the grid
    itself, which fills each of its 2401 rows once through
    _GridStack.codes; build_ms_qt returns that verified grid."""
    table = gf.build_field_q(7)
    cert = linalg.find_sdloa_pair(table, 4)
    filled, checked = [], []
    codes, verify_ms = oa._GridStack.codes, verify.verify_ms

    def counted_codes(self, r0, r1, out=None):
        filled.append(r1 - r0)
        return codes(self, r0, r1, out)

    def counted_verify(sq, t=None):
        checked.append(sq)
        return verify_ms(sq, t)

    monkeypatch.setattr(oa._GridStack, "codes", counted_codes)
    monkeypatch.setattr(verify, "verify_ms", counted_verify)
    grid = construct.build_sdloa_grid(cert)
    assert isinstance(grid, SdloaGrid) and grid.cert is cert
    assert len(checked) == 1 and checked[0] is grid
    assert sum(filled) == grid.n == 7**4
    checked.clear()
    monkeypatch.setattr(linalg, "find_sdloa_pair", lambda *args: cert)
    built = construct.build_ms_qt(table, 4)
    assert isinstance(built, SdloaGrid) and built.cert is cert
    assert len(checked) == 1 and checked[0] is built


def test_broken_fill_fails_verification(tmp_path, capsys, monkeypatch):
    """A fill that swaps two entries of each block it returns keeps the
    entries consecutive but breaks two column sums: gen-ms exits 3 and
    writes nothing."""
    real = SdloaGrid.rows

    def swapped(self, r0, r1):
        out = real(self, r0, r1)
        if len(out):
            out[0, [0, 1]] = out[0, [1, 0]]
        return out

    monkeypatch.setattr(SdloaGrid, "rows", swapped)
    out = tmp_path / "x.mms"
    assert cli.main(["gen-ms", "--q", "5", "--t", "2", "--method", "qt",
                     "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("construction failed: encoded square failed verification: col 0 ")
    assert list(tmp_path.iterdir()) == []


def test_gen_ms_fills_its_square_twice_and_marks_one_map(tmp_path, monkeypatch):
    """gen-ms --method qt at (7, 4) fills each row of its square twice
    through _GridStack.codes, once to verify it and once to write it, and
    marks one N^2-bit map, the square's consecutive entries, which are the
    grid's coverage."""
    n = 7**4
    filled, maps = [], []
    codes, mark = oa._GridStack.codes, verify._mark

    def counted_codes(self, r0, r1, out=None):
        filled.append(r1 - r0)
        return codes(self, r0, r1, out)

    def counted_mark(values, bits, limit, base=0):
        if bits.size * 8 >= n * n:
            maps.append(bits)  # held, so that no two maps share an id
        return mark(values, bits, limit, base)

    monkeypatch.setattr(oa._GridStack, "codes", counted_codes)
    monkeypatch.setattr(verify, "_mark", counted_mark)
    monkeypatch.setattr(oa, "_mark", counted_mark)
    out = tmp_path / "x.mms"
    assert cli.main(["gen-ms", "--q", "7", "--t", "4", "--method", "qt",
                     "--out", str(out)]) == 0
    assert sum(filled) == 2 * n
    assert len({id(bits) for bits in maps}) == 1
