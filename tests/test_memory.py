"""Peak memory of the gen-ms stages, as multiples of the int64 square
they produce, N^2 * 8 bytes at order N, which no stage holds.  numpy
reports its buffers to tracemalloc, so the traced peak counts every array
a stage holds at once.  These bounds guard the copy-free pipeline: never
loosen them to make a change pass."""

import tracemalloc

import numpy as np
import pytest

from multimagic import construct, gf, io, linalg, oa, verify


def traced_peak(fn, *args):
    """fn(*args) and the peak bytes it allocated above the level at entry."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak - start


@pytest.fixture(scope="module")
def cert625():
    return linalg.find_sdloa_pair(gf.build_field_q(25), 2)  # MS(625, 2)


def square_bytes(n: int) -> int:
    """The bytes of an order-n int64 square."""
    return n * n * 8


def grid_check_peak(cert) -> tuple[int, int]:
    """The order of a built grid and the traced peak of its grid check,
    oa._sdloa_ok on its row orientation."""
    grid = construct.build_sdloa_grid(cert)
    ok, peak = traced_peak(oa._sdloa_ok, grid.stack, grid.table.q, grid.t)
    assert ok
    return grid.n, peak


def test_grid_check_in_place(cert625):
    # at t = 2 the int16 cells take as many bytes as the int64 square; the
    # check proves members and slabs from the grid's table and tallies
    # member 0, column slab 0 and the diagonal selections (0.06 of the
    # square); coverage is the square's, checked by verify_ms
    n, peak = grid_check_peak(cert625)
    assert peak <= 1.0 * square_bytes(n)


def test_encode_by_horner(cert625):
    # the square's rows are the cell codes, filled on demand by the
    # compiled grid_rows; the check returns none
    grid, peak = traced_peak(construct.build_sdloa_grid, cert625)
    cells = grid.cells
    want = (cells.astype(np.int64) * grid.table.q ** np.arange(cells.shape[2])).sum(axis=2)
    assert np.array_equal(grid.entries, want)
    assert np.array_equal(grid.rows(100, 133), want[100:133])
    assert peak <= 1.5 * square_bytes(grid.n)


def test_grid_check_holds_no_cells():
    # MS(2401, 4): the (N, N, 8) int16 cells would be twice the int64
    # square; the check proves the members from the grid's structure and
    # gathers no block of cells; the peak (0.13 of the square) is the
    # strength tally of the two diagonal selections
    n, peak = grid_check_peak(linalg.find_sdloa_pair(gf.build_field_q(7), 4))
    assert peak <= 0.15 * square_bytes(n)


def test_strength_tally_is_bounded_by_its_chunk(monkeypatch):
    # MS(2401, 4): the diagonal selections' tally holds about a chunk of
    # codes, their float64 product and their counts, whatever C(8, 4) = 70;
    # coding every subset of a slab at once held 2 x 70 x 2401 codes
    chunk = 1 << 16
    monkeypatch.setattr(oa, "_TALLY_ENTRIES", chunk)
    grid = construct.build_sdloa_grid(linalg.find_sdloa_pair(gf.build_field_q(7), 4))
    diagonals = oa._diagonals(grid.stack)
    ok, peak = traced_peak(oa._strength_ok, diagonals, 7, 4)
    assert ok
    assert peak <= 4 * chunk * 8


def test_pipelines_never_gather_the_whole_grid(f5, monkeypatch):
    """build_ms_qt, build_cms_family and build_ms_q2t1 prove their grids
    from the grid's structure: neither the whole-cell gather nor the grid
    square's whole-square gather is ever called, and every gather of grid
    members fetches one member (member 0, column slab 0)."""
    def whole(self):
        raise AssertionError("the whole cell grid was gathered")

    def whole_square(self):
        raise AssertionError("the whole grid square was gathered")

    monkeypatch.setattr(construct.SdloaGrid, "cells", property(whole))
    monkeypatch.setattr(construct.SdloaGrid, "entries", property(whole_square))
    picks = []
    pick = oa._GridStack.pick

    def recorded(self, index):
        out = pick(self, index)
        picks.append(out.shape)
        return out

    monkeypatch.setattr(oa._GridStack, "pick", recorded)
    construct.build_ms_qt(f5, 3)
    construct.build_cms_family(f5, 2)
    construct.build_ms_q2t1(f5, 3)
    assert {(k, n) for _, k, n in picks} == {(6, 125), (4, 25)}
    assert {count for count, _, _ in picks} == {1}


def test_verify_in_row_blocks(cert625, monkeypatch):
    grid = construct.build_sdloa_grid(cert625)
    sq = verify.MagicSquare(grid.entries, grid.t)
    monkeypatch.setattr(verify, "_BLOCK_ENTRIES", 16 * sq.n)
    rep, peak = traced_peak(verify.verify_ms, sq, 2)
    assert rep.passed
    assert peak <= 0.5 * square_bytes(sq.n)


def test_verify_grid_square_in_row_blocks(cert625, monkeypatch):
    # the grid square's rows are filled block by block on the workers
    sq = construct.build_sdloa_grid(cert625)
    monkeypatch.setattr(verify, "_BLOCK_ENTRIES", 16 * sq.n)
    rep, peak = traced_peak(verify.verify_ms, sq, 2)
    assert rep.passed
    assert peak <= 0.5 * square_bytes(sq.n)


def test_block_assignment_builds_one_table():
    # f is built a component at a time into one (m, m) int64 table; the
    # (m, m, t) component array and its int64 copy took 5.0 times f
    table = gf.build_field_q(7)
    ba, peak = traced_peak(construct.make_block_assignment, table, 4, 3)
    assert peak <= 1.5 * ba.f.nbytes


def test_compose_writes_its_output_directly(f5):
    # the acceptance-5 inputs: MS(125, 3) with the 25-member CMS(25, 2)
    a = construct.build_ms_qt(f5, 3)
    fam = construct.build_cms_family(f5, 2)
    assign = construct.make_block_assignment(f5, 3, 2)
    out, peak = traced_peak(lambda: construct._composed(a.normalized(), fam.stack, assign.f,
                                                        a.t, "composed square"))
    assert out.n == 3125
    assert peak <= 2 * out.entries.nbytes


def test_read_back_in_place(tmp_path, pool_size, workers=1, bound=0.45):
    # the checked write of a held square: each piece's text, the values
    # decoded from it and its bytes read back from the file sit in buffers
    # reused from piece to piece, 0.36 of the square at one worker; writing
    # alone took 0.58 before the writer checked its pieces
    pool_size(workers)
    n = 625
    sq = verify.MagicSquare(np.random.default_rng(1).permutation(n * n).reshape(n, n), 2)
    path = tmp_path / "sq.mms"
    _, peak = traced_peak(io.write_ms, path, sq)
    assert np.array_equal(io.read_ms(path).entries, sq.entries)
    assert peak <= bound * sq.entries.nbytes


def test_read_back_in_place_at_four_workers(tmp_path, pool_size):
    # the pool's window holds up to two pieces of text per worker, 0.53 of
    # the square in all (writing alone took 0.59)
    test_read_back_in_place(tmp_path, pool_size, 4, 0.58)


def test_text_square_read(tmp_path, pool_size, workers=1, bound=1.2):
    # each piece's per-line counts are sized by its line breaks, not its
    # bytes; one int64 per byte took 1.36 of the square at one worker
    pool_size(workers)
    n = 625
    sq = verify.MagicSquare(np.random.default_rng(3).permutation(n * n).reshape(n, n), 2)
    path = tmp_path / "sq.mms"
    io.write_ms(path, sq)
    back, peak = traced_peak(io.read_ms, path)
    assert np.array_equal(back.entries, sq.entries)
    assert peak <= bound * sq.entries.nbytes


def test_text_square_read_at_four_workers(tmp_path, pool_size):
    # four workers hold more pieces in flight (1.54 of the square before)
    test_text_square_read(tmp_path, pool_size, 4, 1.3)


def test_binary_square_is_read_in_place(tmp_path):
    # an MMB payload is read straight into the entries, 1.0 of the square;
    # holding the file, its payload slice and a converted copy took 3.0
    n = 1000
    sq = verify.MagicSquare(np.random.default_rng(2).permutation(n * n).reshape(n, n), 2)
    path = tmp_path / "sq.mmb"
    io.write_ms(path, sq, binary=True)
    back, peak = traced_peak(io.read_ms, path)
    assert np.array_equal(back.entries, sq.entries)
    assert peak <= 1.5 * sq.entries.nbytes


def test_composed_square_is_never_held(f5, tmp_path):
    """build_ms_q2t1 at (5, 3), then the checked write of its order-3125
    square, read through row blocks: together they hold a fraction of
    the int64 square."""
    path = tmp_path / "sq.mms"

    def pipeline():
        sq = construct.build_ms_q2t1(f5, 3)
        io.write_ms(path, sq)
        return sq.n

    n, peak = traced_peak(pipeline)
    assert n == 3125 and path.stat().st_size == io.ms_text_bytes(n, 3)
    assert peak <= 0.25 * n * n * 8


def test_grid_square_is_never_held(tmp_path):
    """build_ms_qt at (7, 4), then the checked write of its order-2401
    square, read through row blocks: together they hold the grid check's
    N^2-bit seen-map, its strength tallies and a few blocks, a fraction
    of the int64 square."""
    path = tmp_path / "sq.mms"

    def pipeline():
        sq = construct.build_ms_qt(gf.build_field_q(7), 4)
        io.write_ms(path, sq)
        return sq.n

    n, peak = traced_peak(pipeline)
    assert n == 2401 and path.stat().st_size == io.ms_text_bytes(n, 4)
    assert peak <= 0.25 * square_bytes(n)
