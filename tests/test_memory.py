"""Peak memory of the gen-ms stages, as multiples of the arrays they
produce.  numpy reports its buffers to tracemalloc, so the traced peak
counts every array a stage holds at once.  These bounds guard the
copy-free pipeline: never loosen them to make a change pass."""

import tracemalloc

import numpy as np
import pytest

from multimagic import construct, gf, linalg, verify


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


def test_grid_check_in_place(cert625):
    grid, peak = traced_peak(construct.build_sdloa_grid, cert625)
    assert peak <= 2.5 * grid.cells.nbytes


def test_encode_by_horner(cert625):
    grid = construct.build_sdloa_grid(cert625)
    sq, peak = traced_peak(construct.grid_to_ms, grid, False)
    assert peak <= 1.25 * sq.entries.nbytes


def test_verify_in_row_blocks(cert625, monkeypatch):
    sq = construct.grid_to_ms(construct.build_sdloa_grid(cert625), check=False)
    monkeypatch.setattr(verify, "_BLOCK_ENTRIES", 16 * sq.n)
    rep, peak = traced_peak(verify.verify_ms, sq, 2)
    assert rep.passed
    assert peak <= 0.5 * sq.entries.nbytes


def test_compose_writes_its_output_directly(f5):
    # the acceptance-5 inputs: MS(125, 3) with the 25-member CMS(25, 2)
    a = construct.build_ms_qt(f5, 3)
    fam = construct.build_cms_family(f5, 2)
    assign = construct.make_block_assignment(f5, 3, 2)
    out, peak = traced_peak(construct._compose_blocks, a, fam, assign)
    assert out.n == 3125
    assert peak <= 2 * out.entries.nbytes
