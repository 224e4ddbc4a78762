from pathlib import Path

import numpy as np
import pytest

from multimagic import _pool, gf, io, oa

DATA = Path(__file__).parent / "data"
GOLDEN_CMS9 = DATA / "cms9_expected.cms"
GOLDEN_LOA = DATA / "loa_9_2_4_3_members.oaf"

# one line per acceptance criterion, echoed after the run regardless of
# pytest's stdout capturing
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def cells_family(cells: np.ndarray, v: int, t: int) -> oa.ArrayFamily:
    """The row orientation of an (N, N, k) cell grid as an OrthArray
    family: member r holds the cells of grid row r as its columns."""
    by_row = np.ascontiguousarray(cells.transpose(0, 2, 1))
    return oa.ArrayFamily(tuple(oa.OrthArray(m, v, t) for m in by_row))


def rows_family(grid) -> oa.ArrayFamily:
    """A built grid's row orientation as an OrthArray family."""
    return cells_family(grid.cells, grid.table.q, grid.t)


@pytest.fixture
def pool_size():
    """A setter of the worker pool's size, restored after the test."""
    before = _pool.size()
    yield _pool.set_size
    _pool.set_size(before)


@pytest.fixture(scope="session")
def f3():
    return gf.build_field(3, 1)


@pytest.fixture(scope="session")
def f5():
    return gf.build_field(5, 1)


@pytest.fixture(scope="session")
def f7():
    return gf.build_field(7, 1)


@pytest.fixture(scope="session")
def f9():
    return gf.build_field(3, 2)


@pytest.fixture(scope="session")
def golden_cms9():
    """The nine frozen order-9 bimagic squares, as a bundle."""
    return io.read_cms_bundle(GOLDEN_CMS9)


@pytest.fixture(scope="session")
def golden_loa():
    """The 81 frozen 4x9 arrays, indexed members[9*i + k]."""
    return io.read_oa_family(GOLDEN_LOA)


@pytest.fixture(scope="session")
def wide_simple_oa():
    """A simple strength-1 OA whose column codes overflow int64: v=512,
    k=8, N=1024, every row 0..511 twice, except that row 7's second half
    is shifted by 2.  All 1024 columns are distinct, but 512^8 >= 2^63."""
    entries = np.tile(np.arange(512), (8, 2))
    entries[7, 512:] = (entries[7, 512:] + 2) % 512
    return oa.OrthArray(entries, 512, 1)
