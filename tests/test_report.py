"""``report.trace_csv``: the one writer of a trace CSV a block at a time."""

import errno
import itertools
import os

import pytest

from microinject.report import CannotWrite, trace_csv, write_trace_csv

# five trace rows, special values included, one field for each column
ROWS = [
    tuple(float(i) + f for f in (0.0, 0.25, -0.0, 1e-300, 3.5, -7.0, 0.1,
                                 2.0, -1.5, 1e17, 5e-324, 9.0, -2.25))
    for i in range(4)
] + [(4.0, float("nan"), float("inf"), float("-inf"), *[0.5] * 9)]


def _blocks(rows, cuts):
    """``rows`` cut before each index in ``cuts``, in order."""
    bounds = [0, *cuts, len(rows)]
    return [rows[a:b] for a, b in zip(bounds, bounds[1:])]


def test_trace_csv_writes_the_bytes_of_write_trace_csv_for_any_cut(
    tmp_path,
):
    whole = tmp_path / "whole.csv"
    write_trace_csv(str(whole), ROWS)
    expected = whole.read_bytes()
    streamed = tmp_path / "streamed.csv"
    # every set of cuts, with empty blocks at either end and between
    points = range(len(ROWS) + 1)
    for n in range(len(ROWS) + 2):
        for cuts in itertools.combinations_with_replacement(points, n):
            with trace_csv(str(streamed)) as write_rows:
                for block in _blocks(ROWS, cuts):
                    write_rows(block)
            assert streamed.read_bytes() == expected, cuts


@pytest.mark.parametrize("error", [
    ValueError("raised by the walk"),
    OSError(errno.EIO, "raised elsewhere"),
    CannotWrite("another.csv", OSError(errno.ENOSPC, "No space left")),
    KeyboardInterrupt(),
], ids=["ValueError", "OSError", "another-CannotWrite", "KeyboardInterrupt"])
def test_trace_csv_removes_its_file_when_the_block_raises(tmp_path, error):
    # whatever unwinds the block that is not its own failed write removes
    # the CSV, rows written or not, and reaches the caller as it was raised
    path = tmp_path / "trace.csv"
    with pytest.raises(type(error)) as raised:
        with trace_csv(str(path)) as write_rows:
            write_rows(ROWS)
            raise error
    assert raised.value is error
    assert not path.exists()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("rows, in_sink", [(ROWS[:1], False),
                                           (ROWS * 400, True)],
                         ids=["fails-at-close", "fails-in-the-sink"])
def test_trace_csv_own_failed_write_names_its_path_and_leaves_it(
    tmp_path, rows, in_sink,
):
    # every write to /dev/full fails: a small block stays in the buffer and
    # fails when the file is closed, a large one in the sink's own write.
    # Either way the error names the path, and the symlink is left
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    path = tmp_path / "trace.csv"
    path.symlink_to("/dev/full")
    returned = []
    with pytest.raises(CannotWrite) as raised:
        with trace_csv(str(path)) as write_rows:
            write_rows(rows)
            returned.append(True)
    assert returned == ([] if in_sink else [True])
    assert raised.value.path == str(path)
    assert str(raised.value) == (
        f"cannot write {path}: {os.strerror(errno.ENOSPC)}")
    assert os.readlink(path) == "/dev/full"
    assert list(tmp_path.iterdir()) == [path]

