"""The workspace pool: byte-sized buffers, best fit, refcount-guarded reuse."""

import numpy as np
import pytest

from repro.tensor import workspace
from repro.tensor.workspace import acquire_workspace, workspace_bytes


@pytest.fixture(autouse=True)
def _empty_pool():
    workspace.clear_workspace_cache()
    yield
    workspace.clear_workspace_cache()


def _buffer_id(view: np.ndarray) -> int:
    """The id of the pooled buffer a view was cut from (holding the buffer
    itself would keep it busy)."""
    (buf_id,) = [id(b) for b in workspace._WORKSPACE if b is view.base]
    return buf_id


class TestBytePool:
    def test_one_buffer_serves_two_shapes_and_dtypes_in_turn(self):
        a = acquire_workspace((4, 6), np.float64)  # 192 bytes
        buf = _buffer_id(a)
        del a
        b = acquire_workspace((3, 2, 8), np.float32)  # 192 bytes
        assert id(b.base) == buf
        assert b.shape == (3, 2, 8) and b.dtype == np.float32
        assert b.flags.c_contiguous and b.flags.writeable
        del b
        c = acquire_workspace((5,), np.bool_)  # fits in the same buffer
        assert id(c.base) == buf
        assert len(workspace._WORKSPACE) == 1

    def test_a_live_view_keeps_its_buffer_busy(self):
        a = acquire_workspace((16,), np.float32)
        inner = a.reshape(4, 4)[1:3, 1:3]  # a view of a view still pins it
        del a
        b = acquire_workspace((16,), np.float32)
        assert b.base is not inner.base
        assert len(workspace._WORKSPACE) == 2
        del b, inner
        c = acquire_workspace((16,), np.float32)
        assert len(workspace._WORKSPACE) == 2
        assert c.base is workspace._WORKSPACE[0] or c.base is workspace._WORKSPACE[1]

    def test_best_fit_takes_the_smallest_free_buffer_that_fits(self):
        big = acquire_workspace((1000,), np.uint8)
        small = acquire_workspace((100,), np.uint8)
        mid = acquire_workspace((500,), np.uint8)
        bufs = {n: _buffer_id(v) for n, v in ((1000, big), (100, small), (500, mid))}
        assert [b.nbytes for b in workspace._WORKSPACE] == [100, 500, 1000]
        del big, small, mid
        held = [acquire_workspace((60,), np.float32)]  # 240 bytes
        held.append(acquire_workspace((100,), np.uint8))
        held.append(acquire_workspace((101,), np.uint8))
        assert [id(v.base) for v in held] == [bufs[500], bufs[100], bufs[1000]]
        # Nothing free fits: a new buffer of exactly the request's size.
        new = acquire_workspace((3, 7), np.float32)
        assert new.base.nbytes == 84
        assert [b.nbytes for b in workspace._WORKSPACE] == [84, 100, 500, 1000]

    def test_zero_fills_the_view_on_reuse(self):
        a = acquire_workspace((8,), np.float32)
        a[:] = 3.0
        del a
        np.testing.assert_array_equal(acquire_workspace((8,), np.float32), np.zeros(8))

    def test_workspace_bytes_reports_held_and_busy(self):
        assert workspace_bytes() == (0, 0)
        a = acquire_workspace((10,), np.float64)
        b = acquire_workspace((5,), np.float32)
        assert workspace_bytes() == (100, 100)
        del a
        assert workspace_bytes() == (100, 20)
        del b
        assert workspace_bytes() == (100, 0)
