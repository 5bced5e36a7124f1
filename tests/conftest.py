import tracemalloc

import numpy.fft  # noqa: F401 -- numpy 2 imports these on first use; not inside a traced call
import numpy.random  # noqa: F401
import pytest


@pytest.fixture
def traced_peak():
    """Peak bytes a call allocates, numpy buffers included, its result counted.

    numpy reports its array buffers to :mod:`tracemalloc`, so the peak covers
    every temporary array the call made and frees again.
    """
    def measure(call):
        tracemalloc.start()
        try:
            result = call()  # noqa: F841 -- held, so the peak is taken with it alive
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return measure
