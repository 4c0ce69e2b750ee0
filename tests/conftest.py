import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """run(call, *args) -> (call(*args), the tracemalloc peak of the call in
    bytes): what it allocated and held at its peak, results included."""
    def run(call, *args):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            return call(*args), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return run
