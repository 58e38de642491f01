import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_leftover_child_processes():
    """Fail a test that leaves a child process running, after stopping it."""
    yield
    alive = multiprocessing.active_children()
    if not alive:
        return
    left = ", ".join(repr(child) for child in alive)
    for child in alive:
        child.terminate()
        child.join()
    pytest.fail(f"test left {len(alive)} child process(es) running: {left}")
