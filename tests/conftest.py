import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or unreaped:
    enumeration forks workers, and every call must wait for all of them."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    what = "running" if pid == 0 else f"{pid}, exit status {status}, unreaped"
    pytest.fail(f"the test left a child process behind ({what})")
