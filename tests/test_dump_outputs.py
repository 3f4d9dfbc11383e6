"""tools/dump_outputs.py: a second run refuses to overlap a running one."""

import fcntl
import os
import pathlib
import subprocess
import sys
import tempfile

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "dump_outputs.py"
_WORKDIR = os.path.join(tempfile.gettempdir(), "corrsets-dump-outputs")


def test_a_held_lock_makes_the_dump_exit_2_without_output():
    os.makedirs(_WORKDIR, exist_ok=True)
    with open(os.path.join(_WORKDIR, "dump.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # waits for a real dump to finish
        done = subprocess.run([sys.executable, str(_PATH)], capture_output=True, text=True,
                              timeout=120)
    assert done.returncode == 2
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1 and "another run holds" in done.stderr
