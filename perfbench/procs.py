"""Launching and stopping the benchmark's worker processes.

Every worker is ``python3 perfbench/agent.py <role> ...`` started from
the repository root.  It reports on stdout as one JSON object per line
(``{"event": "ready", ...}`` once set up, a final event before it
exits) and stops when its stdin closes.  Its stderr goes to a log file
under the work directory.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path

#: Seconds a worker may take to import, build and answer first.
READY_TIMEOUT_S = 120.0


class Agent:
    """One running worker process."""

    def __init__(self, root: Path, work: Path, args: list) -> None:
        self._log = open(work / "agent.log", "ab")
        # Temporary files (the native kernel build) stay in the checkout.
        env = {**os.environ, "TMPDIR": str(work / "tmp")}
        self.proc = subprocess.Popen(
            [sys.executable, str(root / "perfbench" / "agent.py"), *args],
            cwd=root, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._log, env=env, bufsize=0,
        )

    def wait_event(self, name: str,
                   timeout_s: float = READY_TIMEOUT_S) -> dict:
        """Block until the worker prints event ``name``; returns it."""
        deadline = time.monotonic() + timeout_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(f"worker sent no {name!r} event in time")
            ready, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if not ready:
                continue
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"worker exited before {name!r} "
                    f"(code {self.proc.wait()}); see agent.log"
                )
            message = json.loads(line)
            if message.get("event") == name:
                return message

    def finish(self, name: str, timeout_s: float) -> dict:
        """Close stdin (the stop signal), wait for event ``name``, and
        reap the process."""
        self.proc.stdin.close()
        message = self.wait_event(name, timeout_s)
        self.proc.wait(timeout=timeout_s)
        self._log.close()
        return message

    def kill(self) -> None:
        """Stop the worker unconditionally (error paths)."""
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if not self._log.closed:
            self._log.close()
