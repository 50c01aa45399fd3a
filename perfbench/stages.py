"""Run one CLI stage, either as its own process or inside this one.

A child process is timed from spawn to exit, and its peak RSS comes from
`os.wait4`; that is what a user of the command pays, interpreter start and
imports included. The in-process runner calls `framescore.cli.main(argv)`
under a root span, for the traced run.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass

STAGE_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class StageRun:
    stage: str
    ok: bool
    seconds: float
    rss_mb: float | None = None


class ChildStages:
    """`python -m framescore.cli <stage> ...` in a fresh interpreter."""

    def __init__(self, src_dir, workdir) -> None:
        self.workdir = workdir
        self.env = dict(os.environ)
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src_dir + (os.pathsep + path if path else "")

    def run(self, argv: list[str], traced: bool = False) -> StageRun:
        """Child processes are never traced; `traced` is ignored."""
        stage = argv[0]
        log = os.path.join(self.workdir, f"{stage}.log")
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "framescore.cli", *argv],
                stdout=out, stderr=subprocess.STDOUT, env=self.env,
            )
            watchdog = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return StageRun(stage, proc.returncode == 0, seconds,
                        usage.ru_maxrss / 1024.0)


class InProcessStages:
    """`framescore.cli.main(argv)` in this process, under a root span."""

    def __init__(self, src_dir, workdir, recorder, tracer) -> None:
        if src_dir not in sys.path:
            sys.path.insert(0, src_dir)
        from framescore import cli

        self.cli = cli
        self.workdir = workdir
        self.recorder = recorder
        self.tracer = tracer

    def run(self, argv: list[str], traced: bool = True) -> StageRun:
        stage = argv[0]
        hooks = self.tracer.installed() if traced else contextlib.nullcontext()
        out = io.StringIO()
        with hooks, contextlib.redirect_stdout(out), \
                self.recorder.span(f"cli.{stage}", traced=traced) as root:
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crashing stage counts as a failed run
                traceback.print_exc(file=out)
                code = 1
        with open(os.path.join(self.workdir, f"{stage}.log"), "w",
                  encoding="utf-8") as fh:
            fh.write(out.getvalue())
        return StageRun(stage, code == 0, root.seconds)
