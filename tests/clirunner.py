"""Run the command line in-process and keep what it printed.

``invoke(*args)`` calls ``cantordensity.cli.main(list(args))`` with stdout and
stderr captured. The result has ``exit_code``, ``stdout``, ``stderr``,
``output`` (both streams in the order they were written) and
``exception``: the ``SystemExit`` of a non-zero exit, or any other error
that escaped ``main``, in which case the exit code is 1.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass

from cantordensity.cli import main


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str
    output: str
    exception: BaseException | None


class _Stream(io.StringIO):
    """One captured stream that also copies every write to a shared one."""

    def __init__(self, both: io.StringIO):
        super().__init__()
        self.both = both

    def write(self, text: str) -> int:
        self.both.write(text)
        return super().write(text)


def invoke(*args: str) -> Result:
    both = io.StringIO()
    out, err = _Stream(both), _Stream(both)
    exit_code, exception = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(args))
        except SystemExit as done:
            exit_code = done.code or 0
            if exit_code:
                exception = done
        except Exception as escaped:  # noqa: BLE001 - reported to the caller
            exit_code, exception = 1, escaped
    return Result(exit_code, out.getvalue(), err.getvalue(), both.getvalue(), exception)
