"""Run bell-lab's main() in this process, as its command line would, and capture what it prints."""

import contextlib
import io
from types import SimpleNamespace

from bell_lab.cli import main


def invoke(args):
    """main(args) with stdout and stderr captured: exit_code, stdout, stderr, output and stdout_bytes."""
    stdout, stderr, code = io.StringIO(), io.StringIO(), None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            main(args)
        except SystemExit as exit_:
            code = exit_.code
    out, err = stdout.getvalue(), stderr.getvalue()
    return SimpleNamespace(exit_code=code, stdout=out, stderr=err, output=out + err, stdout_bytes=out.encode())
