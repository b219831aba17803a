"""The two ways the tests run a lazystates command.

run_cli runs it in this process, which is enough wherever the subject is a
command's output or exit code.  run_process starts a fresh interpreter,
for the tests whose subject is the process itself: start-up, a closed
stdout, an environment variable read at start-up, a fresh hash seed.
"""

import contextlib
import io
import subprocess
import sys

from lazystates import cli


def run_cli(*args):
    """`lazystates *args` as cli.main runs it, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:  # argparse: usage errors, --help and --version
            code = exc.code
    return subprocess.CompletedProcess(["lazystates", *args], code, out.getvalue(), err.getvalue())


def run_process(*args, **kwargs):
    """`python -m lazystates *args` in a fresh interpreter; kwargs go to
    subprocess.run, and stdout and stderr are captured unless they say otherwise."""
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.run([sys.executable, "-m", "lazystates", *args], text=True, **kwargs)
