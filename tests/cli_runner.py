"""The command line run in this process: how the tests run the CLI where no process is checked."""

import io
import warnings
from contextlib import redirect_stderr, redirect_stdout

from cpnbergman.cli import main


def run_in_process(argv):
    """(exit code, stdout bytes, stderr text) of cli.main(argv), RuntimeWarnings as errors.

    stdout is a UTF-8 text stream over bytes that writes "\\n" as it is (newline=""),
    as the stdout of a process does on POSIX, so its bytes compare with a process's.
    A usage error exits as argparse exits it: its code, its message on stderr.
    """
    out, err = io.BytesIO(), io.StringIO()
    stream = io.TextIOWrapper(out, encoding="utf-8", newline="")
    with warnings.catch_warnings(), redirect_stdout(stream), redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        stream.flush()
    return code, out.getvalue(), err.getvalue()
