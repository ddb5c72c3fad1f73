import contextlib
import io
from importlib import resources

import pytest

from pathcast import load_default_curves
from pathcast.cli import main as cli_main


@pytest.fixture(scope="session")
def bundled_curves():
    return load_default_curves()


def bundled_curves_path():
    return str(resources.files("pathcast.data").joinpath("okumura_curves.csv"))


def invoke_cli(argv):
    """Run the CLI in-process; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()
