import contextlib
import io
from importlib import resources

import pytest

from pathcast import load_default_curves
from pathcast.cli import main as cli_main

VALID_CURVES = """\
# comment line
AMU,1,10,100
100,10.0,20.0,30.0
1000,15.0,25.0,35.0
3000,18.0,28.0,38.0

GAREA,freq_mhz,environment,gain_db
100,urban,0
3000,urban,0
100,suburban,5.0
3000,suburban,11.0
100,rural,20.0
3000,rural,31.0
# source: unit-test fixture
"""

# Grids that log interpolation cannot use, as (id, line of VALID_CURVES, its
# replacement, the loader's error).  Before the loader refused them, a rural
# Okumura point at 100 MHz on each ended in a ValueError from log10 of a
# node or a ZeroDivisionError from a zero log10 gap: at 1 km, or at 100 km
# for the log-equal distances.
LOG_AXIS_DEFECTS = [
    ("distance_zero", "AMU,1,10,100", "AMU,0,2,5",
     "line 2: distances must be positive, got 0"),
    ("distance_log_equal", "AMU,1,10,100", "AMU,1,100,100.00000000000001",
     "line 2: distances must be strictly increasing in log10, "
     "got 100.00000000000001 after 100.0"),
    ("frequency_negative", "100,10.0,20.0,30.0", "-100,10.0,20.0,30.0",
     "line 3: frequencies must be positive, got -100"),
    ("frequency_log_equal", "1000,15.0,25.0,35.0", "100.00000000000001,15.0,25.0,35.0",
     "line 4: frequencies must be strictly increasing in log10, "
     "got 100.00000000000001 after 100.0"),
    ("area_gain_frequency_zero", "100,rural,20.0", "0,rural,20.0",
     "line 12: rural area-gain frequencies, once sorted, must be positive, got 0"),
    ("area_gain_frequency_log_equal", "3000,rural,31.0", "100.00000000000001,rural,31.0",
     "line 13: rural area-gain frequencies, once sorted, must be strictly increasing "
     "in log10, got 100.00000000000001 after 100.0"),
]


def defective_curves(old, new):
    assert VALID_CURVES.count(old) == 1
    return VALID_CURVES.replace(old, new)


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
