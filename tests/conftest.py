import contextlib
import io
from importlib import resources

import pytest

from pathcast import load_default_curves
from pathcast.cli import main as cli_main
from pathcast.scenario import _distance_chunks

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


def flat_distances(d_min_m, d_max_m, steps, spacing="log"):
    """A sweep's distances in one list: the chunks of ``_distance_chunks``,
    whose argument checks run on the call, flattened."""
    return [d for chunk in _distance_chunks(d_min_m, d_max_m, steps, spacing) for d in chunk]


def invoke_cli(argv):
    """Run the CLI in-process; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def checked_points(branch_points, d_min_m, d_max_m):
    """The distances whose losses prove a bracket monotone, in order: its ends
    and the branch points strictly inside it, found by testing every one."""
    return [d_min_m, *(d for d in branch_points if d_min_m < d < d_max_m), d_max_m]


def plain_bisection(loss, branch_points, max_loss_db, d_min_m, d_max_m):
    """Cell-range inversion by plain bisection over ``loss``, evaluating every
    midpoint: ``invert_cell_range``'s checks, messages and stops, as they
    were before it decided log-affine pieces by comparison.  Returns the
    distance and the midpoints in the order they were taken, or raises what
    ``invert_cell_range`` raises, the refusal of a bracket that 200 halvings
    cannot resolve included."""
    from pathcast import BoundsError, DomainError
    if not d_min_m < d_max_m:
        raise DomainError("bracket requires d_min < d_max")
    if d_min_m <= 0:
        raise DomainError("bracket requires d_min > 0")
    checked = checked_points(branch_points, d_min_m, d_max_m)
    values = [loss(d) for d in checked]
    for (d_a, v_a), (d_b, v_b) in zip(zip(checked, values), zip(checked[1:], values[1:])):
        if v_b < v_a:
            raise DomainError(
                f"loss is not monotone increasing over the bracket: "
                f"PL({d_a:.2f} m) = {v_a:.4f} dB > PL({d_b:.2f} m) = {v_b:.4f} dB")
    pl_min, pl_max = values[0], values[-1]
    if not pl_min <= max_loss_db <= pl_max:
        raise BoundsError(
            f"target {max_loss_db:.4f} dB outside bracket: "
            f"PL({d_min_m:g} m) = {pl_min:.4f} dB, PL({d_max_m:g} m) = {pl_max:.4f} dB")
    if max_loss_db == pl_max:
        return d_max_m, []
    if max_loss_db == pl_min:
        return d_min_m, []
    lo, hi, lo_loss, midpoints = d_min_m, d_max_m, pl_min, []
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        midpoints.append(mid)
        value = loss(mid)
        if value <= max_loss_db:
            lo, lo_loss = mid, value
            if max_loss_db - value <= 1e-6:
                break
        else:
            hi = mid
        if hi - lo <= 1e-3 and max_loss_db - lo_loss <= 1e-6:
            break
    else:
        if lo < 0.5 * (lo + hi) < hi:
            raise DomainError(f"bracket [{d_min_m:g}, {d_max_m:g}] m too wide: 200 bisection "
                              f"steps left [{lo:g}, {hi:g}] m unresolved")
    return lo, midpoints
