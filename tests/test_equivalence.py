"""Bit-for-bit equivalence digests of every binder and of cell-range inversion.

Every case is one line of text: its inputs, then its outcome.  A result is
its components with each value in ``float.hex()``, its warnings and the
binding's ``branch_points``; ``at.loss`` is hashed next to it; a failure is
the error's type and message.  The lines of each model, and those of
``invert_cell_range`` on fixed targets and brackets, hash to one SHA-256
digest each, kept in ``tests/golden/equivalence.json``, so a failure names
the model.  The digests pin the last bit of the platform's ``log10``, as the
goldens do.

A change that moves a value on purpose regenerates the file and says in
CHANGES.md which digest moved and why:

    PYTHONPATH=src python tests/test_equivalence.py --write

A bare digest mismatch says nothing about its cause.  To print the first
case that differs from another revision (checked out with ``git worktree``
in a temporary directory) or from another checkout's directory:

    PYTHONPATH=src python tests/test_equivalence.py --diff REV_OR_DIR
"""

import argparse
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from pathcast import (
    Environment,
    FidelityMode,
    ModelId,
    bind,
    default_scenario,
    invert_cell_range,
    load_default_curves,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "equivalence.json"
INVERSION = "invert_cell_range"

FREQUENCIES_MHZ = (150.0, 500.0, 1500.0, 2100.0, 3500.0)
BS_HEIGHTS_M = (18.0, 30.0, 80.0)
RX_HEIGHTS_M = (1.5, 6.0)
ROOF_HEIGHTS_M = (15.0, 25.0)
# SUI urban's exponent gamma is about 0 here: the loss rises by about 3e-14 dB
# from 200 m to 50 km
FLAT_SUI_BS_M = 616.0603389


def _around(d):
    return (math.nextafter(d, 0.0), d, math.nextafter(d, math.inf))


# Non-finite and non-positive distances, the smallest subnormal, SUI's d0,
# 500 m (Walfisch-Ikegami's branch), the curve grid's edges (1 and 100 km),
# each with its float neighbours, and two ordinary distances.
DISTANCES_M = (math.nan, math.inf, -math.inf, -5.0, 0.0, 5e-324, *_around(100.0),
               *_around(500.0), *_around(1000.0), 2500.0, 37000.0, *_around(100000.0))


def _outcome(call, *args):
    """What ``call(*args)`` gives, as text: its value, or its error."""
    try:
        value = call(*args)
    except Exception as exc:  # every error is an outcome, PathcastError or not
        return f"{type(exc).__name__}: {exc}"
    if isinstance(value, float):
        return value.hex()
    return f"{[(label, v.hex()) for label, v in value.components]} {value.warnings}"


def _scenarios(model):
    """The grid: environment, mode, frequency, BS height, receiver height,
    roof height, LOS/NLOS and the shadow margin on and off.  ``bind`` hands
    the mode only to Hata, Walfisch-Ikegami and Ericsson, and the street
    geometry only to Walfisch-Ikegami, so the other models keep those
    fields at their first value."""
    modes = FidelityMode if model in (ModelId.COST231_HATA, ModelId.WALFISCH_IKEGAMI,
                                      ModelId.ERICSSON9999) else (FidelityMode.CORRECTED,)
    streets = (itertools.product(ROOF_HEIGHTS_M, (True, False))
               if model is ModelId.WALFISCH_IKEGAMI else ((ROOF_HEIGHTS_M[0], True),))
    for env, mode, freq, bs, rx, (roof, los), margin in itertools.product(
            Environment, modes, FREQUENCIES_MHZ, BS_HEIGHTS_M, RX_HEIGHTS_M,
            tuple(streets), (False, True)):
        key = (f"{env.value} {mode.value} f={freq!r} bs={bs!r} rx={rx!r} roof={roof!r} "
               f"los={los} margin={margin}")
        yield key, dict(frequency_mhz=freq, bs_height_m=bs, rx_height_m=rx,
                        roof_height_m=roof, wi_los=los, mode=mode,
                        apply_shadow_margin=margin), env


def model_lines(model, curves):
    """One line per binding, then one per distance: ``at`` and ``at.loss``."""
    for key, kwargs, env in _scenarios(model):
        scenario = default_scenario(env, **kwargs)
        try:
            at = bind(model, scenario, curves)
        except Exception as exc:
            yield f"{key} bind -> {type(exc).__name__}: {exc}"
            continue
        yield f"{key} branch_points={[d.hex() for d in at.branch_points]}"
        for d in DISTANCES_M:
            yield f"{key} d={d.hex()} -> {_outcome(at, d)} loss={_outcome(at.loss, d)}"


# (d_min, d_max): inside every model's domain, across SUI's d0 and the curve
# grid's lower edge, across both grid edges, reversed, and from 0
BRACKETS_M = ((1000.0, 10000.0), (200.0, 50000.0), (50.0, 200000.0), (2000.0, 1500.0),
              (0.0, 1000.0))


def _inversion_scenarios():
    for model, env, mode, freq, bs, los, margin in itertools.product(
            ModelId, Environment, FidelityMode, (150.0, 1900.0),
            (18.0, 30.0, FLAT_SUI_BS_M), (True, False), (False, True)):
        if los and model is not ModelId.WALFISCH_IKEGAMI:
            continue
        key = (f"{model.value} {env.value} {mode.value} f={freq!r} bs={bs!r} los={los} "
               f"margin={margin}")
        yield key, model, default_scenario(env, frequency_mhz=freq, bs_height_m=bs,
                                           roof_height_m=25.0, wi_los=los, mode=mode,
                                           apply_shadow_margin=margin)


def _targets(loss, d_min, d_max, branch_points):
    """Targets for one bracket: the loss at an inner distance and that loss
    3e-7 dB below, 1e-6 dB below and above (the stop tolerance's edges) and
    500 dB above; the losses at both ends and at each branch point inside;
    and NaN.  A distance the model refuses gives a fixed 120 dB."""
    def value(d):
        try:
            return loss(d)
        except Exception:
            return 120.0
    inner = value(math.sqrt(abs(d_min * d_max)) * 1.37)
    ends = [value(d) for d in (d_min, *(b for b in branch_points if d_min < b < d_max), d_max)]
    return (inner, inner - 3e-7, inner - 1e-6, inner + 1e-6, inner + 500.0, *ends, math.nan)


def inversion_lines(curves):
    """One line per ``invert_cell_range`` call on fixed targets and brackets,
    failing ones included."""
    for key, model, scenario in _inversion_scenarios():
        at = bind(model, scenario, curves)
        for d_min, d_max in BRACKETS_M:
            for target in _targets(at.loss, d_min, d_max, at.branch_points):
                outcome = _outcome(invert_cell_range, model, scenario, target, d_min, d_max,
                                   curves)
                yield f"{key} [{d_min!r}, {d_max!r}] target={target.hex()} -> {outcome}"


def all_lines(curves):
    """``(digest name, lines)`` for every digest, in the file's order."""
    for model in ModelId:
        yield model.value, model_lines(model, curves)
    yield INVERSION, inversion_lines(curves)


def _digest(lines):
    return hashlib.sha256("".join(f"{line}\n" for line in lines).encode("utf-8")).hexdigest()


def digests(curves):
    return {name: _digest(lines) for name, lines in all_lines(curves)}


@pytest.fixture(scope="module")
def computed():
    return digests(load_default_curves())


@pytest.mark.parametrize("name", [*(m.value for m in ModelId), INVERSION])
def test_digest_unchanged(name, computed):
    expected = json.loads(GOLDEN.read_text("utf-8"))
    assert computed[name] == expected[name], (
        f"the {name} digest moved; `PYTHONPATH=src python tests/test_equivalence.py "
        f"--diff <parent revision>` prints the first case that differs")


@pytest.mark.parametrize("model", list(ModelId), ids=lambda model: model.value)
def test_losses_give_the_hashed_losses(model):
    """Every grid case through ``at.losses``: one distance at a time, the
    ``at.loss`` outcome the digest hashes, and in one list, every total
    that ``at.loss`` gives."""
    curves = load_default_curves()
    for key, kwargs, env in _scenarios(model):
        try:
            at = bind(model, default_scenario(env, **kwargs), curves)
        except Exception:  # the digest hashes the failed binding
            continue
        hashed = [_outcome(at.loss, d) for d in DISTANCES_M]
        assert [_outcome(lambda d: at.losses([d])[0], d) for d in DISTANCES_M] == hashed, key
        totals = [(d, outcome) for d, outcome in zip(DISTANCES_M, hashed)
                  if outcome.startswith(("0x", "-0x"))]  # a float's hex, not an error
        assert [total.hex() for total in at.losses([d for d, _ in totals])] == \
            [outcome for _, outcome in totals], key


def test_digests_cover_every_model():
    assert set(json.loads(GOLDEN.read_text("utf-8"))) == {*(m.value for m in ModelId), INVERSION}


# --------------------------------------------------------------------------
# Command line: --write, --lines, --diff
# --------------------------------------------------------------------------

def _other_lines(revision):
    """Every line computed by another revision's pathcast, by name; the cases
    are this file's, run in a child process that imports the other source."""
    with tempfile.TemporaryDirectory() as tmp:
        root, worktree = Path(revision), None
        if not root.is_dir():
            repo = Path(__file__).resolve().parent.parent
            worktree = Path(tmp) / "tree"
            subprocess.run(["git", "-C", str(repo), "worktree", "add", "--detach", "--quiet",
                            str(worktree), revision], check=True)
            root = worktree
        try:
            env = dict(os.environ, PYTHONPATH=str(root / "src"))
            child = subprocess.run([sys.executable, __file__, "--lines"], env=env,
                                   capture_output=True, text=True)
        finally:
            if worktree is not None:
                subprocess.run(["git", "-C", str(repo), "worktree", "remove", "--force",
                                str(worktree)], check=True)
    if child.returncode:
        sys.exit(f"{revision}'s pathcast could not run the cases:\n{child.stderr}")
    lines = {}
    for row in child.stdout.splitlines():
        name, line = row.split("\t", 1)
        lines.setdefault(name, []).append(line)
    return lines


def _first_difference(revision):
    """The first case, per digest, whose line differs from ``revision``'s."""
    other = _other_lines(revision)
    same = True
    for name, lines in all_lines(load_default_curves()):
        theirs = other.get(name, [])
        for i, (ours, line) in enumerate(itertools.zip_longest(lines, theirs)):
            if ours != line:
                print(f"{name}, case {i}:\n  {revision}: {line}\n  here: {ours}")
                same = False
                break
    if same:
        print(f"every case equals {revision}'s")
    return 0 if same else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--write", action="store_true", help=f"regenerate {GOLDEN.name}")
    action.add_argument("--lines", action="store_true",
                        help="print every case as '<digest name>\\t<line>'")
    action.add_argument("--diff", metavar="REV_OR_DIR",
                        help="print the first case that differs from a git revision "
                             "or from a checkout's directory")
    args = parser.parse_args(argv)
    curves = load_default_curves()
    if args.write:
        GOLDEN.write_text(json.dumps(digests(curves), indent=2) + "\n", "utf-8")
    elif args.lines:
        for name, lines in all_lines(curves):
            for line in lines:
                print(f"{name}\t{line}")
    else:
        return _first_difference(args.diff)
    return 0


if __name__ == "__main__":
    sys.exit(main())
