"""Okumura median-attenuation and area-gain curve tables.

The published curves exist only as drawings, so the surface ships as a
replaceable CSV asset with a mandatory provenance tag.  Interpolation runs in
(log f, log d) space because the curves are drawn on log axes.  Tables are
immutable after load; lookups are pure.  :func:`amu_at_frequency` binds the
A_mu surface to one frequency and returns a per-distance lookup, so a model
evaluated at many distances does the frequency work once;
:func:`amu_lookup` is that lookup for a single (f, d) pair.

CSV format (UTF-8, '#' comments ignored):

    AMU,<d1_km>,<d2_km>,...          strictly increasing distances
    <f_mhz>,<amu_db>,...             one row per frequency, one value per column
    <blank line>
    GAREA,freq_mhz,environment,gain_db
    <freq>,<urban|suburban|rural>,<gain>
    # source: <free text>            required provenance tag
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from importlib import resources
from typing import IO, Union

from .errors import BoundsError, CurveLookupError, CurveParseError
from .propagation import Environment

_ENVIRONMENTS = {env.value: env for env in Environment}


@dataclass(frozen=True)
class CurveTable:
    """Sampled A_mu(f,d) surface plus per-environment area-gain rows."""

    freq_mhz: tuple[float, ...]
    dist_km: tuple[float, ...]
    amu_db: tuple[tuple[float, ...], ...]  # indexed [frequency][distance]
    garea: dict[Environment, tuple[tuple[float, float], ...]]  # env -> ((f, gain), ...)
    source_tag: str


def _strictly_increasing(values) -> bool:
    return all(b > a for a, b in zip(values, values[1:]))


def _parse_floats(fields, lineno):
    """Every number in the file goes through here, so every number is finite."""
    out = []
    for field in fields:
        try:
            value = float(field)
        except ValueError:
            raise CurveParseError(f"line {lineno}: malformed number {field!r}") from None
        if not math.isfinite(value):
            raise CurveParseError(f"line {lineno}: non-finite value {field!r}")
        out.append(value)
    return out


def load_curves(source: Union[bytes, str, IO]) -> CurveTable:
    """Parse and validate a curve CSV stream; raises CurveParseError with the
    offending line number and the violated rule."""
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            # the valid prefix plus one character ends on the undecodable line
            lineno = len((source[:exc.start].decode("utf-8") + "x").splitlines())
            raise CurveParseError(f"line {lineno}: not UTF-8 ({exc.reason})") from None

    dist_km: list[float] = []
    freq_mhz: list[float] = []
    rows: list[tuple[float, ...]] = []
    garea: dict[Environment, list[tuple[float, float]]] = {}
    source_tag = None
    section = None

    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.lower().startswith("source:"):
                source_tag = body[len("source:"):].strip()
            continue
        fields = [f.strip() for f in line.split(",")]
        if fields[0] == "AMU":
            dist_km = _parse_floats(fields[1:], lineno)
            if len(dist_km) < 2:
                raise CurveParseError(f"line {lineno}: at least 2 distance samples required")
            if not _strictly_increasing(dist_km):
                raise CurveParseError(f"line {lineno}: distances must be strictly increasing")
            section = "amu"
        elif fields[0] == "GAREA":
            if fields != ["GAREA", "freq_mhz", "environment", "gain_db"]:
                raise CurveParseError(f"line {lineno}: malformed GAREA header")
            section = "garea"
        elif section == "amu":
            values = _parse_floats(fields, lineno)
            if len(values) != len(dist_km) + 1:
                raise CurveParseError(
                    f"line {lineno}: expected {len(dist_km)} attenuation values, "
                    f"got {len(values) - 1} (grid must be rectangular)")
            freq_mhz.append(values[0])
            rows.append(tuple(values[1:]))
        elif section == "garea":
            if len(fields) != 3:
                raise CurveParseError(f"line {lineno}: expected freq,environment,gain")
            freq = _parse_floats([fields[0]], lineno)[0]
            env_name = fields[1]
            if env_name not in _ENVIRONMENTS:
                raise CurveParseError(
                    f"line {lineno}: unknown environment {env_name!r} "
                    f"(expected urban, suburban or rural)")
            gain = _parse_floats([fields[2]], lineno)[0]
            env = _ENVIRONMENTS[env_name]
            if env is Environment.URBAN and gain != 0.0:
                raise CurveParseError(
                    f"line {lineno}: urban area gain must be 0 dB (reference environment)")
            garea.setdefault(env, []).append((freq, gain))
        else:
            raise CurveParseError(f"line {lineno}: data before the AMU header")

    if section is None:
        raise CurveParseError("line 1: missing AMU header")
    if len(freq_mhz) < 2:
        raise CurveParseError("at least 2 frequency samples required")
    if not _strictly_increasing(freq_mhz):
        raise CurveParseError("frequencies must be strictly increasing")
    if source_tag is None:
        raise CurveParseError("missing required '# source:' provenance line")

    garea_sorted = {}
    for env, pairs in garea.items():
        pairs.sort()
        if any(b[0] == a[0] for a, b in zip(pairs, pairs[1:])):
            raise CurveParseError(f"duplicate area-gain frequency for {env.value}")
        garea_sorted[env] = tuple(pairs)

    return CurveTable(
        freq_mhz=tuple(freq_mhz),
        dist_km=tuple(dist_km),
        amu_db=tuple(rows),
        garea=garea_sorted,
        source_tag=source_tag,
    )


def load_default_curves() -> CurveTable:
    """The bundled digitization of the published curve family."""
    data = resources.files("pathcast.data").joinpath("okumura_curves.csv").read_bytes()
    return load_curves(data)


def _check_bounds(value, lo, hi, axis, unit):
    if value < lo:
        raise BoundsError(f"{axis} {value:g} {unit} below grid minimum {lo:g} {unit}")
    if value > hi:
        raise BoundsError(f"{axis} {value:g} {unit} above grid maximum {hi:g} {unit}")


def clamp_to_grid(table: CurveTable, frequency_mhz: float, distance_m: float):
    """Clip (f, d) to the A_mu grid; returns the clipped pair plus notes for
    each axis that moved."""
    notes = ()
    f = min(max(frequency_mhz, table.freq_mhz[0]), table.freq_mhz[-1])
    if f != frequency_mhz:
        notes += (f"frequency {frequency_mhz:g} MHz clamped to grid edge {f:g} MHz",)
    d_km = min(max(distance_m / 1000.0, table.dist_km[0]), table.dist_km[-1])
    if d_km != distance_m / 1000.0:
        notes += (f"distance {distance_m:g} m clamped to grid edge {d_km * 1000.0:g} m",)
    return f, d_km * 1000.0, notes


def _segment(samples, value):
    """Index i such that samples[i] <= value <= samples[i+1]."""
    i = bisect_right(samples, value) - 1
    return min(max(i, 0), len(samples) - 2)


def amu_at_frequency(table: CurveTable, frequency_mhz: float):
    """Bind the A_mu surface to one frequency; returns ``at(distance_m)``.

    The frequency's bound check, segment search and log-f weight are done
    here, once; ``at`` does only the distance work and returns exactly what
    :func:`amu_lookup` returns for the same pair.  An off-grid frequency
    raises here, an off-grid distance in ``at``.
    """
    _check_bounds(frequency_mhz, table.freq_mhz[0], table.freq_mhz[-1], "frequency", "MHz")
    fi = _segment(table.freq_mhz, frequency_mhz)
    f0, f1 = table.freq_mhz[fi], table.freq_mhz[fi + 1]
    tf = (math.log10(frequency_mhz) - math.log10(f0)) / (math.log10(f1) - math.log10(f0))
    row0, row1 = table.amu_db[fi], table.amu_db[fi + 1]
    dists = table.dist_km
    d_lo, d_hi = dists[0], dists[-1]
    log_dists = tuple(math.log10(d) for d in dists)

    def at(distance_m: float) -> float:
        dist_km = distance_m / 1000.0
        _check_bounds(dist_km, d_lo, d_hi, "distance", "km")
        di = _segment(dists, dist_km)
        l0, l1 = log_dists[di], log_dists[di + 1]
        td = (math.log10(dist_km) - l0) / (l1 - l0)
        low = row0[di] * (1.0 - td) + row0[di + 1] * td
        high = row1[di] * (1.0 - td) + row1[di + 1] * td
        return low * (1.0 - tf) + high * tf
    return at


def amu_lookup(table: CurveTable, frequency_mhz: float, distance_m: float) -> float:
    """Median attenuation, bilinear in (log f, log d); exact at grid nodes.

    Out-of-grid points raise (frequency checked first); :func:`clamp_to_grid`
    pins them to the edge.  For many distances at one frequency, bind once
    with :func:`amu_at_frequency`.
    """
    return amu_at_frequency(table, frequency_mhz)(distance_m)


def garea_lookup(table: CurveTable, frequency_mhz: float,
                 environment: Environment) -> float:
    """Area gain, linear in log f along the environment's rows."""
    rows = table.garea.get(environment)
    if not rows:
        raise CurveLookupError(
            f"no area-gain rows for environment {environment.value!r}")
    freqs = [f for f, _ in rows]
    _check_bounds(frequency_mhz, freqs[0], freqs[-1], "frequency", "MHz")
    if len(rows) == 1:
        return rows[0][1]
    i = _segment(freqs, frequency_mhz)
    f0, f1 = freqs[i], freqs[i + 1]
    t = (math.log10(frequency_mhz) - math.log10(f0)) / (math.log10(f1) - math.log10(f0))
    return rows[i][1] * (1.0 - t) + rows[i + 1][1] * t
