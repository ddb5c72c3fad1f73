"""Okumura's model and the median-attenuation and area-gain curve tables it reads.

Okumura is the one model that reads measured curves, not a closed form, so
its binder :func:`okumura` lives here with the table and keeps the binder
contract of :mod:`pathcast.propagation`.  Its ``at.branch_points`` are the
grid's distance nodes.  It binds its lookups at the first point that reaches
them, so each point raises what a fresh binding would: a bad distance, then
an off-grid frequency, an off-grid distance, then a missing area gain.  Its
``at.losses`` pass is evaluated per grid cell on an ascending list, one run
of points per cell with the cell's values bound once; a list out of order,
or with a point off the grid, goes through ``at.loss`` one distance at a time.

The published curves exist only as drawings, so the surface ships as a
replaceable CSV asset with a mandatory provenance tag.  Interpolation runs in
(log f, log d) space because the curves are drawn on log axes; one step
locates a value's segment and log10 weight on any axis, from node log10s the
table takes once.  Tables are immutable after load; lookups are pure.
:func:`amu_at_frequency` binds the A_mu surface to one frequency and returns a
per-distance lookup, so a model evaluated at many distances locates the
frequency once.

CSV format (UTF-8, one leading byte-order mark and '#' comments ignored):

    AMU,<d1_km>,<d2_km>,...          strictly increasing distances
    <f_mhz>,<amu_db>,...             one row per frequency, one value per column
    <blank line>
    GAREA,freq_mhz,environment,gain_db
    <freq>,<urban|suburban|rural>,<gain>
    # source: <free text>            required provenance tag

Interpolation divides by log10 gaps, so every axis (distances, frequency rows,
each environment's sorted area gains) must be positive, strictly rising in log10.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import IO, Union

from .errors import BoundsError, CurveLookupError, CurveParseError, DomainError
from .propagation import (Environment, PathLossResult, RadioLink, _check_distance,
                          _check_environment, _finite_total, _log10, _log10_positive,
                          _evaluator, _moderate, _wavelength_m)


class _ReadOnlyDict(dict):
    """A dict that refuses every change once built, so that a curve table's
    area gains stay the rows it checked.  It reads, compares, prints, copies
    and pickles as a dict."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("curve table area gains are read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


@dataclass(frozen=True)
class CurveTable:
    """Sampled A_mu(f,d) surface plus per-environment area-gain rows.

    Built directly, it checks what :func:`load_curves` checks, without line
    numbers: every area-gain key an :class:`Environment` and every row a
    (frequency, gain) pair, every number finite (an int past the float range
    shows as inf), at least 2 nodes on each A_mu axis, a rectangular grid,
    axes that log interpolation can use, and a 0 dB area gain wherever
    urban, the reference environment, has one.  ``garea``
    is a read-only copy of the mapping it was built with, each environment's
    rows a tuple of (frequency, gain) tuples: a change raises ``TypeError``.
    """

    freq_mhz: tuple[float, ...]
    dist_km: tuple[float, ...]
    amu_db: tuple[tuple[float, ...], ...]  # indexed [frequency][distance]
    garea: dict[Environment, tuple[tuple[float, float], ...]]  # env -> ((f, gain), ...)
    source_tag: str

    def __post_init__(self):
        garea = {}
        for env, rows in dict(self.garea).items():
            _check_environment(env, CurveParseError)
            pairs = []  # kept, so that rows given as a generator outlive the checks
            for row in rows:
                try:
                    freq, gain = row
                except (TypeError, ValueError):  # not two items
                    raise CurveParseError(f"area-gain row {row!r} is not a "
                                          f"(frequency, gain) pair") from None
                pairs.append((freq, gain))
            garea[env] = tuple(pairs)
        object.__setattr__(self, "garea", _ReadOnlyDict(garea))
        for value in (*self.freq_mhz, *self.dist_km, *(v for row in self.amu_db for v in row),
                      *(v for rows in self.garea.values() for row in rows for v in row)):
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an int too large for a float
                value, finite = math.inf if value > 0 else -math.inf, False
            if not finite:
                raise CurveParseError(f"non-finite value {value!r}")
        for axis, what in ((self.dist_km, "distance"), (self.freq_mhz, "frequency")):
            if len(axis) < 2:
                raise CurveParseError(f"at least 2 {what} samples required")
        if len(self.amu_db) != len(self.freq_mhz) or any(
                len(row) != len(self.dist_km) for row in self.amu_db):
            raise CurveParseError("expected one attenuation row per frequency and one value "
                                  "per distance (grid must be rectangular)")
        # node logs for _locate, kept out of the fields so eq and repr ignore them
        object.__setattr__(self, "_dist_logs", _check_log_axis(self.dist_km, "distances"))
        object.__setattr__(self, "_freq_logs", _check_log_axis(self.freq_mhz, "frequencies"))
        axes = {}
        for env, rows in self.garea.items():
            freqs, gains = tuple(f for f, _ in rows), tuple(gain for _, gain in rows)
            if env is Environment.URBAN and any(gain != 0.0 for gain in gains):
                raise CurveParseError("urban area gain must be 0 dB (reference environment)")
            axes[env] = freqs, _check_log_axis(freqs, f"{env.value} area-gain frequencies"), gains
        object.__setattr__(self, "_gain_axes", axes)
        # the distance nodes in metres, the Okumura binder's at.branch_points
        object.__setattr__(self, "_dist_nodes_m", tuple(d_km * 1000.0 for d_km in self.dist_km))
        # every A_mu and area gain, and every A_mu slope in dB per decade of
        # distance, for the Okumura binder's at.affine_from_m
        dist_logs = self._dist_logs
        object.__setattr__(self, "_moderate_terms", _moderate(
            *(v for row in self.amu_db for v in row),
            *(gain for _, _, gains in axes.values() for gain in gains),
            *((row[j + 1] - row[j]) / (dist_logs[j + 1] - dist_logs[j])
              for row in self.amu_db for j in range(len(row) - 1))))


def _check_log_axis(values, what, lines=None):
    """Reject an axis that log interpolation cannot use: each value must be
    positive, its log10 above the last one's.  Returns the log10s.  ``lines``
    holds each value's line number, for the message."""
    logs = []
    for i, value in enumerate(values):
        where = f"line {lines[i]}: " if lines else ""
        if not value > 0.0:
            raise CurveParseError(f"{where}{what} must be positive, got {value:g}")
        logs.append(math.log10(value))
        if i and not logs[i] > logs[i - 1]:
            raise CurveParseError(f"{where}{what} must be strictly increasing "
                                  f"in log10, got {value!r} after {values[i - 1]!r}")
    return tuple(logs)


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
        # One leading byte-order mark, as spreadsheets write, is dropped here
        # and not by "utf-8-sig", whose error offsets would not index ``source``.
        source = source.removeprefix(b"\xef\xbb\xbf")
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            # the valid prefix plus one character ends on the undecodable line
            lineno = len((source[:exc.start].decode("utf-8") + "x").splitlines())
            raise CurveParseError(f"line {lineno}: not UTF-8 ({exc.reason})") from None
    else:
        source = source.removeprefix("\ufeff")

    dist_km: list[float] = []
    freq_mhz: list[float] = []
    freq_lines: list[int] = []
    rows: list[tuple[float, ...]] = []
    garea: dict[Environment, list[tuple[float, float, int]]] = {}
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
                if not source_tag:
                    raise CurveParseError(f"line {lineno}: empty '# source:' provenance tag")
            continue
        fields = [f.strip() for f in line.split(",")]
        if fields[0] == "AMU":
            if dist_km:
                raise CurveParseError(
                    f"line {lineno}: second AMU header; a table has one distance axis")
            dist_km = _parse_floats(fields[1:], lineno)
            if len(dist_km) < 2:
                raise CurveParseError(f"line {lineno}: at least 2 distance samples required")
            _check_log_axis(dist_km, "distances", [lineno] * len(dist_km))
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
            freq_lines.append(lineno)
            rows.append(tuple(values[1:]))
        elif section == "garea":
            if len(fields) != 3:
                raise CurveParseError(f"line {lineno}: expected freq,environment,gain")
            freq = _parse_floats([fields[0]], lineno)[0]
            try:
                env = Environment(fields[1])
            except ValueError:
                raise CurveParseError(
                    f"line {lineno}: unknown environment {fields[1]!r} "
                    f"(expected urban, suburban or rural)") from None
            gain = _parse_floats([fields[2]], lineno)[0]
            if env is Environment.URBAN and gain != 0.0:
                raise CurveParseError(
                    f"line {lineno}: urban area gain must be 0 dB (reference environment)")
            garea.setdefault(env, []).append((freq, gain, lineno))
        else:
            raise CurveParseError(f"line {lineno}: data before the AMU header")

    if not dist_km:
        raise CurveParseError("line 1: missing AMU header")
    if len(freq_mhz) < 2:
        raise CurveParseError("at least 2 frequency samples required")
    _check_log_axis(freq_mhz, "frequencies", freq_lines)
    if source_tag is None:
        raise CurveParseError("missing required '# source:' provenance line")

    garea_sorted = {}
    for env, entries in garea.items():
        entries.sort()
        _check_log_axis([f for f, _, _ in entries],
                        f"{env.value} area-gain frequencies, once sorted,",
                        [lineno for _, _, lineno in entries])
        garea_sorted[env] = tuple((f, gain) for f, gain, _ in entries)

    return CurveTable(
        freq_mhz=tuple(freq_mhz),
        dist_km=tuple(dist_km),
        amu_db=tuple(rows),
        garea=garea_sorted,
        source_tag=source_tag,
    )


def load_default_curves() -> CurveTable:
    """The bundled digitization of the published curve family."""
    from importlib import resources  # slow to import, and read only here

    data = resources.files("pathcast.data").joinpath("okumura_curves.csv").read_bytes()
    return load_curves(data)


def _check_bounds(value, lo, hi, axis, unit):
    """Refuse a value off [lo, hi], NaN included; the message shows the value
    in full where ``:g`` would print it as the edge it crossed."""
    if lo <= value <= hi:
        return
    try:
        if math.isnan(value):
            raise BoundsError(f"{axis} nan {unit} is not a number")
    except OverflowError:  # an int or Fraction too large for a float
        value = math.inf if value > 0 else -math.inf
    side, edge = ("below grid minimum", lo) if value < lo else ("above grid maximum", hi)
    shown = f"{value:g}"
    if shown == f"{edge:g}":
        shown = repr(value)
    raise BoundsError(f"{axis} {shown} {unit} {side} {edge:g} {unit}")


def _locate(axis, logs, value, name, unit):
    """Segment i of ``value`` on ``axis`` and its weight t in log10, from the nodes' ``logs``."""
    if not axis[0] <= value <= axis[-1]:
        _check_bounds(value, axis[0], axis[-1], name, unit)
    i = min(bisect_right(axis, value) - 1, len(axis) - 2)
    return i, (math.log10(value) - logs[i]) / (logs[i + 1] - logs[i])


def amu_at_frequency(table: CurveTable, frequency_mhz: float):
    """Bind the A_mu surface to one frequency; returns ``at(distance_km)``.

    The median attenuation, bilinear in (log f, log d) and exact at grid
    nodes.  The frequency is located here, once, and ``at`` locates only the
    distance, in km; both read the node log10s the table holds.  An off-grid
    frequency raises here, an off-grid distance in ``at``.
    """
    fi, tf = _locate(table.freq_mhz, table._freq_logs, frequency_mhz, "frequency", "MHz")
    row0, row1 = table.amu_db[fi], table.amu_db[fi + 1]
    dists, dist_logs = table.dist_km, table._dist_logs
    first, last, last_segment = dists[0], dists[-1], len(dists) - 2

    def at(d_km: float) -> float:
        if not first <= d_km <= last:  # located as _locate does, with the axis bound here
            _check_bounds(d_km, first, last, "distance", "km")
        di = bisect_right(dists, d_km) - 1
        if di > last_segment:  # d_km is the last node
            di = last_segment
        td = (math.log10(d_km) - dist_logs[di]) / (dist_logs[di + 1] - dist_logs[di])
        low = row0[di] * (1.0 - td) + row0[di + 1] * td
        high = row1[di] * (1.0 - td) + row1[di + 1] * td
        return low * (1.0 - tf) + high * tf
    return at


def garea_lookup(table: CurveTable, frequency_mhz: float,
                 environment: Environment) -> float:
    """Area gain, linear in log f along the environment's rows, as the table
    held them when it was built."""
    _check_environment(environment)
    freqs, logs, gains = table._gain_axes.get(environment, ((), (), ()))
    if not freqs:
        raise CurveLookupError(
            f"no area-gain rows for environment {environment.value!r}")
    if len(freqs) == 1:  # one node, no segment
        _check_bounds(frequency_mhz, freqs[0], freqs[0], "frequency", "MHz")
        return gains[0]
    i, t = _locate(freqs, logs, frequency_mhz, "frequency", "MHz")
    return gains[i] * (1.0 - t) + gains[i + 1] * t


def okumura(link: RadioLink, environment: Environment, curves):
    """Bind Okumura: L_f + A_mu(f,d) - G(h_b) - G(h_r) - G_AREA(f, env), with
    the antenna gains G(h_b) = 20*log10(h_b/200) and G(h_r) = 10*log10(h_r/3).

    ``curves`` is a :class:`pathcast.curves.CurveTable`; off-grid lookups
    raise.  The A_mu lookup is bound to the frequency at the first point
    with a valid distance, and kept only once the frequency is on the grid;
    the area gain is looked up at the first point whose A_mu lookup
    succeeds, so a point reports the same error as a fresh evaluation.
    """
    _check_environment(environment)
    if curves is None:
        raise DomainError("curve table required for the okumura model")
    g_bs = 20.0 * _log10_positive(link.bs_height_m / 200.0, "h_b/200")
    g_rx = 10.0 * _log10_positive(link.rx_height_m / 3.0, "h_r/3")
    bs_db, rx_db = -g_bs, -g_rx
    bs_gain, rx_gain = ("bs_height_gain", bs_db), ("rx_height_gain", rx_db)
    freq = link.frequency_mhz
    wavelength, four_pi = _wavelength_m(freq), 4.0 * math.pi
    amu_at = area = None

    def point(distance_m):
        """The free-space term and A_mu at one distance, checked and bound in
        the order a fresh evaluation would."""
        nonlocal amu_at, area
        d_km = _check_distance(distance_m)
        if amu_at is None:
            amu_at = amu_at_frequency(curves, freq)
        amu = amu_at(d_km)
        if area is None:
            area = ("area_gain", -garea_lookup(curves, freq, environment))
        free_space = 20.0 * _log10_positive(four_pi * distance_m / wavelength,
                                            "4*pi*d/lambda")
        return free_space, amu

    def at(distance_m: float) -> PathLossResult:
        free_space, amu = point(distance_m)
        return PathLossResult(
            (("free_space", free_space), ("median_attenuation", amu), bs_gain, rx_gain, area))

    def loss(distance_m: float) -> float:
        free_space, amu = point(distance_m)
        return _finite_total(0.0 + free_space + amu + bs_db + rx_db + area[1])

    def totals(distances):
        """The pass, which runs after _evaluator's loss has bound amu_at and
        area (see its docstring).  It walks the list a grid cell's run of
        points at a time: each run is located as amu_at locates a point, its
        end found by one bisect on the list, at amu_at's frequency.  A run with
        a point off its cell, as in a list out of order or with a point off
        the grid, raises, so _evaluator sends the list through loss."""
        fi, tf = _locate(curves.freq_mhz, curves._freq_logs, freq, "frequency", "MHz")
        row0, row1 = curves.amu_db[fi], curves.amu_db[fi + 1]
        dists, logs, last = curves.dist_km, curves._dist_logs, len(curves.dist_km) - 2
        area_db, walked, i, n = area[1], [], 0, len(distances)
        while i < n:
            di = min(bisect_right(dists, distances[i] / 1000.0) - 1, last)
            lo_km, hi_km = dists[di], dists[di + 1]
            j = n if di == last else bisect_left(distances, hi_km, i, n,
                                                 key=lambda d: d / 1000.0)
            run = distances[i:j]
            top = max(run) / 1000.0  # the last cell holds the last node
            if not (lo_km <= min(run) / 1000.0
                    and (top < hi_km or di == last and top == hi_km)):
                raise ValueError("a run of points leaves its grid cell")
            log0, gap = logs[di], logs[di + 1] - logs[di]
            a0, a1, b0, b1 = row0[di], row0[di + 1], row1[di], row1[di + 1]
            walked += [0.0 + 20.0 * _log10(four_pi * d / wavelength)
                       + ((a0 * (1.0 - td) + a1 * td) * (1.0 - tf)
                          + (b0 * (1.0 - td) + b1 * td) * tf)
                       + bs_db + rx_db + area_db
                       for d in run for td in ((_log10(d / 1000.0) - log0) / gap,)]
            i = j
        return walked

    # A_mu is bilinear in (log f, log d): at fixed f, affine in log d per grid
    # cell.  The antenna gains stay within 6,500 dB for any link and free
    # space rises 20 dB per decade, so only the table's terms can be too large.
    return _evaluator(at, loss, totals, curves._dist_nodes_m,
                      1.0 if curves._moderate_terms else math.inf)
