"""Command-line interface.

Every command loads a scenario file, validates it, and emits data
(tables to stdout, CSV/JSON via --out); plotting is left to external
tools.  Exit codes: 0 success, 2 scenario/validation failure (usage
errors included), 3 I/O failure.  Failures print a one-line JSON object
to stderr; only a bare ``muse`` and ``--help`` print the help.  The
MUSE_THREADS environment variable caps engine parallelism.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import sys as _sys

import click
import numpy as np

from . import __version__
from .connectivity import build_connectivity_map
from .consumption import _thread_budget, compute_maps, entity_consumption, point_metrics, system_report
from .model import RFSystem, validate_system
from .scenario_io import (
    ScenarioError,
    heatmap_text,
    load_scenario,
    read_map_csv,
    write_map_csv,
)
from .smf import SensingErrorModel, SMFReport, _check_grid, compare_maps, opportunity_map, simulate_recovery
from .units import db_to_linear, dbm_to_watts, watts_to_dbm

EXIT_VALIDATION = 2
EXIT_IO = 3


def _fail(code: int, message: str):
    click.echo(json.dumps({"error": message, "exit_code": code}), err=True)
    _sys.exit(code)


def _load(path: str) -> RFSystem:
    try:
        system = load_scenario(path)
    except OSError as exc:
        _fail(EXIT_IO, f"cannot read scenario: {exc}")
    except ScenarioError as exc:
        _fail(EXIT_VALIDATION, f"malformed scenario: {exc}")
    report = validate_system(system)
    if not report.ok:
        _fail(EXIT_VALIDATION, "invalid scenario: " + "; ".join(report.violations))
    return system


def _write(path: str, text):
    """Write ``text``, a string or an iterable of strings, to ``path``."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
    except OSError as exc:
        _fail(EXIT_IO, f"cannot write {path}: {exc}")


def _fmt_power(watts: float, units: str, negative_note: str = "") -> str:
    """A power in the chosen units; a negative one in watts, followed by ``negative_note``."""
    if watts < 0.0:
        return f"{watts:.6g} W{negative_note}"
    dbm = watts_to_dbm(watts)
    dbm_text = "-inf dBm" if math.isinf(dbm) else f"{dbm:.2f} dBm"
    mw_text = f"{watts * 1e3:.6g} mW"
    if units == "dbm":
        return dbm_text
    if units == "w":
        return mw_text
    return f"{dbm_text} ({mw_text})"


units_option = click.option(
    "--units",
    type=click.Choice(["dbm", "w", "both"]),
    default="both",
    show_default=True,
    help="Power units in console output.",
)
scenario_option = click.option("--scenario", required=True, type=click.Path(), help="Scenario YAML file.")


_BARE_HELP = getattr(click.exceptions, "NoArgsIsHelpError", ())  # click >= 8.2 raises it for a bare ``muse``


@contextlib.contextmanager
def _usage_errors():
    try:
        yield
    except _BARE_HELP:
        raise
    except click.UsageError as exc:
        _fail(EXIT_VALIDATION, f"usage: {exc.format_message()}")


class _Group(click.Group):
    """A missing, unknown or malformed option or command ends like any other
    failure: one JSON line on stderr, exit 2."""

    def make_context(self, *args, **kwargs):
        with _usage_errors():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _usage_errors():
            return super().invoke(ctx)


@click.group(cls=_Group)
@click.version_option(version=__version__, prog_name="muse")
def main():
    """Quantify the use of RF spectrum over a discretized space-time-frequency grid."""
    try:
        _thread_budget()
    except ValueError as exc:
        _fail(EXIT_VALIDATION, str(exc))


@main.command()
@scenario_option
@click.option("--x", "x", type=float, required=True, help="Point x coordinate, meters.")
@click.option("--y", "y", type=float, required=True, help="Point y coordinate, meters.")
@click.option("--time", "time_index", type=int, default=0, show_default=True)
@click.option("--band", "band_index", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None, help="Also write the report as JSON.")
@units_option
def point(scenario, x, y, time_index, band_index, out, units):
    """Spectrum consumption breakdown at one point."""
    system = _load(scenario)
    spec = system.grid_spec
    if not (0.0 <= x <= spec.region_width and 0.0 <= y <= spec.region_height):
        _fail(EXIT_VALIDATION, f"point ({x}, {y}) outside the scenario region")
    if not (0 <= time_index < spec.horizon and 0 <= band_index < spec.band_count):
        _fail(EXIT_VALIDATION, "time or band index outside the grid")
    pm = point_metrics(system, (x, y), time_index, band_index)

    click.echo(f"point ({x:g}, {y:g})  time {time_index}  band {band_index}")
    click.echo(f"  occupancy:        {_fmt_power(pm.occupancy, units)}")
    for view in pm.receivers:
        click.echo(f"  receiver {view.receiver_id}:")
        click.echo(f"    margin:         {_fmt_power(view.margin, units, ' (infeasible)')}")
        click.echo(f"    power bound:    {_fmt_power(view.bound, units)}")
        click.echo(f"    opportunity:    {_fmt_power(view.opportunity, units, ' (harmful interference)')}")
        click.echo(f"    liability:      {_fmt_power(view.liability, units)}")
    click.echo(f"  net opportunity:  {_fmt_power(pm.net_opportunity, units, ' (harmful interference)')}")
    for tx_id, received in pm.tx_received.items():
        click.echo(f"  tx {tx_id} received: {_fmt_power(received, units)}")

    if out:
        payload = {
            "point": [x, y],
            "time_index": time_index,
            "band_index": band_index,
            "occupancy_w": pm.occupancy,
            "net_opportunity_w": pm.net_opportunity,
            "tx_received_w": pm.tx_received,
            "receivers": [dataclasses.asdict(v) for v in pm.receivers],
        }
        _write(out, json.dumps(payload, indent=2) + "\n")


@main.command("map")
@scenario_option
@click.option("--out", required=True, type=click.Path(), help="Output CSV path.")
@click.option(
    "--heatmap",
    "heatmaps",
    type=click.Choice(["occupancy", "opportunity", "raw_opportunity", "liability"]),
    multiple=True,
    help="Also write gnuplot matrix files of this quantity, one per (time, band) slice; repeatable.",
)
def map_cmd(scenario, out, heatmaps):
    """Per-cell consumption map as CSV."""
    system = _load(scenario)
    maps = compute_maps(system)
    try:
        write_map_csv(out, maps)
    except OSError as exc:
        _fail(EXIT_IO, f"cannot write {out}: {exc}")
    click.echo(f"wrote {maps.grid.cell_count} cells to {out}")
    stem = out[: -len(".csv")] if out.endswith(".csv") else out
    for heatmap in dict.fromkeys(heatmaps):  # each distinct quantity once, in the order given
        for tau in range(maps.grid.horizon):
            for nu in range(maps.grid.band_count):
                path = f"{stem}-{heatmap}-t{tau}b{nu}.mat"
                _write(path, heatmap_text(maps, heatmap, tau, nu))
                click.echo(f"wrote {path}")


@main.command()
@scenario_option
@click.option("--out", type=click.Path(), default=None, help="Also write the report as JSON.")
def report(scenario, out):
    """System-wide consumption spaces and the conservation identity."""
    system = _load(scenario)
    rep = system_report(system)
    grid = system.grid
    click.echo(f"cells: {grid.region_count} regions x {grid.horizon} quanta x {grid.band_count} bands")
    click.echo(f"total spectrum space:     {rep.psi_total:.6g} W*m^2 (unit-region weights)")
    click.echo(f"utilized (transmitters):  {rep.psi_utilized:.6g} W*m^2 ({100 * rep.utilized_fraction:.4g} %)")
    click.echo(f"forbidden (receivers):    {rep.psi_forbidden:.6g} W*m^2 ({100 * rep.forbidden_fraction:.4g} %)")
    click.echo(f"available:                {rep.psi_available:.6g} W*m^2 ({100 * rep.available_fraction:.4g} %)")
    click.echo(f"conservation residual:    {rep.conservation_residual:.3e} (relative)")
    for entity_id, consumed in rep.entity_consumption.items():
        click.echo(f"  {entity_id}: {consumed:.6g} W*m^2")
    if out:
        payload = dataclasses.asdict(rep)
        _write(out, json.dumps(payload, indent=2) + "\n")


@main.command()
@scenario_option
@click.option("--id", "entity_id", required=True, help="Transceiver, link, network id, or 'system'.")
def entity(scenario, entity_id):
    """Spectrum consumed by one RF entity."""
    system = _load(scenario)
    try:
        consumed = entity_consumption(system, entity_id)
    except LookupError as exc:
        _fail(EXIT_VALIDATION, str(exc))
    total = system.params.p_cmax * system.grid.cell_count
    click.echo(f"{entity_id}: {consumed:.6g} W*m^2 ({100 * consumed / total:.4g} % of total spectrum space)")


@main.command()
@scenario_option
@click.option("--beta-db", type=float, required=True, help="Candidate link SINR requirement, dB.")
@click.option("--time", "time_index", type=int, default=0, show_default=True)
@click.option("--out", required=True, type=click.Path(), help="Output edge-list CSV path.")
def connectivity(scenario, beta_db, time_index, out):
    """Adjacent-region connectivity map over all bands."""
    system = _load(scenario)
    try:
        beta = db_to_linear(beta_db)
    except OverflowError:
        beta = math.inf
    if beta in (0.0, math.inf) and beta_db != -math.inf:  # -inf dB is the nonpositive beta 0
        _fail(EXIT_VALIDATION, f"--beta-db {beta_db} is out of range")
    try:
        cmap = build_connectivity_map(system, beta, time_index)
    except ValueError as exc:
        _fail(EXIT_VALIDATION, str(exc))
    _write(out, cmap.to_csv())
    click.echo(f"wrote {cmap.sinr.size} directed edges ({int(cmap.feasible.sum())} feasible) to {out}")


@main.command()
@scenario_option
@click.option("--truth-map", type=click.Path(), default=None, help="Ground-truth map CSV (defaults to the scenario's own map).")
@click.option("--other-map", type=click.Path(), default=None, help="Estimated/implied map CSV to score.")
@click.option("--p-missed", type=float, default=0.0, show_default=True, help="Missed-detection probability.")
@click.option("--false-positives", type=float, default=0.0, show_default=True, help="Expected spurious detections per slice.")
@click.option("--geo-sigma", type=float, default=0.0, show_default=True, help="Geolocation error sigma, meters.")
@click.option("--power-sigma-db", type=float, default=0.0, show_default=True, help="Power estimation error sigma, dB.")
@click.option("--fp-power-dbm", type=float, default=None, help="Spurious-detection power (default: sampled from true transmitters).")
@click.option("--seed", type=int, default=0, show_default=True, help="Sensing-error RNG seed.")
@click.option("--out", type=click.Path(), default=None, help="Also write the report as JSON.")
def smf(scenario, truth_map, other_map, p_missed, false_positives, geo_sigma, power_sigma_db, fp_power_dbm, seed, out):
    """Score spectrum recovery: estimated vs true opportunity.

    With --other-map, scores the supplied map; otherwise simulates the
    parametric sensing-error model.
    """
    system = _load(scenario)
    try:
        fp_power = None if fp_power_dbm is None else dbm_to_watts(fp_power_dbm)
    except OverflowError:
        fp_power = math.inf  # rejected by SensingErrorModel
    try:
        truth = read_map_csv(truth_map)["opportunity_map"] if truth_map else opportunity_map(system)
        grid = system.grid  # compare_maps checks the other map against the truth's grid
        _check_grid(truth, (grid.region_count, grid.horizon, grid.band_count), grid.centroids)
        if other_map:
            other = read_map_csv(other_map)["opportunity_map"]
        else:
            model = SensingErrorModel(
                p_missed_detection=p_missed,
                false_positive_rate=false_positives,
                geolocation_sigma=geo_sigma,
                power_error_sigma_db=power_sigma_db,
                false_positive_power=fp_power,
                rng_seed=seed,
            )
            other = simulate_recovery(system, model)
        rep = compare_maps(truth, other)
    except OSError as exc:
        _fail(EXIT_IO, str(exc))
    except ValueError as exc:
        _fail(EXIT_VALIDATION, str(exc))

    total = system.params.p_cmax * system.grid.cell_count
    labels = ("true available", "recovered available", "lost available", "potentially incursed")
    for label, value in zip(labels, (rep.truth_total, rep.recovered_available, rep.lost_available, rep.potentially_incursed)):
        click.echo(f"{label + ':':<22} {value:.6g} W*m^2 ({100 * value / total:.4g} % of total)")
    if out:
        _write(out, _smf_json(rep))


_THETA_CHUNK = 1 << 12  # theta values formatted at a time


def _smf_json(rep: SMFReport):
    """The report as ``json.dumps(payload, indent=2)`` plus a newline, theta
    (never empty: a grid has a cell) flattened into a list: yielded in pieces,
    theta a chunk at a time, so no copy of the whole map is formatted at once."""
    theta = np.asarray(rep.theta).ravel()
    rest = {f.name: getattr(rep, f.name) for f in dataclasses.fields(rep) if f.name != "theta"}
    yield '{\n  "theta": ['
    for lo in range(0, theta.size, _THETA_CHUNK):
        values = json.dumps(theta[lo : lo + _THETA_CHUNK].tolist())[1:-1]  # "a, b, ..." as json.dumps writes them
        yield ("\n    " if lo == 0 else ",\n    ") + values.replace(", ", ",\n    ")
    yield "\n  ],\n" + json.dumps(rest, indent=2)[2:] + "\n"


@main.command()
@scenario_option
@click.option("--hex-sides", required=True, help="Comma-separated hexagon sides in meters, e.g. 1,10,25,50,100.")
@click.option("--out", type=click.Path(), default=None, help="Also write the table as CSV.")
def sweep(scenario, hex_sides, out):
    """Consumption spaces under varying spatial sampling."""
    system = _load(scenario)
    try:
        sides = [float(s) for s in hex_sides.split(",") if s.strip()]
    except ValueError:
        _fail(EXIT_VALIDATION, f"bad --hex-sides value: {hex_sides!r}")
    if not sides:
        _fail(EXIT_VALIDATION, "--hex-sides must name at least one side")

    rows = []
    for side in sides:
        try:
            swept = dataclasses.replace(system, grid_spec=dataclasses.replace(system.grid_spec, hex_side=side))
            cells = swept.grid.region_count
        except ValueError as exc:
            _fail(EXIT_VALIDATION, f"bad --hex-sides value {side:g}: {exc}")
        rows.append((side, cells, system_report(swept, include_entities=False)))

    click.echo(f"{'hex_side_m':>10} {'cells':>9} {'utilized':>13} {'forbidden':>13} {'available':>13} {'consumed_%':>10} {'available_%':>11}")
    for side, cells, rep in rows:
        consumed = 100.0 * (rep.psi_utilized + rep.psi_forbidden) / rep.psi_total
        click.echo(
            f"{side:>10g} {cells:>9d} {rep.psi_utilized:>13.6g} {rep.psi_forbidden:>13.6g} "
            f"{rep.psi_available:>13.6g} {consumed:>10.4f} {100.0 * rep.available_fraction:>11.4f}"
        )
    if out:
        lines = ["hex_side_m,cells,psi_total,psi_utilized,psi_forbidden,psi_available"]
        for side, cells, rep in rows:
            lines.append(
                f"{side:.17e},{cells},{rep.psi_total:.17e},{rep.psi_utilized:.17e},"
                f"{rep.psi_forbidden:.17e},{rep.psi_available:.17e}"
            )
        _write(out, "\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
