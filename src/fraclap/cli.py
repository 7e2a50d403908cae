"""Command-line front end.

Subcommands: laplacian, power, kpath, spectrum, simulate, decay, floquet.
Options can come from a JSON config file (--config); explicit flags win.
Exit codes: 0 success, 2 configuration error, 3 numerical failure, 4 I/O
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import dynamics, graphs, stability, trajio
from .errors import ConfigError, NumericError
from .schedules import ConstantSchedule, parse_schedule, render_schedule

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


class _Kind(NamedTuple):
    """A --laplacian kind: the graph direction it needs, its Laplacian
    builder (graph, --kpath-alpha) and its generator class."""

    directed: bool
    laplacian: Callable[[graphs.Graph, float | None], np.ndarray]
    generator: type


def _kpath_laplacian(g: graphs.Graph, kpath_alpha: float | None) -> np.ndarray:
    if kpath_alpha is None:
        raise ConfigError("--kpath-alpha is required for the kpath kind")
    return graphs.transformed_k_path_laplacian(g, kpath_alpha)


_KINDS = {
    "comb": _Kind(False, lambda g, _: graphs.combinatorial_laplacian(g),
                  dynamics.SpectralGenerator),
    "nsym": _Kind(False, lambda g, _: graphs.normalized_laplacians(g)[1],
                  dynamics.SpectralGenerator),
    "nrw": _Kind(False, lambda g, _: graphs.normalized_laplacians(g)[0],
                 dynamics.GeneralGenerator),
    "out": _Kind(True, lambda g, _: graphs.directed_laplacians(g)[0],
                 dynamics.GeneralGenerator),
    "in": _Kind(True, lambda g, _: graphs.directed_laplacians(g)[1],
                dynamics.GeneralGenerator),
    "kpath": _Kind(False, _kpath_laplacian, dynamics.KPathGenerator),
}

_DECAY_KINDS = ("comb", "kpath")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fraclap",
        description="Nonlocal variable-order random-walk dynamics on networks")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file of option defaults")
    common.add_argument("--graph", help="graph file path")
    common.add_argument("--graph-format", choices=["edgelist", "mtx"],
                        dest="graph_format")
    common.add_argument("--directed", action="store_true",
                        help="treat an edge list as directed")
    common.add_argument("--largest-component", action="store_true",
                        dest="largest_component",
                        help="restrict to the largest (strongly) connected component")
    common.add_argument("--laplacian", choices=sorted(_KINDS), default="comb")
    common.add_argument("--kpath-alpha", type=float, dest="kpath_alpha")
    common.add_argument("--out", help="output file path")

    sim = argparse.ArgumentParser(add_help=False)
    sim.add_argument("--model", choices=["heat", "schrodinger"], default="heat")
    sim.add_argument("--alpha", default="const:0.5",
                     help="schedule descriptor, e.g. sin:0.5,0.4,12.566")
    sim.add_argument("--integrator", choices=["rk45", "bdf", "exact"],
                     default="rk45")
    sim.add_argument("--t-end", type=float, dest="t_end", default=10.0)
    sim.add_argument("--rtol", type=float, default=1e-6)
    sim.add_argument("--atol", type=float, default=1e-9)
    sim.add_argument("--samples", type=int, default=200)
    sim.add_argument("--seed", type=int, default=0)

    sub.add_parser("laplacian", parents=[common],
                   help="write the selected Laplacian matrix")
    power = sub.add_parser("power", parents=[common],
                           help="write the fractional power L^alpha")
    power.add_argument("--alpha", default="const:0.5", help="exponent in (0, 1]")
    sub.add_parser("kpath", parents=[common],
                   help="write the transformed k-path Laplacian at --kpath-alpha")
    sub.add_parser("spectrum", parents=[common],
                   help="write sorted eigenvalues of the selected Laplacian")
    sub.add_parser("simulate", parents=[common, sim],
                   help="integrate the dynamics and write the trajectory")
    sub.add_parser("decay", parents=[common, sim],
                   help="simulate and report the decay envelope toward steady state")
    floq = sub.add_parser("floquet", parents=[common, sim],
                          help="write characteristic exponents for a periodic schedule")
    floq.add_argument("--period", type=float)
    for name, command in sub.choices.items():  # parents' actions are shared
        command.add_argument("--out-format", choices=["csv", "json"],
                             default="json" if name == "decay" else "csv")
    return parser


def _with_config(parser, args, argv: list[str]) -> argparse.Namespace:
    """Parse the config file's entries as --key=value flags ahead of argv's,
    which win.  null, a false switch and other subcommands' keys add none."""
    try:
        with open(args.config, encoding="utf-8") as fh:
            file_values = json.load(fh)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {args.config}: {exc}") from exc
    if not isinstance(file_values, dict):
        raise ConfigError("config file must hold a JSON object")
    file_values = {key.replace("-", "_"): value
                   for key, value in file_values.items()}
    options = {name: vars(parser.parse_args([name])) for name in _COMMANDS}
    known = set().union(*options.values()) - {"command", "config"}
    unknown = sorted(file_values.keys() - known)
    if unknown:
        raise ConfigError(f"config file {args.config}: unknown keys {unknown}")
    defaults, tokens = options[args.command], [args.command]
    for key, value in file_values.items():
        switch = defaults.get(key) is False
        if isinstance(value, (list, dict)) or value is False and not switch:
            raise ConfigError(f"config file {args.config}: {key} cannot be "
                              f"{json.dumps(value)}")
        if key in defaults and value is not None and value is not False:
            flag = "--" + key.replace("_", "-")
            tokens.append(flag if value is True else f"{flag}={value}")
    # The explicit flags passed the first parse: an error here is the file's.
    try:
        return parser.parse_args(tokens + argv[argv.index(args.command) + 1:])
    except SystemExit:
        raise ConfigError("the value rejected above comes from config file "
                          f"{args.config}") from None


def _load_graph(args) -> graphs.Graph:
    if not args.graph:
        raise ConfigError("--graph is required")
    g = graphs.load_graph(args.graph, fmt=args.graph_format,
                          directed=args.directed)
    if args.largest_component:
        g = graphs.connectivity(g).largest_component
    return g


def _check_kind(g: graphs.Graph, name: str) -> _Kind:
    """The table entry of a kind, once the graph's direction fits it."""
    kind = _KINDS[name]
    if kind.directed != g.directed:
        need = "a directed" if kind.directed else "an undirected"
        raise ConfigError(f"laplacian kind {name!r} needs {need} graph")
    return kind


def _laplacian_matrix(g: graphs.Graph, args) -> np.ndarray:
    return _check_kind(g, args.laplacian).laplacian(g, args.kpath_alpha)


def _constant_exponent(text: str) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        schedule = parse_schedule(text)
        if isinstance(schedule, ConstantSchedule):
            return schedule.value
        raise ConfigError(
            f"power needs a constant exponent, got schedule {text!r}")


def _generator_for(g: graphs.Graph, args):
    """Fractional kinds build the generator from their Laplacian, kpath
    from the graph's hop distances."""
    kind = _check_kind(g, args.laplacian)
    if kind.generator is dynamics.KPathGenerator:
        return kind.generator.from_graph(g)
    return kind.generator.from_matrix(kind.laplacian(g, args.kpath_alpha))


def _build_problem(g: graphs.Graph, args):
    if args.model == "schrodinger" and _check_kind(g, args.laplacian).directed:
        raise ConfigError(
            f"the schrodinger model conserves no norm on laplacian kind "
            f"{args.laplacian!r}: -i L^alpha of a directed graph is not "
            "skew-Hermitian")
    generator = _generator_for(g, args)
    schedule = parse_schedule(args.alpha)
    state = dynamics.random_initial_state(args.model, g.n, args.seed)
    problem = dynamics.DynamicsProblem(
        model=args.model, generator=generator, schedule=schedule,
        initial_state=state, horizon=args.t_end)
    config = dynamics.IntegratorConfig(
        method=args.integrator, rtol=args.rtol, atol=args.atol,
        samples=args.samples)
    return problem, config


def _conservation_error(traj, args, g, problem) -> float:
    """Largest drift of the conserved quantity: the mass of a heat state;
    the 2-norm of a Schrodinger state, or for nrw the norm of psi D^-1/2
    relative to its start, since L_rw = D^-1/2 L_sym D^1/2."""
    if args.model == "heat":
        return float(np.abs(traj.states.real.sum(axis=1) - 1.0).max())
    states, start = traj.states, 1.0
    if args.laplacian == "nrw":
        scale = graphs.adjacency_and_degrees(g)[1] ** -0.5
        states = states * scale
        start = np.linalg.norm(problem.initial_state * scale)
    return float(np.abs(np.linalg.norm(states, axis=1) / start - 1.0).max())


def _sidecar(traj, args, g, problem) -> dict:
    payload = {
        "accepted_steps": traj.stats.accepted,
        "rejected_steps": traj.stats.rejected,
        "rhs_evaluations": traj.stats.rhs_evals,
        "linear_solves": traj.stats.linear_solves,
        "factorizations": traj.stats.factorizations,
        "iteration_restarts": traj.stats.iteration_restarts,
        "clamp_count": traj.stats.clamp_count,
        "quadrature_panels": traj.stats.quadrature_panels,
        "generator_route": problem.generator.route,
        "eigvec_condition": problem.generator.eigvec_condition,
        "model": args.model,
        "integrator": args.integrator,
        "schedule": render_schedule(problem.schedule),
        "seed": args.seed,
        "samples": args.samples,
        "t_end": args.t_end,
    }
    key = "mass_max_error" if args.model == "heat" else "norm_max_error"
    payload[key] = _conservation_error(traj, args, g, problem)
    if args.model == "heat":
        payload["min_heat_entry"] = float(traj.states.real.min())
        payload["entries_below_atol"] = int(
            (traj.states.real < -args.atol).sum())
    payload["empirical_decay_rate"] = None
    if args.model == "heat" and args.laplacian in _DECAY_KINDS:
        try:
            envelope = stability.decay_envelope(traj, stability.steady_state(g))
            payload["empirical_decay_rate"] = envelope.rate
        except ValueError:
            pass
    return payload


def cmd_laplacian(args) -> int:
    g = _load_graph(args)
    matrix = _laplacian_matrix(g, args)
    trajio.write_matrix(matrix, args.out, args.out_format)
    return EXIT_OK


def cmd_power(args) -> int:
    if args.laplacian == "kpath":
        raise ConfigError("power applies to fractional kinds; use the kpath command")
    alpha = _constant_exponent(args.alpha)
    g = _load_graph(args)
    powered = _generator_for(g, args).matrix(alpha)
    trajio.write_matrix(powered, args.out, args.out_format)
    return EXIT_OK


def cmd_kpath(args) -> int:
    g = _load_graph(args)
    matrix = _kpath_laplacian(g, args.kpath_alpha)
    trajio.write_matrix(matrix, args.out, args.out_format)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    g = _load_graph(args)
    if g.directed:
        raise ConfigError("spectrum needs an undirected graph")
    if args.laplacian == "nrw":
        # I - D^-1 A is similar to I - D^-1/2 A D^-1/2, which is symmetric.
        matrix = graphs.normalized_laplacians(g)[1]
    else:
        matrix = _laplacian_matrix(g, args)
    values = np.linalg.eigvalsh(matrix)
    trajio.write_spectrum(values, args.out, args.out_format)
    return EXIT_OK


def cmd_simulate(args) -> int:
    g = _load_graph(args)
    problem, config = _build_problem(g, args)
    traj = dynamics.simulate(problem, config)
    trajio.write_trajectory(traj, args.model, args.out, args.out_format)
    trajio.write_json(_sidecar(traj, args, g, problem),
                      f"{args.out}.stats.json")
    return EXIT_OK


def cmd_decay(args) -> int:
    if args.out_format != "json":
        raise ConfigError("decay writes its report as JSON only, not CSV")
    if args.model != "heat":
        raise ConfigError("decay analysis applies to the heat model")
    if args.laplacian not in _DECAY_KINDS:
        raise ConfigError("decay analysis needs the comb or kpath kind")
    g = _load_graph(args)
    problem, config = _build_problem(g, args)
    traj = dynamics.simulate(problem, config)
    envelope = stability.decay_envelope(traj, stability.steady_state(g))
    report = {
        "amplitude": envelope.amplitude,
        "rate": envelope.rate,
        "fit_residual": envelope.residual,
        "rate_floor": None,
        "satisfies_floor": None,
    }
    if args.laplacian == "comb":
        lam2 = float(problem.generator.factorization.eigenvalues[1])
        grid = np.linspace(0.0, problem.horizon, 1001)
        floor = float((lam2 ** problem.schedule(grid)).min())
        report["rate_floor"] = floor
        report["satisfies_floor"] = bool(envelope.rate >= floor - 1e-6)
    if args.out:
        trajio.write_json(report, args.out)
    else:
        print(trajio.report_json(report))
    return EXIT_OK


def cmd_floquet(args) -> int:
    if args.period is None:
        raise ConfigError("--period is required")
    schedule = parse_schedule(args.alpha)
    if args.laplacian == "kpath":
        raise ConfigError("floquet analysis needs a fractional Laplacian kind")
    g = _load_graph(args)
    exponents = stability.floquet_exponents(_generator_for(g, args), schedule,
                                            args.period)
    trajio.write_exponents(exponents, args.period, args.out, args.out_format)
    return EXIT_OK


_COMMANDS = {
    "laplacian": cmd_laplacian,
    "power": cmd_power,
    "kpath": cmd_kpath,
    "spectrum": cmd_spectrum,
    "simulate": cmd_simulate,
    "decay": cmd_decay,
    "floquet": cmd_floquet,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.config:
            args = _with_config(parser, args, argv)
        if not args.out and args.command != "decay":
            raise ConfigError("--out is required")
        return _COMMANDS[args.command](args)
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
