"""Command-line interface.

Five commands: moments (exact population moment table), efficiency
(variance bounds and relative efficiencies from a population or a
parameter file), estimate (one two-phase draw, several estimators),
simulate (Monte Carlo), enumerate (exact design distribution).

Exit codes: 0 success, 1 for any data or computation error, 2 for a
malformed invocation (argparse usage errors).
"""

from __future__ import annotations

import argparse
import sys

from .errors import Corr2PhaseError, ParseError
from . import io
from .analytics import efficiency_report
from .estimators import PARAMETER_FREE_KINDS, EstimatorSpec, estimate, parse_estimator
from .montecarlo import enumerate_exact, simulate
from .moments import moments_from_params, population_moments
from .sampling import DesignSpec, KnownAux, draw_two_phase, sample_statistics


def _estimator_arg(text: str) -> EstimatorSpec:
    try:
        return parse_estimator(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _emit(doc: dict, out: str | None) -> None:
    text = io.render_report(doc)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", metavar="FILE", help="write the JSON report here instead of stdout")


def _add_design(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True, help="second-phase sample size")
    p.add_argument("--n1", type=int, required=True, help="first-phase sample size")


def _cmd_moments(args: argparse.Namespace) -> int:
    frame = io.load_population_csv(args.population)
    _emit(io.moments_doc(population_moments(frame)), args.out)
    return 0


def _cmd_efficiency(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    published = None
    if args.pop:
        if args.delta310_from_delta300:
            parser.error("--delta310-from-delta300 applies only with --params")
        m = population_moments(io.load_population_csv(args.pop))
        source = f"population:{args.pop}"
        doc = {}
    else:
        doc = io.load_params_json(args.params)
        m = moments_from_params(
            doc, delta310_from_delta300=args.delta310_from_delta300
        )
        source = f"params:{args.params}"
        published = doc.get("published_pre")
    n = args.n if args.n is not None else doc.get("n")
    n1 = args.n1 if args.n1 is not None else doc.get("n1")
    if n is None or n1 is None:
        parser.error("supply --n and --n1 (or a params file that includes them)")
    report = efficiency_report(m, int(n), int(n1), published)
    _emit(io.efficiency_doc(report, source), args.out)
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    frame = io.load_population_csv(args.pop)
    design = DesignSpec(N=frame.N, n1=args.n1, n=args.n)
    sample = draw_two_phase(frame, design, args.seed, rep=args.rep)
    stats = sample_statistics(frame, sample, KnownAux.from_frame(frame))
    specs = args.estimator or [EstimatorSpec(kind=k) for k in PARAMETER_FREE_KINDS]
    estimates: dict[str, float] = {}
    errors: dict[str, str] = {}
    clamped: list[str] = []
    for spec in specs:
        label = spec.label()
        try:
            value = estimate(spec, stats)
        except Corr2PhaseError as exc:
            errors[label] = f"{type(exc).__name__}: {exc}"
            continue
        if args.clamp and abs(value) > 1.0:
            clamped.append(label)
            value = max(-1.0, min(1.0, value))
        estimates[label] = value
    _emit(
        io.estimate_doc(sample, stats, estimates, errors, args.clamp, clamped),
        args.out,
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    frame = io.load_population_csv(args.pop)
    design = DesignSpec(N=frame.N, n1=args.n1, n=args.n)
    result = simulate(
        frame,
        design,
        args.estimator,
        reps=args.reps,
        seed=args.seed,
        workers=args.workers,
        max_skip_fraction=args.max_skip_fraction,
    )
    _emit(io.simulation_doc(result), args.out)
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    frame = io.load_population_csv(args.pop)
    design = DesignSpec(N=frame.N, n1=args.n1, n=args.n)
    result = enumerate_exact(
        frame,
        design,
        args.estimator,
        cap=args.cap,
        max_skip_fraction=args.max_skip_fraction,
    )
    _emit(io.enumeration_doc(result), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corr2phase",
        description="Correlation estimation under two-phase sampling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="exact moment table of a population CSV")
    p.add_argument("population", help="population CSV with header y,x,z")
    _add_out(p)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("efficiency", help="variance bounds and efficiencies")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pop", metavar="CSV", help="population CSV")
    group.add_argument("--params", metavar="JSON", help="moment parameter file")
    p.add_argument("--n", type=int, default=None, help="second-phase sample size")
    p.add_argument("--n1", type=int, default=None, help="first-phase sample size")
    p.add_argument(
        "--delta310-from-delta300",
        action="store_true",
        help="fill a missing d_310 with the supplied d_300 (recorded in notes)",
    )
    _add_out(p)
    p.set_defaults(func=lambda args, _p=p: _cmd_efficiency(args, _p))

    p = sub.add_parser("estimate", help="one two-phase draw, several estimators")
    p.add_argument("--pop", metavar="CSV", required=True)
    _add_design(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rep", type=int, default=0, help="replication index (default 0)")
    p.add_argument(
        "--estimator",
        type=_estimator_arg,
        action="append",
        metavar="LABEL",
        help="estimator label, repeatable (default: all parameter-free kinds)",
    )
    p.add_argument(
        "--clamp",
        action="store_true",
        help="clamp estimates into [-1, 1] and record which were clamped",
    )
    _add_out(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("simulate", help="Monte Carlo over two-phase draws")
    p.add_argument("--pop", metavar="CSV", required=True)
    _add_design(p)
    p.add_argument("--estimator", type=_estimator_arg, required=True, metavar="LABEL")
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument(
        "--max-skip-fraction",
        type=float,
        default=0.01,
        help="fail if more than this fraction (0 to 1) of replications is skipped",
    )
    _add_out(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("enumerate", help="exact average over all two-phase samples")
    p.add_argument("--pop", metavar="CSV", required=True)
    _add_design(p)
    p.add_argument("--estimator", type=_estimator_arg, required=True, metavar="LABEL")
    p.add_argument("--cap", type=int, default=2_000_000, help="pair budget")
    p.add_argument(
        "--max-skip-fraction",
        type=float,
        default=0.01,
        help="fail if more than this fraction (0 to 1) of pairs is skipped",
    )
    _add_out(p)
    p.set_defaults(func=_cmd_enumerate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (Corr2PhaseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
