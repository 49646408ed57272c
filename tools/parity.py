"""One line per outcome of the package's estimator paths, for diffing two checkouts.

The tool imports corr2phase from the path, so the same script diffs any
two commits:

    PYTHONPATH=<parent-checkout>/src python3 tools/parity.py > parent.txt
    PYTHONPATH=src python3 tools/parity.py > change.txt
    diff parent.txt change.txt

    PYTHONPATH=src python3 tools/parity.py --smoke   # three frames, a few seconds

Each line names a call and its outcome: the repr of the result, or the
class and message of the Corr2PhaseError it raised. The calls are, on
each frame and design, simulate for every estimator kind at skip budgets
0.01 and 1.0, at workers 1 and at workers 1 and 2 with 37-row chunks (so
that two threads share the run); enumerate_exact at both budgets;
estimated_optimum_constants and estimate of the parameter-free kinds on
40 drawn samples; and optimum_constants and efficiency_report of the
population, and of fixtures/murthy67.json with its published values.
The frames are a small one with ties and a zero mean of x (TIES), two
whose second-phase mean of z or of x can be nonzero but tiny, frames of
small integers and random_population frames.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from unittest import mock

import numpy as np

import corr2phase as c2p
from corr2phase import _kernels

ROOT = Path(__file__).resolve().parent.parent

# One label per estimator kind.
LABELS = (
    "sample-r",
    "chain-ratio",
    "gen-power:0.3,-0.2,0.1,0.05",
    "h-linear:0.5,-0.1",
    "h-power:0.5,-0.1",
    "t-linear:0.3,-0.2,0.1,0.05",
    "t-power:0.3,-0.2,0.1,0.05",
    "difference:0.3,-0.2,0.1,0.05",
    "td-star:power",
    "td-star:ratio",
    "td-star:linear",
    "td-star:inverse",
)
BUDGETS = (0.01, 1.0)
REPS = 300
SMALL_CHUNK = 37
DRAWS = 40

TIES = c2p.PopulationFrame(
    y=np.array([2.0, 3, 2, 1, 3, 3, 3, 1]),
    x=np.array([-2.0, 3, -2, 1, -2, -1, 1, 1]),
    z=np.array([2.0, 1, 1, 1, 1, 3, 2, 2]),
)
# The second phase {0, 1, 2} of a (6, 6, 3) draw has a mean of z (or of
# x) of 2e-309 / 3, nonzero but so small that the plug-in weights are
# not finite.
TINY_MEAN_Z = c2p.PopulationFrame(
    y=np.array([1.0, 2, 4, 3, 5, 7]),
    x=np.array([2.0, 3, 1, 4, 6, 5]),
    z=np.array([1.0, -1, 2e-309, 3, 2, 5]),
)
TINY_MEAN_X = c2p.PopulationFrame(y=TINY_MEAN_Z.y, x=TINY_MEAN_Z.z, z=TINY_MEAN_Z.x)


def small_integer_frame(seed: int) -> c2p.PopulationFrame:
    """6 to 10 units of integers in [-2, 3]: draws tie, go constant, hit zero means."""
    rng = np.random.default_rng(seed)
    N = int(rng.integers(6, 11))
    while True:
        y, x, z = rng.integers(-2, 4, size=(3, N)).astype(float)
        if all(len(set(c)) > 1 for c in (y, x, z)) and z.mean() != 0.0:
            return c2p.PopulationFrame(y=y, x=x, z=z)


def frames(smoke: bool) -> list[tuple[str, c2p.PopulationFrame]]:
    named = [("ties", TIES), ("tiny-mean-z", TINY_MEAN_Z), ("tiny-mean-x", TINY_MEAN_X)]
    count = 0 if smoke else 6
    named += [(f"integers-{s}", small_integer_frame(s)) for s in range(count)]
    named += [(f"random-{s}", c2p.random_population(6 + s, s)) for s in range(count)]
    return named


def designs(N: int) -> list[c2p.DesignSpec]:
    return [c2p.DesignSpec(N, 5, 3), c2p.DesignSpec(N, min(N, 6), 3)]


def outcome(call, *args, **kwargs) -> str:
    try:
        return repr(call(*args, **kwargs))
    except c2p.Corr2PhaseError as exc:
        return f"{type(exc).__name__}: {exc}"


def frame_lines(name: str, frame: c2p.PopulationFrame):
    m = c2p.population_moments(frame)
    aux = c2p.KnownAux.from_frame(frame)
    yield f"optimum_constants {name}: {outcome(c2p.optimum_constants, m)}"
    for design in designs(frame.N):
        at = f"{name} {design.N},{design.n1},{design.n}"
        yield f"efficiency_report {at}: {outcome(c2p.efficiency_report, m, design.n, design.n1)}"
        for label in LABELS:
            for budget in BUDGETS:
                run = f"{at} {label} budget={budget}"
                yield f"simulate {run} workers=1: " + outcome(
                    c2p.simulate, frame, design, label, REPS, 7, 1, budget
                )
                with mock.patch.object(_kernels, "chunk_rows", lambda width: SMALL_CHUNK):
                    for workers in (1, 2):
                        yield f"simulate {run} workers={workers} chunk={SMALL_CHUNK}: " + outcome(
                            c2p.simulate, frame, design, label, REPS, 7, workers, budget
                        )
                yield f"enumerate_exact {run}: " + outcome(
                    c2p.enumerate_exact, frame, design, label, max_skip_fraction=budget
                )
        for rep in range(DRAWS):
            sample = c2p.draw_two_phase(frame, design, 11, rep=rep)
            try:
                stats = c2p.sample_statistics(frame, sample, aux)
            except c2p.Corr2PhaseError as exc:
                yield f"sample_statistics {at} rep={rep}: {type(exc).__name__}: {exc}"
                continue
            yield f"estimated_optimum_constants {at} rep={rep}: " + outcome(
                c2p.estimated_optimum_constants, stats
            )
            for kind in c2p.PARAMETER_FREE_KINDS:
                spec = c2p.EstimatorSpec(kind=kind)
                yield f"estimate {at} rep={rep} {kind}: {outcome(c2p.estimate, spec, stats)}"


def published_lines():
    doc = json.loads((ROOT / "fixtures" / "murthy67.json").read_text())
    m = c2p.moments_from_params(doc)
    yield f"optimum_constants murthy67: {outcome(c2p.optimum_constants, m)}"
    yield "efficiency_report murthy67: " + outcome(
        c2p.efficiency_report, m, doc["n"], doc["n1"], doc.get("published_pre")
    )


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="the first three frames only")
    args = parser.parse_args(argv)
    for line in published_lines():
        print(line)
    for name, frame in frames(args.smoke):
        for line in frame_lines(name, frame):
            print(line)


if __name__ == "__main__":
    main()
