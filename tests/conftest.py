import json
import os

import numpy as np
import pytest

import corr2phase as c2p

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "fixtures")


@pytest.fixture(scope="session")
def six_frame() -> c2p.PopulationFrame:
    return c2p.PopulationFrame(
        y=np.array([1.0, 2.0, 3.0, 4.0, 5.0, 9.0]),
        x=np.array([2.0, 1.0, 4.0, 3.0, 8.0, 6.0]),
        z=np.array([1.0, 3.0, 2.0, 5.0, 4.0, 8.0]),
    )


# Frames on which a census sample must reproduce the population table
# bit for bit. Before the sample and population moments shared one
# function, each frame here but the six-unit fixture broke an identity.
CENSUS_FRAMES = {
    "synth50-1": lambda: c2p.synthetic_population(50, 1),
    "synth50-3": lambda: c2p.synthetic_population(50, 3),
    "random9-2": lambda: c2p.random_population(9, 2),
    "random9-4": lambda: c2p.random_population(9, 4),
    "random14-3": lambda: c2p.random_population(14, 3),
    "random3001-2": lambda: c2p.random_population(3001, 2),
}


@pytest.fixture(scope="session", params=["sixunit", *CENSUS_FRAMES])
def census_frame(request, six_frame) -> c2p.PopulationFrame:
    if request.param == "sixunit":
        return six_frame
    return CENSUS_FRAMES[request.param]()


@pytest.fixture(scope="session")
def six_csv_path() -> str:
    return os.path.join(FIXTURES, "sixunit.csv")


@pytest.fixture(scope="session")
def published_params() -> dict:
    with open(os.path.join(FIXTURES, "murthy67.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def published_moments(published_params) -> c2p.MomentSet:
    return c2p.moments_from_params(published_params, delta310_from_delta300=True)
