"""Shared fixtures: canonical applications, cluster specs and solvers.

Hypothesis runs derandomized by default, so every tier-1 run draws the
same examples.  ``HYPOTHESIS_PROFILE=explore`` draws fresh random
examples instead (the separate exploration CI job).
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))

from repro.clusters import ApplicationModel, central_cluster, distributed_cluster
from repro.core import TransientModel
from repro.distributions import Shape
from repro.network import NetworkSpec, Station, DELAY
from repro.distributions import exponential


@pytest.fixture(scope="session")
def app() -> ApplicationModel:
    """The canonical E(T)=12 application."""
    return ApplicationModel()


@pytest.fixture(scope="session")
def central_spec(app) -> NetworkSpec:
    """All-exponential central cluster."""
    return central_cluster(app)


@pytest.fixture(scope="session")
def central_h2_spec(app) -> NetworkSpec:
    """Central cluster with an H2 (C²=10) shared remote disk."""
    return central_cluster(app, {"rdisk": Shape.hyperexp(10.0)})


@pytest.fixture(scope="session")
def distributed_spec(app) -> NetworkSpec:
    """All-exponential distributed cluster, K=4."""
    return distributed_cluster(app, 4)


@pytest.fixture(scope="session")
def central_model(central_spec) -> TransientModel:
    return TransientModel(central_spec, 5)


@pytest.fixture(scope="session")
def central_h2_model(central_h2_spec) -> TransientModel:
    return TransientModel(central_h2_spec, 5)


@pytest.fixture(scope="session")
def single_queue_spec() -> NetworkSpec:
    """One shared exponential server; every completion leaves the network."""
    return NetworkSpec(
        stations=(Station("s", exponential(2.0), 1),),
        routing=np.array([[0.0]]),
        entry=np.array([1.0]),
    )


@pytest.fixture(scope="session")
def delay_spec() -> NetworkSpec:
    """One delay (infinite-server) exponential bank."""
    return NetworkSpec(
        stations=(Station("s", exponential(2.0), DELAY),),
        routing=np.array([[0.0]]),
        entry=np.array([1.0]),
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20040426)  # IPDPS 2004 conference date
