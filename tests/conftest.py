import pytest

from dcmg.netmodel import build_global, partition_agent
from dcmg.uio import discretize_agent
from networks import threebus_network

TS = 1e-4


@pytest.fixture(scope="session")
def threebus():
    return threebus_network()


@pytest.fixture(scope="session")
def global_model(threebus):
    return build_global(threebus)


@pytest.fixture(scope="session")
def agent_models(threebus, global_model):
    return {
        i: discretize_agent(partition_agent(global_model, threebus, i), TS)
        for i in (1, 2, 3)
    }
