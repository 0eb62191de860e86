"""The bundled scenario, the one copy the tests read, and the networks the
observer tests run on besides its triangle."""

import copy
from pathlib import Path

from dcmg.cli import load_config
from dcmg.netmodel import LineParams, NetworkSpec

SCENARIO = Path(__file__).resolve().parents[1] / "scenarios" / "threebus_attack.json"


def bundled_scenario():
    """``scenarios/threebus_attack.json``, loaded afresh on each call."""
    return load_config(SCENARIO)


def threebus_network():
    """The bundled triangle: three identical buses, 0.1 ohm / 0.5 mH lines."""
    return bundled_scenario().network


_BUS = threebus_network().buses[0]


def example_bus():
    """A copy of the bundled bus: 50 MW, 0.05 ohm / 3 mH, 10 uF, 0.144 ohm
    droop."""
    return copy.deepcopy(_BUS)


def heterogeneous_network():
    """The three-bus triangle with per-bus C x 1/1.3/0.8 and L x 1/0.7/1.2,
    and per-line R x 1/1.5/0.6: every agent has its own gains."""
    network = threebus_network()
    bus_scales = zip(network.buses, (1.0, 1.3, 0.8), (1.0, 0.7, 1.2))
    for bus, c_scale, l_scale in bus_scales:
        bus.c_output *= c_scale
        bus.l_internal *= l_scale
    for line, r_scale in zip(network.lines, (1.0, 1.5, 0.6)):
        line.r_line *= r_scale
    return network


def path_network():
    """Four copies of the bundled bus in a path: the end agents have one
    neighbour (n = 3), the middle ones two (n = 4)."""
    return NetworkSpec(
        buses=[example_bus() for _ in range(4)],
        lines=[
            LineParams(tail=k, head=k + 1, r_line=0.1, l_line=5e-4) for k in (1, 2, 3)
        ],
    )


def ring_network(n):
    """``n`` copies of the bundled bus in a ring: every agent has two
    neighbours, and all agents form one group."""
    return NetworkSpec(
        buses=[example_bus() for _ in range(n)],
        lines=[
            LineParams(tail=k, head=k % n + 1, r_line=0.1, l_line=5e-4)
            for k in range(1, n + 1)
        ],
    )
