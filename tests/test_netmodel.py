import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcmg.errors import (
    DimensionMismatch,
    InvalidAgent,
    InvalidTopology,
    NonPositiveInput,
)
from dcmg.netmodel import (
    BusParams,
    GlobalModel,
    LineParams,
    NetworkSpec,
    build_global,
    partition_agent,
)

# hand-derived matrices for the symmetric three-bus triangle:
# R_i = 0.05 ohm, L_i = 3 mH, C_i = 10 uF, droop 0.144 ohm,
# lines 0.1 ohm / 0.5 mH.  1/C = 1e5, 1/L = 333.33..,
# (R_d + R)/L = 0.194/0.003 = 64.666.., 1/L_l = 2000, R_l/L_l = 200.
AGENT_A = np.array(
    [
        [0.0, 1.0e5, -1.0e5, -1.0e5],
        [-333.3333333333333, -64.66666666666667, 0.0, 0.0],
        [2000.0, 0.0, -200.0, 0.0],
        [2000.0, 0.0, 0.0, -200.0],
    ]
)
AGENT_B = np.array([[0.0], [333.3333333333333], [0.0], [0.0]])
AGENT_E = np.array([[-1.0e5], [0.0], [0.0], [0.0]])


def test_global_model_frozen_matrices(threebus, global_model):
    gm = global_model
    assert gm.state_labels == [
        "V1",
        "V2",
        "V3",
        "Ig1",
        "Ig2",
        "Ig3",
        "I1_2",
        "I1_3",
        "I2_3",
    ]
    inv_l = 333.3333333333333
    tau = -64.66666666666667
    a = np.zeros((9, 9))
    a[0, 3] = 1e5
    a[0, 6] = -1e5
    a[0, 7] = -1e5
    a[1, 4] = 1e5
    a[1, 6] = +1e5
    a[1, 8] = -1e5
    a[2, 5] = 1e5
    a[2, 7] = +1e5
    a[2, 8] = +1e5
    for i in range(3):
        a[3 + i, i] = -inv_l
        a[3 + i, 3 + i] = tau
    a[6, 0] = 2000.0
    a[6, 1] = -2000.0
    a[6, 6] = -200.0
    a[7, 0] = 2000.0
    a[7, 2] = -2000.0
    a[7, 7] = -200.0
    a[8, 1] = 2000.0
    a[8, 2] = -2000.0
    a[8, 8] = -200.0
    assert np.allclose(gm.a_c, a, rtol=1e-12, atol=1e-9)

    b = np.zeros((9, 3))
    b[3, 0] = b[4, 1] = b[5, 2] = inv_l
    assert np.allclose(gm.b_c, b, rtol=1e-12, atol=1e-9)

    e = np.zeros((9, 3))
    e[0, 0] = e[1, 1] = e[2, 2] = -1e5
    assert np.allclose(gm.e_c, e, rtol=1e-12, atol=1e-9)


def test_single_bus_degenerate():
    spec = NetworkSpec(buses=[BusParams(0.05, 3e-3, 1e-5, 0.144)])
    gm = build_global(spec)
    assert gm.n_state == 2
    assert gm.state_labels == ["V1", "Ig1"]
    cont = partition_agent(gm, spec, 1)
    assert cont.couplings == []
    assert cont.a_ci.shape == (2, 2)
    assert np.array_equal(cont.c_ci, np.eye(2))


def test_agent1_frozen_matrices(threebus, global_model):
    cont = partition_agent(global_model, threebus, 1)
    assert cont.state_labels == ["V1", "Ig1", "I1_2", "I1_3"]
    assert np.allclose(cont.a_ci, AGENT_A, rtol=1e-12, atol=1e-9)
    assert np.allclose(cont.b_ci, AGENT_B, rtol=1e-12, atol=1e-9)
    assert np.allclose(cont.e_ci, AGENT_E, rtol=1e-12, atol=1e-9)
    assert np.array_equal(cont.c_ci, np.eye(4))
    assert [cp.neighbor for cp in cont.couplings] == [2, 3]
    # each coupling column is zero except -1/L_l in its own line row
    expected = {2: 2, 3: 3}
    for cp in cont.couplings:
        col = np.zeros(4)
        col[expected[cp.neighbor]] = -2000.0
        assert np.allclose(cp.column, col, rtol=1e-12, atol=1e-9)
    assert np.array_equal(cont.state_index, [0, 3, 6, 7])
    assert np.array_equal(cont.state_sign, [1.0, 1.0, 1.0, 1.0])


def test_every_agent_shares_the_local_pattern(threebus, global_model):
    # the away-from-agent orientation makes all three local models of the
    # symmetric triangle literally identical
    a1 = partition_agent(global_model, threebus, 1)
    for i in (2, 3):
        ai = partition_agent(global_model, threebus, i)
        assert np.array_equal(ai.a_ci, a1.a_ci)
        assert np.array_equal(ai.b_ci, a1.b_ci)
        assert np.array_equal(ai.e_ci, a1.e_ci)
    a2 = partition_agent(global_model, threebus, 2)
    assert a2.state_labels == ["V2", "Ig2", "I2_1", "I2_3"]
    assert [cp.neighbor for cp in a2.couplings] == [1, 3]
    assert np.array_equal(a2.state_sign, [1.0, 1.0, -1.0, 1.0])
    assert np.array_equal(a2.state_index, [1, 4, 6, 8])


def test_default_noise_blocks(threebus, global_model):
    cont = partition_agent(global_model, threebus, 1)
    assert np.array_equal(cont.q_i, np.diag([10.0, 10.0, 10.0, 10.0]))
    assert np.array_equal(cont.r_i, np.diag([100.0, 100.0, 10.0, 10.0]))


def test_canonical_orientation_from_reversed_entry():
    spec = NetworkSpec(
        buses=[BusParams(0.05, 3e-3, 1e-5) for _ in range(2)],
        lines=[LineParams(tail=2, head=1, r_line=0.1, l_line=5e-4)],
    )
    (canon,) = spec.canonical_lines()
    assert (canon.tail, canon.head) == (1, 2)
    assert spec.lines_at(1) == [(0, canon, +1)]
    assert spec.lines_at(2) == [(0, canon, -1)]
    assert spec.neighbors(1) == [2]
    assert spec.neighbors(2) == [1]
    gm = build_global(spec)
    assert gm.state_labels[-1] == "I1_2"


def test_kcl_closure(threebus, global_model):
    # summing C_b * (capacitor rows) cancels every line-current column
    caps = np.array([bus.c_output for bus in threebus.buses])
    for col in range(6, 9):
        total = sum(
            caps[b] * global_model.a_c[b, col] for b in range(3)
        )
        assert abs(total) < 1e-9


def test_validate_rejects_bad_topologies():
    good_bus = BusParams(0.05, 3e-3, 1e-5)
    with pytest.raises(InvalidTopology):
        NetworkSpec(buses=[]).validate()
    with pytest.raises(InvalidTopology, match="endpoint"):
        NetworkSpec(
            buses=[good_bus], lines=[LineParams(1, 2, 0.1, 5e-4)]
        ).validate()
    with pytest.raises(InvalidTopology, match="self-loop"):
        NetworkSpec(
            buses=[good_bus, good_bus], lines=[LineParams(1, 1, 0.1, 5e-4)]
        ).validate()
    with pytest.raises(InvalidTopology, match="duplicate"):
        NetworkSpec(
            buses=[good_bus, good_bus],
            lines=[LineParams(1, 2, 0.1, 5e-4), LineParams(2, 1, 0.2, 5e-4)],
        ).validate()
    with pytest.raises(InvalidTopology, match="l_internal"):
        NetworkSpec(buses=[BusParams(0.05, 0.0, 1e-5)]).validate()
    with pytest.raises(InvalidTopology, match="c_output"):
        NetworkSpec(buses=[BusParams(0.05, 3e-3, -1e-5)]).validate()
    with pytest.raises(InvalidTopology, match="r_line"):
        NetworkSpec(
            buses=[good_bus, good_bus], lines=[LineParams(1, 2, -0.1, 5e-4)]
        ).validate()
    with pytest.raises(InvalidTopology, match="bus 1: r_internal must be >= 0"):
        NetworkSpec(buses=[BusParams(-0.05, 3e-3, 1e-5)]).validate()
    with pytest.raises(InvalidTopology, match="bus 1: droop_gain must be >= 0"):
        NetworkSpec(buses=[BusParams(0.05, 3e-3, 1e-5, droop_gain=-1.0)]).validate()
    with pytest.raises(InvalidTopology, match="line 0: r_line must be finite"):
        NetworkSpec(
            buses=[good_bus, good_bus],
            lines=[LineParams(1, 2, float("inf"), 5e-4)],
        ).validate()


def test_partition_rejects_bad_inputs(threebus, global_model):
    with pytest.raises(InvalidAgent):
        partition_agent(global_model, threebus, 0)
    with pytest.raises(InvalidAgent):
        partition_agent(global_model, threebus, 4)
    with pytest.raises(NonPositiveInput):
        partition_agent(global_model, threebus, 1, q_state=-1.0)
    stale = GlobalModel(
        a_c=np.zeros((5, 5)),
        b_c=np.zeros((5, 3)),
        e_c=np.zeros((5, 3)),
        state_labels=["x"] * 5,
    )
    with pytest.raises(DimensionMismatch):
        partition_agent(stale, threebus, 1)


# ---------------------------------------------------------------------------
# property: the local models are exact slices of the global physics


@st.composite
def network_specs(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    chosen = draw(
        st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))
        if pairs
        else st.just([])
    )
    buses = []
    for _ in range(n):
        buses.append(
            BusParams(
                r_internal=draw(st.floats(0.001, 1.0)),
                l_internal=draw(st.floats(1e-4, 1e-2)),
                c_output=draw(st.floats(1e-6, 1e-3)),
                droop_gain=draw(st.floats(0.0, 2.0)),
            )
        )
    lines = []
    for tail, head in chosen:
        if draw(st.booleans()):
            tail, head = head, tail
        lines.append(
            LineParams(
                tail=tail,
                head=head,
                r_line=draw(st.floats(0.001, 1.0)),
                l_line=draw(st.floats(1e-5, 1e-2)),
            )
        )
    return NetworkSpec(buses=buses, lines=lines)


@settings(max_examples=40, deadline=None)
@given(spec=network_specs())
def test_agent_embedding_reproduces_global_rows(spec):
    gm = build_global(spec)
    for i in range(1, spec.n_bus + 1):
        cont = partition_agent(gm, spec, i)
        s = np.zeros((cont.n_i, gm.n_state))
        s[np.arange(cont.n_i), cont.state_index] = cont.state_sign
        # embedding identity: the oriented global rows equal the local
        # dynamics plus the neighbour-voltage coupling columns
        rhs = cont.a_ci @ s
        for cp in cont.couplings:
            rhs[:, cp.neighbor - 1] += cp.column
        assert np.allclose(s @ gm.a_c, rhs, rtol=0, atol=1e-9)
        assert np.allclose(
            s @ gm.b_c[:, i - 1 : i], cont.b_ci, rtol=0, atol=1e-9
        )
        assert np.allclose(
            s @ gm.e_c[:, i - 1 : i], cont.e_ci, rtol=0, atol=1e-9
        )
        # other buses' sources and loads never reach this agent's slice
        others = [j for j in range(spec.n_bus) if j != i - 1]
        if others:
            assert not (s @ gm.b_c[:, others]).any()
            assert not (s @ gm.e_c[:, others]).any()
