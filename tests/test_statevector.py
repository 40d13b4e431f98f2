"""Simulator kernels against hand values and the dense matrix oracle."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from qcae.statevector import (
    GATE_KINDS,
    ROTATION_KINDS,
    GateOp,
    NoiseChannel,
    cnot,
    h,
    measure_all_z,
    measure_rows_z,
    run_circuit,
    run_rows,
    rx,
    ry,
    rz,
    zz,
)

from oracles import dense_all_z, dense_mixed_z, random_gate_list, run_dense, run_dense_mixed

SQRT2_INV = 1 / np.sqrt(2)


# --------------------------------------------------------------- zero state

def test_init_zero_single_qubit():
    assert np.allclose(run_circuit(1, []), [1, 0])


def test_init_zero_two_qubits():
    assert np.allclose(run_circuit(2, []), [1, 0, 0, 0])


def test_init_zero_three_qubits():
    rows = run_rows(3, [], np.zeros((2, 0)))
    assert rows.shape == (2, 8)
    assert np.all(rows[:, 0] == 1)
    assert np.count_nonzero(rows) == 2


@pytest.mark.parametrize("bad_n", [0, -1, 15])
def test_init_zero_rejects_out_of_range(bad_n):
    with pytest.raises(ValueError):
        run_circuit(bad_n, [])


# --------------------------------------------------------------- gate basics

def test_hadamard_on_zero():
    assert np.allclose(run_circuit(1, [h(0)]), [SQRT2_INV, SQRT2_INV])


def test_cnot_flips_target_when_control_set():
    # |q0=1, q1=0> lives at index 1; CNOT(0, 1) sends it to index 3
    amps = run_circuit(2, [ry(0, np.pi), cnot(0, 1)])  # q0 -> |1>, then flip q1
    assert np.argmax(np.abs(amps)) == 3
    assert np.isclose(np.abs(amps[3]), 1.0)


def test_ry_half_pi_matches_eigenbasis_coefficients():
    amps = run_circuit(1, [ry(0, np.pi / 2)])
    assert np.allclose(amps, [np.cos(np.pi / 4), np.sin(np.pi / 4)])


def test_zz_on_zero_state_is_global_phase():
    theta = 0.83
    amps = run_circuit(2, [zz(0, 1, theta)])
    assert np.isclose(amps[0], np.exp(-0.5j * theta))
    assert np.allclose(np.abs(amps), [1, 0, 0, 0])


def test_gateop_validation():
    with pytest.raises(ValueError):
        GateOp("h", (0,), 0.3)  # h carries no angle
    with pytest.raises(ValueError):
        GateOp("h", (0,), slot=0)  # ... and no slot
    with pytest.raises(ValueError):
        GateOp("rx", (0,))  # rotation needs an angle or a slot
    with pytest.raises(ValueError):
        GateOp("ry", (0,), 0.3, slot=0)  # ... but not both
    with pytest.raises(ValueError):
        GateOp("rq", (0,))  # unknown kind
    with pytest.raises(ValueError):
        GateOp("cnot", (1, 1))  # duplicate targets
    with pytest.raises(ValueError):
        GateOp("zz", (2, 2), slot=0)
    with pytest.raises(ValueError):
        GateOp("cnot", (0,))  # one target for a two-qubit gate
    with pytest.raises(ValueError, match="scale"):
        GateOp("rx", (0,), 0.5, scale=2.0)  # a fixed angle takes no scale
    with pytest.raises(ValueError, match="scale"):
        GateOp("h", (0,), scale=2.0)
    with pytest.raises(ValueError):
        run_circuit(1, [h(1)])  # target out of range
    with pytest.raises(ValueError, match="slot"):
        run_circuit(2, [h(0), GateOp("ry", (1,), slot=0)])  # unbound gate


# ------------------------------------------------------------- Z expectation

def test_expect_z_of_zero_state_is_plus_one():
    assert measure_rows_z(run_rows(1, [], np.zeros((1, 0))))[0, 0] == 1.0


def test_expect_z_of_plus_state_is_zero():
    assert abs(measure_all_z(run_circuit(1, [h(0)]))[0]) < 1e-12


def test_expect_z_after_ry_is_cosine():
    theta = 0.7
    z = measure_rows_z(run_rows(1, [ry(0, theta)], [[theta]]))[0, 0]
    assert np.isclose(z, np.cos(theta), atol=1e-12)
    # cross-check against the dense oracle
    dense = run_dense(1, [ry(0, theta)])
    assert np.isclose(z, dense_all_z(dense, 1)[0], atol=1e-12)


def test_expect_z_basis_states_are_exactly_pm_one():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        bits = rng.integers(0, 2, n)
        amps = run_circuit(n, [ry(q, np.pi) for q, bit in enumerate(bits) if bit])
        assert np.allclose(measure_all_z(amps), 1.0 - 2.0 * bits, atol=1e-12)


def test_expect_z_stays_in_bounds_on_random_circuits():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        z = measure_all_z(run_circuit(n, random_gate_list(n, 30, rng)))
        assert z.shape == (n,)
        assert np.all((-1.0 - 1e-12 <= z) & (z <= 1.0 + 1e-12))


# --------------------------------------------------------------------- noise

def test_identity_channel_leaves_state_untouched():
    # NoiseChannel(0, 0) runs the pure path and equals no channel bit for bit
    rng = np.random.default_rng(13)
    gates = random_gate_list(3, 30, rng)
    angles = rng.uniform(-np.pi, np.pi, (4, len(gates)))
    identity = NoiseChannel(0.0, 0.0)
    plain, rows = run_rows(3, gates, angles), run_rows(3, gates, angles, identity)
    assert np.array_equal(rows, plain)
    assert np.array_equal(measure_rows_z(rows, identity), measure_rows_z(plain))


def test_full_readout_flip_erases_expectation():
    channel = NoiseChannel(readout_flip_prob=0.5)
    assert np.array_equal(measure_rows_z(run_rows(2, [], np.zeros((1, 0)), channel), channel),
                          [[0.0, 0.0]])
    assert np.array_equal(measure_all_z(run_circuit(2, []), channel), [0.0, 0.0])


def test_noise_channel_validation():
    with pytest.raises(ValueError):
        NoiseChannel(depolarizing_prob=1.5)
    with pytest.raises(ValueError):
        NoiseChannel(readout_flip_prob=-0.1)


# ---------------------------------------------------------------- invariants

def test_norm_preserved_over_long_random_circuits():
    rng = np.random.default_rng(42)
    for _ in range(5):
        n = int(rng.integers(1, 5))
        amps = run_circuit(n, random_gate_list(n, 200, rng))
        assert abs(np.sum(np.abs(amps) ** 2) - 1.0) < 1e-10


def test_kernel_matches_dense_oracle():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        gates = random_gate_list(n, int(rng.integers(1, 40)), rng)
        kernel = run_circuit(n, gates)
        dense = run_dense(n, gates)
        assert np.max(np.abs(kernel - dense)) < 1e-10


def test_gate_involutions():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        gates = random_gate_list(n, 20, rng)
        before = run_circuit(n, gates)
        theta = float(rng.uniform(-np.pi, np.pi))
        q = int(rng.integers(n))
        a, b = rng.choice(n, size=2, replace=False)
        for pair in ([h(q), h(q)],
                     [ry(q, theta), ry(q, -theta)],
                     [cnot(int(a), int(b)), cnot(int(a), int(b))]):
            assert np.max(np.abs(run_circuit(n, gates + pair) - before)) < 1e-10


def test_rx_rz_match_dense_single_gate():
    for theta in (-1.2, 0.0, 0.9, np.pi):
        for maker in (rx, rz):
            amps = run_circuit(1, [maker(0, theta)])
            assert np.max(np.abs(amps - run_dense(1, [maker(0, theta)]))) < 1e-12


def test_run_rows_rejects_mismatched_angle_matrix():
    with pytest.raises(ValueError):
        run_rows(2, [h(0), ry(1, 0.2)], np.zeros((3, 1)))
    with pytest.raises(ValueError):
        run_rows(2, [h(2)], np.zeros((1, 1)))  # target out of range


@st.composite
def gate_rows(draw, max_n=6, max_m=8):
    """(n, gate sequence over all six kinds, (M, len) angle matrix)."""
    n = draw(st.integers(1, max_n))
    kinds = GATE_KINDS if n > 1 else ("h", "rx", "ry", "rz")
    gates = []
    for i, kind in enumerate(draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=30))):
        qubits = tuple(draw(st.permutations(range(n)))[:2 if kind in ("cnot", "zz") else 1])
        gates.append(GateOp(kind, qubits, slot=i if kind in ROTATION_KINDS else None))
    m = draw(st.integers(1, max_m))
    angles = draw(arrays(float, (m, len(gates)),
                         elements=st.floats(-2 * np.pi, 2 * np.pi, allow_subnormal=False)))
    return n, gates, angles


def bound_ops(gates, theta):
    """GateOps of one angle row: column i binds gate i."""
    return [GateOp(g.kind, g.targets, float(a)) if g.kind in ROTATION_KINDS else g
            for g, a in zip(gates, theta)]


@settings(max_examples=80, deadline=None)
@given(gate_rows())
def test_runner_rows_match_one_row_runs(case):
    n, gates, angles = case
    amps = run_rows(n, gates, angles)
    z = measure_rows_z(amps)
    assert amps.shape == (len(angles), 2**n) and z.shape == (len(angles), n)
    assert np.allclose(np.sum(np.abs(amps) ** 2, axis=1), 1.0, rtol=0, atol=1e-12)
    for row, z_row, theta in zip(amps, z, angles):
        ops = bound_ops(gates, theta)
        amps_one = run_circuit(n, ops)
        assert np.max(np.abs(row - amps_one)) < 1e-12
        assert np.max(np.abs(z_row - measure_all_z(amps_one))) < 1e-12
        assert np.max(np.abs(row - run_dense(n, ops))) < 1e-10


probabilities = st.floats(0.0, 1.0, allow_subnormal=False)


@settings(max_examples=60, deadline=None)
@given(gate_rows(max_n=5, max_m=4), probabilities, probabilities)
def test_noisy_rows_match_dense_density_oracle(case, p, flip):
    n, gates, angles = case
    channel = NoiseChannel(p, flip)
    rows = run_rows(n, gates, angles, channel)
    z = measure_rows_z(rows, channel)
    assert z.shape == (len(angles), n)
    for row, z_row, theta in zip(rows, z, angles):
        rho = run_dense_mixed(n, bound_ops(gates, theta), p)
        # with p > 0 a row is rho with ket bits low and bra bits high, so
        # read as (bra, ket) it is rho transposed; with p = 0 it is amplitudes
        got = row.reshape(2**n, 2**n).T if p > 0 else np.outer(row, row.conj())
        assert np.max(np.abs(got - rho)) < 1e-12
        assert np.max(np.abs(z_row - dense_mixed_z(rho, n, flip))) < 1e-12


def test_measure_all_z_matches_per_qubit_calls():
    rng = np.random.default_rng(9)
    gates = random_gate_list(3, 25, rng)
    amps = run_circuit(3, gates)
    stacked = measure_all_z(amps)
    assert np.array_equal(stacked, measure_rows_z(amps[None])[0])
    assert np.allclose(stacked, dense_all_z(run_dense(3, gates), 3), atol=1e-12)
