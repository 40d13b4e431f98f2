"""Simulator kernels against hand values and the dense matrix oracle."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import qcae.statevector
from qcae.ansatz import family_template
from qcae.statevector import (
    GATE_KINDS,
    ROTATION_KINDS,
    GateOp,
    NoiseChannel,
    compile_circuit,
    measure_all_z,
    measure_rows_z,
    row_width,
    run_circuit,
    run_rows,
    z_and_pullback,
)

from oracles import (dense_all_z, dense_mixed_z, layered_gate_list, random_gate_list, run_dense,
                     run_dense_mixed)

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


@pytest.mark.parametrize("n, channel", [(0, None), (15, None), (8, NoiseChannel(0.1))])
def test_a_register_beyond_the_cap_is_refused_before_any_layer_is_built(n, channel):
    # the cap bounds the memory of the layers (a CNOT run's permutation
    # table has 2^register entries) as well as of the rows
    gates = [GateOp("cnot", (0, 1))]
    angles = np.zeros((1, 1))
    for call in (lambda: compile_circuit(n, gates, channel),
                 lambda: run_rows(n, gates, angles, channel),
                 lambda: z_and_pullback(n, gates, angles, channel)):
        with pytest.raises(ValueError, match="simulated qubits must be in"):
            call()


# --------------------------------------------------------------- gate basics

def test_hadamard_on_zero():
    assert np.allclose(run_circuit(1, [GateOp("h", (0,))]), [SQRT2_INV, SQRT2_INV])


def test_cnot_flips_target_when_control_set():
    # |q0=1, q1=0> lives at index 1; CNOT(0, 1) sends it to index 3
    # q0 -> |1>, then flip q1
    amps = run_circuit(2, [GateOp("ry", (0,), np.pi), GateOp("cnot", (0, 1))])
    assert np.argmax(np.abs(amps)) == 3
    assert np.isclose(np.abs(amps[3]), 1.0)


def test_ry_half_pi_matches_eigenbasis_coefficients():
    amps = run_circuit(1, [GateOp("ry", (0,), np.pi / 2)])
    assert np.allclose(amps, [np.cos(np.pi / 4), np.sin(np.pi / 4)])


def test_zz_on_zero_state_is_global_phase():
    theta = 0.83
    amps = run_circuit(2, [GateOp("zz", (0, 1), theta)])
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
        run_circuit(1, [GateOp("h", (1,))])  # target out of range
    with pytest.raises(ValueError, match="slot"):
        run_circuit(2, [GateOp("h", (0,)), GateOp("ry", (1,), slot=0)])  # unbound gate


def test_gateop_keeps_its_targets_as_a_tuple_of_python_ints():
    listed, numpy_ints = GateOp("rx", [0], 0.3), GateOp("zz", (np.int64(1), np.int32(0)), 0.2)
    assert listed.targets == (0,) and numpy_ints.targets == (1, 0)
    assert all(type(q) is int for g in (listed, numpy_ints) for q in g.targets)
    plain = [GateOp("rx", (0,), 0.3), GateOp("zz", (1, 0), 0.2)]
    assert np.array_equal(run_rows(2, [listed, numpy_ints], [[0.3, 0.2]]),
                          run_rows(2, plain, [[0.3, 0.2]]))
    for bad in [(1.0,), ("0",), (None,), 0]:
        with pytest.raises(ValueError, match="integers"):
            GateOp("rx", bad, 0.3)


# ------------------------------------------------------------- Z expectation

def test_expect_z_of_zero_state_is_plus_one():
    assert measure_rows_z(run_rows(1, [], np.zeros((1, 0))))[0, 0] == 1.0


def test_expect_z_of_plus_state_is_zero():
    assert abs(measure_all_z(run_circuit(1, [GateOp("h", (0,))]))[0]) < 1e-12


def test_expect_z_after_ry_is_cosine():
    theta = 0.7
    z = measure_rows_z(run_rows(1, [GateOp("ry", (0,), slot=0)], [[theta]]))[0, 0]
    assert np.isclose(z, np.cos(theta), atol=1e-12)
    # cross-check against the dense oracle
    dense = run_dense(1, [GateOp("ry", (0,), theta)])
    assert np.isclose(z, dense_all_z(dense, 1)[0], atol=1e-12)


def test_expect_z_basis_states_are_exactly_pm_one():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        bits = rng.integers(0, 2, n)
        amps = run_circuit(n, [GateOp("ry", (q,), np.pi) for q, bit in enumerate(bits) if bit])
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


def test_measure_all_z_refuses_depolarizing_and_keeps_the_readout_flip():
    # amplitudes carry no depolarizing: reading them under it would be the
    # pure value shrunk by the flip alone, not measure_rows_z's density value
    amps = run_circuit(1, [GateOp("ry", (0,), 0.7)])
    with pytest.raises(ValueError, match="measure_rows_z"):
        measure_all_z(amps, NoiseChannel(0.2, 0.1))
    flip = NoiseChannel(0.0, 0.1)
    assert np.array_equal(measure_all_z(amps, flip), measure_rows_z(amps[None], flip)[0])
    assert abs(measure_all_z(amps, flip)[0] - 0.8 * np.cos(0.7)) < 1e-12


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
        for pair in ([GateOp("h", (q,))] * 2,
                     [GateOp("ry", (q,), theta), GateOp("ry", (q,), -theta)],
                     [GateOp("cnot", (int(a), int(b)))] * 2):
            assert np.max(np.abs(run_circuit(n, gates + pair) - before)) < 1e-10


def test_rx_rz_match_dense_single_gate():
    for theta in (-1.2, 0.0, 0.9, np.pi):
        for kind in ("rx", "rz"):
            gates = [GateOp(kind, (0,), theta)]
            assert np.max(np.abs(run_circuit(1, gates) - run_dense(1, gates))) < 1e-12


def test_run_rows_rejects_mismatched_angle_matrix():
    with pytest.raises(ValueError):
        run_rows(2, [GateOp("h", (0,)), GateOp("ry", (1,), 0.2)], np.zeros((3, 1)))
    with pytest.raises(ValueError):
        run_rows(2, [GateOp("h", (2,))], np.zeros((1, 1)))  # target out of range


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


# ----------------------------------------------------------- compiled layers

LAYER_KINDS = {"column": {"h", "rx", "ry"}, "diagonal": {"rz", "zz"}, "permutation": {"cnot"}}


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(1, 8), st.integers(0, 2**32 - 1), st.booleans())
def test_compiled_layers_cover_every_gate_once_in_order(n, n_runs, seed, noisy):
    gates = layered_gate_list(n, n_runs, np.random.default_rng(seed))
    channel = NoiseChannel(0.1) if noisy else None
    program = compile_circuit(n, gates, channel)
    # under a channel each gate layer is followed by exactly one channel step
    layers = program[::2] if noisy else program
    steps = program[1::2] if noisy else ()
    assert len(program) == len(layers) + len(steps)
    assert all(layer.kind != "channel" for layer in layers)
    assert all(step.kind == "channel" and step.gates == step.deriv == () for step in steps)
    # a density row runs the doubled gate list: a layer runs its ket gates,
    # then their conjugate copies, each copy on its ket gate's angle column
    runs = [list(layer.gates[:len(layer.gates) // 2] if noisy else layer.gates)
            for layer in layers]
    assert [i for run in runs for i in run] == list(range(len(gates)))
    for k, (layer, run) in enumerate(zip(layers, runs)):
        assert {gates[i].kind for i in run} <= LAYER_KINDS[layer.kind]
        targets = [q for i in run for q in gates[i].targets]
        # the channel step acts as after each gate, so under a channel no two
        # gates of a layer may share a qubit; a column never may
        if noisy or layer.kind == "column":
            assert len(targets) == len(set(targets)), (layer.kind, targets)
        assert list(layer.gates) == run * (2 if noisy else 1)
        assert sorted(layer.deriv) == [i for i in run if gates[i].kind in ROTATION_KINDS]
        if noisy:  # on the layer's ket targets, in gate order
            assert steps[k].qubits == tuple(targets)
    # greedy: a layer ends only where the next gate could not join it
    for k in range(1, len(layers)):
        if layers[k - 1].kind == layers[k].kind:
            assert noisy or layers[k].kind == "column"
            first = set(gates[runs[k][0]].targets)
            assert first & {q for i in runs[k - 1] for q in gates[i].targets}
    # a channel without depolarizing adds no step: it compiles the pure program
    assert compile_circuit(n, gates, NoiseChannel(0.0, 0.1)) is compile_circuit(n, gates)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 14), st.integers(1, 8), st.integers(0, 2**32 - 1), st.booleans())
def test_blocks_and_phase_groups_fit_one_aligned_chunk(n, n_runs, seed, noisy):
    # the same fixed chunk on every register: pure n <= 14, density rows n <= 7
    n = min(n, 7) if noisy else n
    gates = layered_gate_list(n, n_runs, np.random.default_rng(seed))
    channel, chunk = NoiseChannel(0.1) if noisy else None, qcae.statevector._BLOCK_QUBITS
    for layer in compile_circuit(n, gates, channel):
        if layer.kind == "diagonal":
            for cols, _ in layer.groups:  # a (2, ..., 2) table, one axis per bit
                assert cols.stop - cols.start <= 1 << chunk
        if layer.kind != "column":
            continue
        k = 0  # the blocks' coefficient columns read layer.deriv in order
        for d, lo, hi, coef in layer.blocks:
            low = lo.bit_length() - 1
            high = low + d.bit_length() - 2
            assert low // chunk == high // chunk and d * lo * hi == row_width(n, channel)
            qubits = []
            for column in coef.T:  # X or Y on one block qubit t, rows a -> a ^ 2^t
                t = int(np.flatnonzero(column.reshape(d, d)[0])[0]).bit_length() - 1
                gate = gates[layer.deriv[k]]
                assert gate.targets == (low + t,) and gate.kind in ("rx", "ry")
                qubits.append(low + t)
                k += 1
            assert qubits == sorted(qubits) and qubits[0] == low and qubits[-1] == high
        assert k == len(layer.deriv)


@pytest.mark.parametrize("p", [0.05, 0.5, 1.0])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_channel_step_is_self_adjoint(n, p):
    # the pullback applies the step to the costate as the forward did to the
    # state, which is right only if <a, D b> == <D a, b>
    rng = np.random.default_rng(10 * n + int(10 * p))
    wall = [GateOp("h", (q,)) for q in rng.permutation(n)]
    step = compile_circuit(n, wall, NoiseChannel(p))[-1]
    assert step.kind == "channel" and sorted(step.qubits) == list(range(n))
    a, b = (rng.normal(size=(4, 4**n)) + 1j * rng.normal(size=(4, 4**n)) for _ in range(2))
    d_a, d_b = step.apply(a.copy(), None), step.apply(b.copy(), None)
    assert not np.allclose(d_a, a)
    assert np.array_equal(step.apply(a.copy(), None, inverse=True), d_a)  # it ignores inverse
    for row_a, row_b, row_d_a, row_d_b in zip(a, b, d_a, d_b):
        assert abs(np.vdot(row_a, row_d_b) - np.vdot(row_d_a, row_b)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 0.05, 1.0]))
def test_wide_layers_match_dense_oracles(n, n_runs, seed, p):
    # runs of one kind fill the layers that gate_rows' random kinds seldom make;
    # density rows square the register, so noisy runs take n <= 3
    n = min(n, 3) if p > 0 else n
    rng = np.random.default_rng(seed)
    gates = layered_gate_list(n, n_runs, rng)
    angles = rng.uniform(-2 * np.pi, 2 * np.pi, (3, len(gates)))
    channel = NoiseChannel(p) if p > 0 else None
    rows = run_rows(n, gates, angles, channel)
    for row, theta in zip(rows, angles):
        ops = bound_ops(gates, theta)
        if channel is None:
            assert np.max(np.abs(row - run_dense(n, ops))) < 1e-12
        else:
            rho = run_dense_mixed(n, ops, p)
            assert np.max(np.abs(row.reshape(2**n, 2**n).T - rho)) < 1e-12


def test_a_second_run_of_the_same_gates_compiles_nothing():
    template = family_template("c", 4, 2)
    rng = np.random.default_rng(3)
    for channel in (None, NoiseChannel(0.01)):
        run_rows(4, template.gates, template.gate_angles(rng.uniform(size=(2, 16))), channel)
        before = qcae.statevector._compile.cache_info()
        # other angles, another row count, the sweep and a bound copy of the gates
        angles = template.gate_angles(rng.uniform(size=(25, 16)))
        run_rows(4, template.gates, angles, channel)
        z_and_pullback(4, template.gates, angles, channel)[1](rng.normal(size=(25, 4)))
        if channel is None:
            run_circuit(4, template.bind(rng.uniform(size=16)))
        after = qcae.statevector._compile.cache_info()
        assert after.misses == before.misses and after.hits > before.hits
