"""Parameter-shift rule against analytics and finite differences, and the
adjoint sweep (the pullback of z_and_pullback times slot_map) against the
parameter-shift chain."""
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import qcae
import qcae.gradient
from qcae.ansatz import CircuitTemplate, family_template
from qcae.gradient import QuantumJacobian, chain_loss_gradient, psr_gradient
from qcae.statevector import (GATE_KINDS, ROTATION_KINDS, GateOp, NoiseChannel, measure_all_z,
                              measure_rows_z, run_circuit, run_rows, z_and_pullback)

from oracles import fd_jacobian, layered_gate_list, peak_bytes


def single_ry_template() -> CircuitTemplate:
    return CircuitTemplate(
        n_qubits=1, p=1, family="a",
        gates=(GateOp("ry", (0,), slot=0),),
    )


def template_forward(template, params):
    return measure_all_z(run_circuit(template.n_qubits, template.bind(params)))


# ------------------------------------------------------------- single gate

def test_single_ry_gradient_is_minus_sine():
    jac = psr_gradient(single_ry_template(), [0.7])
    assert np.isclose(jac.entries[0, 0], -np.sin(0.7), atol=1e-12)
    assert np.isclose(jac.forward[0], np.cos(0.7), atol=1e-12)
    fd = fd_jacobian(lambda p: template_forward(single_ry_template(), p), [0.7])
    assert np.isclose(jac.entries[0, 0], fd[0, 0], atol=1e-5)


def test_single_ry_gradient_vanishes_at_zero():
    jac = psr_gradient(single_ry_template(), [0.0])
    assert abs(jac.entries[0, 0]) < 1e-12


def test_qaoa_two_qubit_jacobian_matches_finite_differences():
    template = family_template("ours", 2, 1)
    rng = np.random.default_rng(0)
    params = rng.uniform(0, 2 * np.pi, 2)
    jac = psr_gradient(template, params)
    fd = fd_jacobian(lambda p: template_forward(template, p), params)
    assert np.max(np.abs(jac.entries - fd)) < 1e-5


def test_psr_exactness_small_grid():
    rng = np.random.default_rng(17)
    for family in ("a", "b", "c", "ours"):
        for n in (2, 3):
            for p in (1, 2):
                template = family_template(family, n, p)
                for _ in range(3):
                    params = rng.uniform(0, 2 * np.pi, template.slot_count)
                    jac = psr_gradient(template, params)
                    fd = fd_jacobian(lambda v: template_forward(template, v), params)
                    assert np.max(np.abs(jac.entries - fd)) < 1e-5, (family, n, p)


def test_benchmark_psr_check_runs_through_top_level_names():
    # perfbench/workloads.py check_psr reaches exactly these names and reports
    # itself absent, not failed, once one of them is gone
    template = qcae.family_template("c", 4, 2)
    theta = np.random.default_rng(0).uniform(0.0, 2 * np.pi, template.slot_count)
    jac = qcae.psr_gradient(template, theta).entries

    def expect(params):
        return qcae.measure_all_z(qcae.run_circuit(4, template.bind(params)))

    assert jac.shape == (4, template.slot_count)
    assert np.max(np.abs(jac - fd_jacobian(expect, theta))) <= 1e-7


def test_execution_count_bookkeeping():
    # one-gate-per-slot families: exactly 2 * |params| + 1 executions
    for family in ("a", "b", "c"):
        template = family_template(family, 3, 2)
        jac = psr_gradient(template, np.zeros(template.slot_count))
        assert jac.n_executions == 2 * template.slot_count + 1
    # shared-slot QAOA: two executions per bound gate occurrence plus forward
    template = family_template("ours", 3, 2)
    occurrences = sum(g.slot is not None for g in template.gates)
    jac = psr_gradient(template, np.zeros(2 * 2))
    assert occurrences == 2 * (3 + 3)  # per layer: 3 ring edges + 3 mixers
    assert jac.n_executions == 2 * occurrences + 1


def test_shift_records_stay_bounded():
    # family b binds one gate per slot at scale 1, so each entry is one
    # (f_plus - f_minus) / 2 with both f in [-1, 1]
    template = family_template("b", 2, 2)
    rng = np.random.default_rng(4)
    jac = psr_gradient(template, rng.uniform(0, 2 * np.pi, template.slot_count))
    assert jac.entries.shape == (2, template.slot_count)
    assert np.all(np.abs(jac.entries) <= 1.0 + 1e-12)


@pytest.mark.parametrize("family", ["c", "ours"])
def test_batched_jacobian_equals_one_call_per_vector(family):
    template = family_template(family, 3, 2)
    rng = np.random.default_rng(6)
    batch = rng.uniform(0, 2 * np.pi, (4, template.slot_count))
    jac = psr_gradient(template, batch)
    singles = [psr_gradient(template, theta) for theta in batch]
    assert np.array_equal(jac.entries, np.stack([s.entries for s in singles]))
    assert np.array_equal(jac.forward, np.stack([s.forward for s in singles]))
    assert jac.n_executions == sum(s.n_executions for s in singles)
    downstream = rng.normal(size=(4, 3))
    assert np.array_equal(chain_loss_gradient(jac, downstream),
                          np.stack([chain_loss_gradient(s, d) for s, d in zip(singles, downstream)]))


@pytest.mark.parametrize("depolarizing", [0.0, 0.05])
def test_row_blocks_leave_the_jacobian_unchanged(monkeypatch, depolarizing):
    template = family_template("c", 3, 2)
    channel = NoiseChannel(depolarizing_prob=depolarizing)
    batch = np.random.default_rng(7).uniform(0, 2 * np.pi, (3, template.slot_count))
    whole = psr_gradient(template, batch, channel)
    monkeypatch.setattr(qcae.gradient, "PSR_BLOCK_ENTRIES", 1)  # one row per block
    rows = psr_gradient(template, batch, channel)
    # the readout product of a one-row block may round differently in the last bit
    np.testing.assert_allclose(rows.entries, whole.entries, rtol=0, atol=1e-15)
    np.testing.assert_allclose(rows.forward, whole.forward, rtol=0, atol=1e-15)
    assert rows.n_executions == whole.n_executions == 3 * (2 * template.slot_count + 1)


def test_noisy_psr_memory_does_not_grow_with_the_batch():
    # family c, n=5: 41 rows of 4^5-entry density matrices per vector
    template = family_template("c", 5, 2)
    channel = NoiseChannel(depolarizing_prob=0.01)
    batch = np.random.default_rng(8).uniform(0, 2 * np.pi, (16, template.slot_count))
    small = peak_bytes(psr_gradient, template, batch[:2], channel)
    # in one run_rows call the 16-vector batch peaked at about 7x the 2-vector one
    assert peak_bytes(psr_gradient, template, batch, channel) <= 1.5 * small


def test_noisy_jacobian_matches_finite_differences_of_exact_expectation():
    # the depolarizing channel depends on no angle, so PSR stays exact
    template = family_template("c", 3, 2)
    channel = NoiseChannel(depolarizing_prob=0.05, readout_flip_prob=0.02)

    def noisy_z(params):
        rows = run_rows(3, template.gates, template.gate_angles(params)[None], channel)
        return measure_rows_z(rows, channel)[0]

    params = np.random.default_rng(23).uniform(0, 2 * np.pi, template.slot_count)
    jac = psr_gradient(template, params, channel=channel)
    assert np.allclose(jac.forward, noisy_z(params), rtol=0, atol=1e-14)
    assert np.max(np.abs(jac.entries - fd_jacobian(noisy_z, params))) < 1e-8
    assert np.max(np.abs(jac.entries - psr_gradient(template, params).entries)) > 1e-2


def test_param_length_validation():
    with pytest.raises(ValueError):
        psr_gradient(family_template("a", 2, 1), [0.1])


# ------------------------------------------------------------- chain rule

def test_chain_identity_jacobian_passes_downstream_through():
    jac = QuantumJacobian(np.eye(2), np.zeros(2), 0)
    assert np.allclose(chain_loss_gradient(jac, [0.3, -0.1]), [0.3, -0.1])


def test_chain_zero_downstream_gives_zero():
    jac = QuantumJacobian(np.arange(6.0).reshape(2, 3), np.zeros(2), 0)
    assert np.allclose(chain_loss_gradient(jac, [0.0, 0.0]), np.zeros(3))


def test_chain_matches_matrix_vector_product():
    rng = np.random.default_rng(8)
    entries = rng.normal(size=(4, 2))
    downstream = rng.normal(size=4)
    expected = entries.T @ downstream
    assert np.allclose(chain_loss_gradient(QuantumJacobian(entries, np.zeros(4), 0), downstream),
                       expected)


def test_chain_is_linear_in_downstream():
    rng = np.random.default_rng(21)
    entries = rng.normal(size=(3, 5))
    jac = QuantumJacobian(entries, np.zeros(3), 0)
    d1, d2 = rng.normal(size=3), rng.normal(size=3)
    a, b = 0.6, -1.7
    combined = chain_loss_gradient(jac, a * d1 + b * d2)
    split = a * chain_loss_gradient(jac, d1) + b * chain_loss_gradient(jac, d2)
    assert np.max(np.abs(combined - split)) < 1e-12


def test_chain_dimension_mismatch():
    with pytest.raises(ValueError):
        chain_loss_gradient(QuantumJacobian(np.eye(2), np.zeros(2), 0), [1.0, 2.0, 3.0])



# ----------------------------------------- gate-level and adjoint sweeps

angles = st.floats(-2 * np.pi, 2 * np.pi, allow_subnormal=False)


@st.composite
def templated_batches(draw, max_n):
    """(template, (M, slot_count) params, (M, n) downstream): every gate
    kind, rotations either fixed or slotted, slots shared at any scale."""
    n = draw(st.integers(1, max_n))
    kinds = GATE_KINDS if n > 1 else ("h", "rx", "ry", "rz")
    gates, slot_ids = [], {}
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=14)):
        targets = tuple(draw(st.permutations(range(n)))[:2 if kind in ("cnot", "zz") else 1])
        if kind not in ROTATION_KINDS:
            gates.append(GateOp(kind, targets))
        elif draw(st.booleans()):
            gates.append(GateOp(kind, targets, draw(angles)))
        else:
            # renumber drawn slots 0..k-1 in order of first use
            slot = slot_ids.setdefault(draw(st.integers(0, 3)), len(slot_ids))
            gates.append(GateOp(kind, targets, slot=slot,
                                scale=draw(st.sampled_from([1.0, 2.0, -0.5, 1.7]))))
    assume(slot_ids)
    template = CircuitTemplate(n, 1, "a", tuple(gates))
    m = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (template, rng.uniform(-2 * np.pi, 2 * np.pi, (m, len(slot_ids))),
            rng.uniform(-2.0, 2.0, (m, n)))


def assert_columns_match_central_differences(template, params, d_z, channel):
    # every gate column, fixed-angle rotations included, which slot_map discards
    n, gates, angles = template.n_qubits, template.gates, template.gate_angles(params)
    z, pullback = z_and_pullback(n, gates, angles, channel)
    got = pullback(d_z)
    assert got.shape == angles.shape
    assert np.array_equal(z, measure_rows_z(run_rows(n, gates, angles, channel), channel))
    assert np.array_equal(pullback(d_z), got)  # the sweep leaves the kept states as they were

    def loss(rows):
        return np.sum(measure_rows_z(run_rows(n, gates, rows, channel), channel) * d_z, axis=1)

    h = 1e-5
    for i, gate in enumerate(gates):
        if gate.kind not in ROTATION_KINDS:
            assert np.all(got[:, i] == 0.0), gate
            continue
        step = np.zeros_like(angles)
        step[:, i] = h
        fd = (loss(angles + step) - loss(angles - step)) / (2 * h)
        assert np.max(np.abs(got[:, i] - fd)) <= 1e-7, gate


@settings(max_examples=100, deadline=None)
@given(templated_batches(max_n=4))
def test_angle_gradient_matches_central_differences_pure(case):
    assert_columns_match_central_differences(*case, None)


@settings(max_examples=100, deadline=None)
@given(templated_batches(max_n=3), st.floats(0.0, 1.0), st.floats(0.0, 0.45))
def test_angle_gradient_matches_central_differences_noisy(case, p, flip):
    assert_columns_match_central_differences(*case, NoiseChannel(p, flip))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), st.integers(0, 2**32 - 1),
       st.sampled_from([None, 0.05, 0.7]))
def test_angle_gradient_of_wide_layers_matches_central_differences(n, n_runs, seed, p):
    # runs of one kind make layers that take many derivatives from one
    # (psi, lambda) pair: whole columns, phase runs with overlapping ZZ targets
    n = min(n, 3) if p else n
    rng = np.random.default_rng(seed)
    gates = layered_gate_list(n, n_runs, rng)
    slots = sum(g.kind in ROTATION_KINDS for g in gates)
    assume(slots)
    template = CircuitTemplate(n, 1, "a", tuple(gates))
    channel = NoiseChannel(p, 0.1) if p else None
    assert_columns_match_central_differences(
        template, rng.uniform(-2 * np.pi, 2 * np.pi, (2, slots)), rng.uniform(-2, 2, (2, n)),
        channel)


def test_angle_gradient_checks_d_z():
    gates = [GateOp("h", (0,)), GateOp("ry", (1,), 0.3)]
    pullback = z_and_pullback(2, gates, np.zeros((3, 2)))[1]
    with pytest.raises(ValueError, match="downstream gradient d_z"):
        pullback(np.ones((1, 2)))


@pytest.mark.parametrize("angles", [np.zeros((3, 5)), np.zeros((3, 1)), np.zeros(2)],
                         ids=["extra columns", "missing column", "one vector"])
def test_z_and_pullback_checks_the_angle_matrix(angles):
    # the check run_rows makes, before any layer runs
    gates = [GateOp("ry", (0,), slot=0), GateOp("ry", (1,), slot=1)]
    with pytest.raises(ValueError, match=r"need an \(M, 2\) angle matrix, got shape"):
        z_and_pullback(2, gates, angles)[1](np.ones((3, 2)))


def test_angle_gradient_refuses_an_out_of_range_target():
    gates = [GateOp("h", (0,)), GateOp("ry", (2,), 0.3)]
    angles = np.zeros((1, 2))
    with pytest.raises(ValueError, match="out of range"):
        z_and_pullback(2, gates, angles)
    with pytest.raises(ValueError, match="out of range"):
        z_and_pullback(2, gates, angles, NoiseChannel(0.05))


def assert_sweep_matches_psr_chain(template, params, downstream, channel):
    jac = psr_gradient(template, params, channel)
    # a jacobian that is identically zero cannot tell a right sweep from a wrong one
    assume(np.max(np.abs(jac.entries)) > 1e-6)
    pullback = z_and_pullback(template.n_qubits, template.gates, template.gate_angles(params),
                              channel)[1]
    got = pullback(downstream) @ template.slot_map
    assert got.shape == params.shape
    assert np.max(np.abs(got - chain_loss_gradient(jac, downstream))) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(templated_batches(max_n=4))
def test_adjoint_sweep_matches_psr_chain_pure(case):
    assert_sweep_matches_psr_chain(*case, None)


@settings(max_examples=150, deadline=None)
@given(templated_batches(max_n=3), st.floats(0.0, 1.0), st.floats(0.0, 0.45))
def test_adjoint_sweep_matches_psr_chain_noisy(case, p, flip):
    assert_sweep_matches_psr_chain(*case, NoiseChannel(p, flip))
