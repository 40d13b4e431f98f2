"""Circuit templates: structure, slot laws, and oracle-checked execution."""
import numpy as np
import pytest

from qcae.ansatz import (
    FAMILIES,
    CircuitTemplate,
    family_template,
    normalize_to_angle,
    qaoa_template,
    ring_edges,
)
from qcae.statevector import GateOp, measure_all_z, run_circuit

from oracles import dense_all_z, run_dense


# ---------------------------------------------------------- normalize_to_angle

def test_normalize_endpoints_and_midpoint():
    out = normalize_to_angle([0.0, 0.5, 1.0], 0.0, 1.0)
    assert np.allclose(out, [0.0, np.pi, 2 * np.pi])


def test_normalize_clamps_below():
    assert np.allclose(normalize_to_angle([-3.0], -1.0, 1.0), [0.0])


def test_normalize_quarter():
    assert np.allclose(normalize_to_angle([0.25], 0.0, 1.0), [np.pi / 2])


def test_normalize_rejects_bad_range():
    with pytest.raises(ValueError):
        normalize_to_angle([0.0], 1.0, 1.0)


# ------------------------------------------------------------------ QAOA

def test_qaoa_identity_layers_leave_uniform_superposition():
    state = run_circuit(2, qaoa_template(2, 1).bind([0.0, 0.0]))
    assert np.allclose(state, np.full(4, 0.5), atol=1e-12)


def test_qaoa_mixer_only_keeps_zero_expectations():
    # |+> is an X eigenstate, so an RX mixer cannot move <Z> off zero
    gates = qaoa_template(2, 1).bind([0.0, 0.3])
    state = run_circuit(2, gates)
    assert np.allclose(measure_all_z(state), [0.0, 0.0], atol=1e-12)
    dense = run_dense(2, gates)
    assert np.allclose(dense_all_z(dense, 2), [0.0, 0.0], atol=1e-12)


def test_qaoa_matches_dense_oracle():
    gates = qaoa_template(2, 1).bind([0.4, 0.3])
    kernel = run_circuit(2, gates)
    dense = run_dense(2, gates)
    assert np.max(np.abs(kernel - dense)) < 1e-10
    assert np.allclose(measure_all_z(kernel), dense_all_z(dense, 2), atol=1e-10)


def test_qaoa_gate_count_example():
    gates = qaoa_template(2, 2).bind([0.1, 0.2, 0.3, 0.4])
    assert len(gates) == 2 + 2 * (1 + 2)  # H wall + per layer one ZZ, two RX


def test_qaoa_zero_parameters_zero_expectations_all_sizes():
    for n in (2, 3, 4):
        for p in (1, 2, 3):
            state = run_circuit(n, qaoa_template(n, p).bind(np.zeros(2 * p)))
            assert np.allclose(measure_all_z(state), np.zeros(n), atol=1e-12)


def test_ring_edges_shapes():
    assert ring_edges(2) == [(0, 1)]
    assert ring_edges(3) == [(0, 1), (1, 2), (2, 0)]
    assert ring_edges(1) == []


def test_qaoa_rejects_bad_p_and_lengths():
    with pytest.raises(ValueError):
        qaoa_template(2, 0)
    with pytest.raises(ValueError):
        qaoa_template(2, 2).bind([0.1, 0.2, 0.3])  # needs 2 gammas + 2 betas


# ---------------------------------------------------------------- families

def test_family_a_zero_params_is_identity_on_ground_state():
    state = run_circuit(2, family_template("a", 2, 1).bind([0.0, 0.0]))
    assert np.allclose(state, [1, 0, 0, 0], atol=1e-12)


def test_family_b_pi_rotation_propagates_through_chain():
    gates = family_template("b", 2, 1).bind([np.pi, 0.0, 0.0, 0.0])
    state = run_circuit(2, gates)
    probs = np.abs(state) ** 2
    assert np.isclose(probs[3], 1.0, atol=1e-12)
    dense = run_dense(2, gates)
    assert np.isclose(np.abs(dense[3]) ** 2, 1.0, atol=1e-12)


def test_family_slot_counts():
    per_layer = {"a": lambda n: n, "b": lambda n: 2 * n, "c": lambda n: 2 * n,
                 "ours": lambda n: 2}
    for family in FAMILIES:
        for n in (2, 3, 4):
            for p in (1, 2, 5):
                template = family_template(family, n, p)
                expected = p * per_layer[family](n) if family != "ours" else 2 * p
                assert template.slot_count == expected
                # the gates' slot indices cover exactly 0..count-1
                slots = {g.slot for g in template.gates if g.slot is not None}
                assert sorted(slots) == list(range(expected))
                # binding the right length works, anything else fails
                template.bind(np.zeros(expected))
                with pytest.raises(ValueError):
                    template.bind(np.zeros(expected + 1))
                if expected > 0:
                    with pytest.raises(ValueError):
                        template.bind(np.zeros(expected - 1))


def test_bound_templates_preserve_norm():
    rng = np.random.default_rng(1)
    for family in FAMILIES:
        for n in (2, 3, 4):
            template = family_template(family, n, 3)
            params = rng.uniform(0, 2 * np.pi, template.slot_count)
            state = run_circuit(n, template.bind(params))
            assert abs(np.sum(np.abs(state) ** 2) - 1.0) < 1e-10


def test_families_match_dense_oracle():
    rng = np.random.default_rng(2)
    for family in FAMILIES:
        for n in (2, 3):
            template = family_template(family, n, 2)
            params = rng.uniform(-np.pi, np.pi, template.slot_count)
            gates = template.bind(params)
            assert np.max(np.abs(run_circuit(n, gates) - run_dense(n, gates))) < 1e-10


def test_binding_is_deterministic():
    params = np.linspace(0.1, 0.9, 8)
    a = family_template("b", 2, 2).bind(params)
    b = family_template("b", 2, 2).bind(params)
    assert a == b


def test_family_validation():
    with pytest.raises(ValueError):
        family_template("d", 2, 1)
    with pytest.raises(ValueError):
        family_template("a", 2, 0)


def test_template_slots_must_be_zero_to_k_minus_one():
    for slots in ((3,), (0, 2), (1, 1), (-1,)):
        gates = tuple(GateOp("ry", (q,), slot=k) for q, k in enumerate(slots))
        with pytest.raises(ValueError, match="slots"):
            CircuitTemplate(len(slots), 1, "a", gates)
    shared = (GateOp("ry", (0,), slot=1), GateOp("rz", (1,), slot=0), GateOp("rx", (0,), slot=1))
    assert CircuitTemplate(2, 1, "a", shared).slot_count == 2


def test_gate_angles_rows_match_bind():
    template = qaoa_template(3, 2)  # each gamma feeds three ZZ gates at scale 2
    rng = np.random.default_rng(3)
    batch = rng.uniform(0, 2 * np.pi, (3, template.slot_count))
    rows = template.gate_angles(batch)
    assert rows.shape == (3, len(template.gates))
    for params, row in zip(batch, rows):
        assert np.array_equal(row, template.gate_angles(params))
        bound = template.bind(params)
        assert [0.0 if g.angle is None else g.angle for g in bound] == list(row)
    with pytest.raises(ValueError):
        template.gate_angles(np.zeros((2, 3, template.slot_count)))
