"""Circuit templates: structure, slot laws, and oracle-checked execution."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcae.ansatz import (
    FAMILIES,
    CircuitTemplate,
    family_template,
    qaoa_template,
    ring_edges,
)
from qcae.model import QuantumLatent
from qcae.statevector import (GateOp, NoiseChannel, measure_all_z, measure_rows_z, run_circuit,
                              run_rows)

from oracles import dense_all_z, run_dense


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


def assert_qaoa_latent_vanishes(n, p, seed, channel):
    # the H wall, ring ZZ cost, RX mixer and depolarizing all commute with
    # the global bit flip, which anticommutes with every Z_q
    template = family_template("ours", n, p)
    params = np.random.default_rng(seed).uniform(-2 * np.pi, 2 * np.pi, (4, template.slot_count))
    rows = run_rows(n, template.gates, template.gate_angles(params), channel)
    assert np.max(np.abs(measure_rows_z(rows, channel))) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_qaoa_latent_vanishes_on_random_parameters_pure(n, p, seed):
    assert_qaoa_latent_vanishes(n, p, seed, None)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.integers(1, 3), st.integers(0, 2**32 - 1),
       st.floats(0.0, 1.0), st.floats(0.0, 0.45))
def test_qaoa_latent_vanishes_on_random_parameters_noisy(n, p, seed, dep, flip):
    assert_qaoa_latent_vanishes(n, p, seed, NoiseChannel(dep, flip))


@pytest.mark.parametrize("n", range(2, 9))
def test_qaoa_latent_is_exactly_zero_pure(n):
    # the readout pairs every x with its global flip ~x, and the QAOA state
    # is flip-symmetric bit for bit, so each pair cancels exactly: == 0 with
    # no tolerance, at every n and whatever order the kernels summed in
    rng = np.random.default_rng(n)
    for p in (1, 2, 3):
        latent = QuantumLatent(family_template("ours", n, p))
        z = latent.forward(rng.normal(0.0, 2.0, (40, latent.template.slot_count)))
        assert np.count_nonzero(z) == 0, (n, p)
    wall = run_circuit(n, [GateOp("h", (q,)) for q in range(n)])
    assert np.count_nonzero(measure_all_z(wall)) == 0


@pytest.mark.parametrize("n", range(2, 6))
@pytest.mark.parametrize("depolarizing", [0.01, 0.3, 0.9])
def test_qaoa_latent_is_exactly_zero_noisy(n, depolarizing):
    rng = np.random.default_rng(n)
    channel = NoiseChannel(depolarizing, 0.1)
    for p in (1, 2, 3):
        latent = QuantumLatent(family_template("ours", n, p), channel=channel)
        z = latent.forward(rng.normal(0.0, 2.0, (20, latent.template.slot_count)))
        assert np.count_nonzero(z) == 0, (n, p)


def test_ring_edges_shapes():
    assert ring_edges(2) == [(0, 1)]
    assert ring_edges(3) == [(0, 1), (1, 2), (2, 0)]
    assert ring_edges(1) == []


def test_qaoa_slot_map_feeds_each_layer_from_one_slot():
    n, p = 4, 2
    template = qaoa_template(n, p)
    expected = np.zeros((n + 2 * n * p, 2 * p))  # the H wall reads no slot
    for k in range(p):
        start = n + 2 * n * k
        expected[start:start + n, k] = 2.0  # gamma_k feeds every ring edge at scale 2
        expected[start + n:start + 2 * n, p + k] = 2.0  # beta_k feeds every mixer
    assert np.array_equal(template.slot_map, expected)
    params = np.random.default_rng(3).uniform(0, 2 * np.pi, (3, 2 * p))
    assert np.array_equal(template.gate_angles(params), params @ expected.T)
    with pytest.raises(ValueError):
        template.slot_map[n, 0] = 1.0  # read-only


def test_qaoa_refuses_one_qubit():
    with pytest.raises(ValueError, match="ring has no edge"):
        qaoa_template(1, 1)


def test_qaoa_rejects_bad_p_and_lengths():
    with pytest.raises(ValueError):
        qaoa_template(2, 0)
    with pytest.raises(ValueError):
        qaoa_template(2, 2).bind([0.1, 0.2, 0.3])  # needs 2 gammas + 2 betas


def test_bind_refuses_a_batch():
    template = qaoa_template(2, 1)
    assert template.gate_angles(np.zeros((3, 2))).shape == (3, len(template.gates))
    with pytest.raises(ValueError, match=r"bind takes one parameter vector, got shape \(3, 2\)"):
        template.bind(np.zeros((3, 2)))


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


# one layer each, written out gate by gate; "RY1@3" is RY on qubit 1 from slot 3,
# "CX10" a CNOT with control 1 and target 0
FAMILY_LAYERS = {
    ("a", 2): ["RY0@0 RY1@1 CX01", "RY0@2 RY1@3 CX01"],
    ("a", 3): ["RY0@0 RY1@1 RY2@2 CX01 CX12", "RY0@3 RY1@4 RY2@5 CX01 CX12"],
    ("b", 2): ["RY0@0 RY1@1 RZ0@2 RZ1@3 CX01", "RY0@4 RY1@5 RZ0@6 RZ1@7 CX01"],
    ("b", 3): ["RY0@0 RY1@1 RY2@2 RZ0@3 RZ1@4 RZ2@5 CX01 CX12",
               "RY0@6 RY1@7 RY2@8 RZ0@9 RZ1@10 RZ2@11 CX01 CX12"],
    ("c", 2): ["RY0@0 RY1@1 CX01 CX10 RZ0@2 RZ1@3", "RY0@4 RY1@5 CX01 CX10 RZ0@6 RZ1@7"],
    ("c", 3): ["RY0@0 RY1@1 RY2@2 CX01 CX12 CX20 RZ0@3 RZ1@4 RZ2@5",
               "RY0@6 RY1@7 RY2@8 CX01 CX12 CX20 RZ0@9 RZ1@10 RZ2@11"],
}


def _gate_from_text(text: str) -> GateOp:
    if text.startswith("CX"):
        return GateOp("cnot", (int(text[2]), int(text[3])))
    qubit, slot = text[2:].split("@")
    return GateOp(text[:2].lower(), (int(qubit),), slot=int(slot))


@pytest.mark.parametrize("family, n", FAMILY_LAYERS)
def test_family_gate_sequences_at_p2(family, n):
    expected = [_gate_from_text(t) for layer in FAMILY_LAYERS[family, n] for t in layer.split()]
    assert list(family_template(family, n, 2).gates) == expected


@pytest.mark.parametrize("family, rotations, cnots", [
    ("a", 1, lambda n: n - 1), ("b", 2, lambda n: n - 1), ("c", 2, lambda n: n if n > 1 else 0)])
def test_family_slots_follow_gate_order(family, rotations, cnots):
    for n in range(1, 9):
        for p in range(1, 4):
            template = family_template(family, n, p)
            slots = [g.slot for g in template.gates if g.slot is not None]
            assert slots == list(range(len(slots)))
            assert template.slot_count == n * rotations * p
            assert sum(g.kind == "cnot" for g in template.gates) == cnots(n) * p


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
