"""Dense-oracle derivations, round equivalence, fault injection."""

import numpy as np
import pytest

import qpurify.oracle as oracle
from qpurify.bell import ATOL, PAULI_LABEL_SHIFT, bcnot_map, bell_projector, rotation_step3
from qpurify.errors import DegenerateRoundError
from qpurify.flags import FLAG_UPDATE_TABLE
from qpurify.noise import NoiseModel
from qpurify.oracle import (
    build_protocol_unitaries,
    derive_bcnot_table,
    derive_flag_update_table,
    derive_rotation_table,
    derive_two_sided_shift_table,
    oracle_one_round,
    run_conformance_checks,
)
from qpurify.recurrence import BEFORE_BCNOT, BEFORE_ROTATION, SubensembleState, one_round


class TestUnitaries:
    def test_unitarity(self):
        ops = build_protocol_unitaries()
        for name, u in ops.items():
            dim = u.shape[0]
            assert np.max(np.abs(u @ u.conj().T - np.eye(dim))) < ATOL, name

    def test_rotation_moves_phi_minus_to_psi_minus(self):
        u = build_protocol_unitaries()["rotation_pair"]
        rho = u @ bell_projector(0b10) @ u.conj().T
        assert np.max(np.abs(rho - bell_projector(0b11))) < ATOL

    def test_bcnot_is_an_involution(self):
        u = build_protocol_unitaries()["bcnot"]
        assert np.max(np.abs(u @ u - np.eye(16))) < ATOL


class TestDerivedTables:
    def test_rotation_table(self):
        derived = derive_rotation_table()
        for label in range(4):
            assert derived[label] == rotation_step3(label)

    def test_bcnot_table(self):
        derived = derive_bcnot_table()
        for src in range(4):
            for tgt in range(4):
                assert tuple(derived[src, tgt]) == bcnot_map(src, tgt)

    def test_two_sided_shift_table(self):
        derived = derive_two_sided_shift_table()
        for label in range(4):
            for event in range(16):
                expected = label ^ PAULI_LABEL_SHIFT[event >> 2] ^ PAULI_LABEL_SHIFT[event & 3]
                assert derived[label, event] == expected

    def test_flag_update_table_derivation(self):
        assert np.array_equal(derive_flag_update_table(), FLAG_UPDATE_TABLE)


class TestOracleRound:
    def test_noiseless_pure_input(self):
        state = SubensembleState.from_bell_probs([1, 0, 0, 0])
        out, keep = oracle_one_round(state, NoiseModel.identity())
        assert keep == pytest.approx(1.0, abs=1e-12)
        assert out.p[0, 0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("placement", [BEFORE_ROTATION, BEFORE_BCNOT])
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_engine(self, placement, seed):
        rng = np.random.default_rng(seed)
        state = SubensembleState(rng.dirichlet(np.ones(16)).reshape(4, 4))
        noise = NoiseModel(rng.dirichlet(np.ones(16)))
        engine_state, engine_keep = one_round(state, noise, placement)
        oracle_state, oracle_keep = oracle_one_round(state, noise, placement)
        assert abs(engine_keep - oracle_keep) < 1e-10
        assert np.max(np.abs(engine_state.p - oracle_state.p)) < 1e-10

    def test_keep_probability_in_unit_interval(self):
        rng = np.random.default_rng(99)
        state = SubensembleState(rng.dirichlet(np.ones(16)).reshape(4, 4))
        noise = NoiseModel.from_uniform_residual(0.8)
        _, keep = oracle_one_round(state, noise)
        assert 0.0 < keep <= 1.0 + 1e-12

    def test_degenerate_raises(self):
        f = np.zeros(16)
        f[1] = 1.0  # always flip the target pair's amplitude
        state = SubensembleState.from_bell_probs([1, 0, 0, 0])
        with pytest.raises(DegenerateRoundError):
            oracle_one_round(state, NoiseModel(f))


class TestConformance:
    def test_pristine_build_passes(self):
        report = run_conformance_checks(round_samples=6, seed=3)
        assert report.ok, report.lines()

    def test_mutated_flag_table_fails_naming_entry(self, monkeypatch):
        broken = FLAG_UPDATE_TABLE.copy()
        broken[2, 1] = 0b10  # normative entry is (11)
        monkeypatch.setattr(oracle, "FLAG_UPDATE_TABLE", broken)
        report = run_conformance_checks(round_samples=0)
        failing = [c for c in report.checks if not c.passed]
        assert len(failing) == 1
        assert "flag combination" in failing[0].name
        assert "row 10" in failing[0].detail and "column 01" in failing[0].detail

    def test_flag_table_argument_is_checked_in_place_of_the_shipping_table(self):
        broken = FLAG_UPDATE_TABLE.copy()
        broken[2, 1] = 0b10
        report = run_conformance_checks(round_samples=1, flag_table=broken)
        failing = [c.name for c in report.checks if not c.passed]
        assert failing == ["flag combination table vs label-algebra derivation"]

    @pytest.mark.parametrize("side", ["control", "target"])
    def test_mutated_shipping_shift_table_fails(self, monkeypatch, side):
        # the tables event_cell_table composes the round from, not a copy of the formula
        name = f"EVENT_{side.upper()}_SHIFTS"
        broken = getattr(oracle, name).copy()
        # events 1 and 2 differ in nu only, events 4 and 8 in mu only
        broken[[1, 2]] = broken[[2, 1]]
        broken[[4, 8]] = broken[[8, 4]]
        monkeypatch.setattr(oracle, name, broken)
        report = run_conformance_checks(round_samples=0)
        failing = [c.name for c in report.checks if not c.passed]
        assert failing == [f"{side}-pair event shifts vs dense conjugation"]

    def test_mutated_bcnot_breaks_bijection(self, monkeypatch):
        def broken(src, tgt):
            out_src, _ = bcnot_map(src, tgt)
            # drop the amplitude propagation: outputs collide
            return out_src, tgt | (src & 1)

        monkeypatch.setattr(oracle, "bcnot_map", broken)
        report = run_conformance_checks(round_samples=0)
        names = {c.name for c in report.checks if not c.passed}
        assert any("bijection" in n for n in names)
        assert any("BCNOT label map vs dense" in n for n in names)
