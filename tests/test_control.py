import tracemalloc

import numpy as np
import pytest

from encloop import verify
from encloop.attack import AttackPlan, CovertAttacker
from encloop.backend import BackendConfig, context_create, hom_add, pad_slots
from encloop.control import (
    TANK_X0,
    TANK_XREF,
    LtiModel,
    SimTrace,
    controller_eval_encrypted,
    controller_eval_plain,
    encrypt_controller,
    plant_step,
    quadruple_tank,
    run_closed_loop,
    tank_controller,
)


@pytest.fixture
def model():
    return quadruple_tank()


@pytest.fixture
def ctrl():
    return tank_controller()


D = verify.lifted_dim(2, 2)  # block dim of the tank's lifted controller


def make_ctx(seed=1, slot_count=64, max_depth=16):
    return context_create(BackendConfig(slot_count=slot_count, max_depth=max_depth,
                                        seed=seed))


class TestPlantStep:
    def test_at_rest(self, model):
        x_next, y = plant_step(model, np.zeros(4), np.zeros(2))
        assert np.array_equal(x_next, np.zeros(4))
        assert np.array_equal(y, np.zeros(2))

    def test_direct_evaluation(self, model, ctrl):
        x = np.array([1.0, 1.0, 0.0, 0.0])
        x_next, y = plant_step(model, x, ctrl.u0)
        assert np.allclose(x_next, model.A @ x + model.B @ ctrl.u0, atol=1e-15)
        assert np.allclose(y, model.C @ x, atol=1e-15)

    def test_output_uses_pre_update_state(self):
        m = LtiModel(A=np.eye(2), B=np.zeros((2, 1)), C=np.eye(2))
        x = np.array([3.0, -1.0])
        x_next, y = plant_step(m, x, np.array([7.0]))
        assert np.array_equal(x_next, x)
        assert np.array_equal(y, x)

    def test_dimension_mismatch(self, model):
        with pytest.raises(ValueError):
            plant_step(model, np.zeros(3), np.zeros(2))


class TestControllerPlain:
    def test_offset_at_zero_output(self, ctrl):
        assert np.allclose(controller_eval_plain(ctrl, np.zeros(2)), [6.80, 7.76])

    def test_unit_measurement(self, ctrl):
        u = controller_eval_plain(ctrl, np.array([1.0, 0.0]))
        assert np.allclose(u, [6.80 - 11.545, 7.76 - 1.609], atol=1e-12)

    def test_affine_structure(self, ctrl):
        rng = np.random.default_rng(1)
        for _ in range(20):
            y1, y2 = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)
            lhs = controller_eval_plain(ctrl, y1 + y2) - ctrl.u0
            rhs = (controller_eval_plain(ctrl, y1) - ctrl.u0) \
                + (controller_eval_plain(ctrl, y2) - ctrl.u0)
            assert np.allclose(lhs, rhs, atol=1e-12)


class TestControllerEncrypted:
    def test_offset_at_zero(self, model, ctrl):
        ctx = make_ctx()
        enc_ctrl = encrypt_controller(ctx, ctrl)
        w = verify.lifted_input(np.zeros(2), ctrl.u0, D)
        out = controller_eval_encrypted(enc_ctrl, ctx.encrypt(pad_slots(w, 64)))
        assert np.allclose(ctx.decrypt(out)[:2], ctrl.u0, atol=1e-12)

    def test_random_oracle(self, model, ctrl):
        ctx = make_ctx()
        enc_ctrl = encrypt_controller(ctx, ctrl)
        rng = np.random.default_rng(2)
        before = ctx.op_counts["mul"]
        for _ in range(100):
            y = rng.uniform(-3, 3, 2)
            w = verify.lifted_input(y, ctrl.u0, D)
            out = controller_eval_encrypted(enc_ctrl, ctx.encrypt(pad_slots(w, 64)))
            assert np.max(np.abs(ctx.decrypt(out)[:2]
                                 - controller_eval_plain(ctrl, y))) < 1e-9
        # the lifted 4x4 block of [-K I] has nonzero wrapped diagonals
        # {0, 1, 2} only: 3 multiplies per evaluation
        assert ctx.op_counts["mul"] - before == 100 * 3

    @pytest.mark.parametrize("expansion", [1, 4])
    def test_one_evaluation_op_cost(self, ctrl, expansion):
        ctx = make_ctx()
        enc_ctrl = encrypt_controller(ctx, ctrl, expansion)
        w = np.tile(verify.lifted_input(np.ones(2), ctrl.u0, D), expansion)
        c = ctx.encrypt(pad_slots(w, 64))
        before = dict(ctx.op_counts)
        controller_eval_encrypted(enc_ctrl, c)
        spent = {op: ctx.op_counts[op] - before[op] for op in before}
        assert spent == {"rot": 3, "mul": 3, "add": 2, "enc": 0, "dec": 0}

    def test_tampering_shifts_by_gain(self, model, ctrl):
        ctx = make_ctx()
        pub = context_create(ctx.config, "attacker")
        enc_ctrl = encrypt_controller(ctx, ctrl)
        y = np.array([0.4, -0.2])
        delta = np.array([0.3, 0.1])
        w = verify.lifted_input(y, ctrl.u0, D)
        c = ctx.encrypt(pad_slots(w, 64))
        # delta on the measurement's slots of the block, nothing on u0's
        shift = verify.lifted_input(delta, np.zeros(2), D)
        c = hom_add(c, pub.encrypt(pad_slots(shift, 64)))
        out = ctx.decrypt(controller_eval_encrypted(enc_ctrl, c))[:2]
        assert np.allclose(out - controller_eval_plain(ctrl, y),
                           -ctrl.K @ delta, atol=1e-10)

    def test_wide_lift_stores_nonzero_diagonals_only(self, ctrl):
        # lambda=16 lift of the 4x4 block at 2^16 slots: a 64x64 matrix
        # padded to 65536, whose nonzero wrapped diagonals are {0, 1, 2};
        # no dense scan
        ctx = make_ctx(slot_count=2 ** 16, max_depth=4)
        enc_ctrl = encrypt_controller(ctx, ctrl, expansion=16)
        assert list(enc_ctrl.diagonals) == [0, 1, 2]

    def test_full_slot_lift_allocates_only_its_diagonals(self, ctrl):
        """lambda=1024 blocks fill 4096 slots. The lift is encoded from the
        4x4 block, so encryption allocates about its three diagonal
        ciphertexts (3 x 32 KiB), never the dense 4096 x 4096 replication
        (128 MiB)."""
        ctx = make_ctx(slot_count=4096, max_depth=4)
        tracemalloc.start()
        try:
            enc_ctrl = encrypt_controller(ctx, ctrl, expansion=1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert list(enc_ctrl.diagonals) == [0, 1, 2]
        assert peak < 8 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


class TestClosedLoop:
    def test_converges_to_setpoint(self, model, ctrl):
        trace = run_closed_loop(model, ctrl, TANK_X0, 200, pre_roll=20)
        assert np.max(np.abs(trace.x[-1] - TANK_XREF)) <= 0.05

    def test_convergence_step_is_deterministic(self, model, ctrl):
        trace = run_closed_loop(model, ctrl, TANK_X0, 400, pre_roll=20)
        errs = np.max(np.abs(np.array(trace.x) - TANK_XREF), axis=1)
        below = np.nonzero(errs <= 0.05)[0]
        k_star = int(trace.k[below[0]])
        # all later steps stay below too (convergent loop)
        assert np.all(errs[below[0]:] <= 0.05)
        trace2 = run_closed_loop(model, ctrl, TANK_X0, 400, pre_roll=20)
        errs2 = np.max(np.abs(np.array(trace2.x) - TANK_XREF), axis=1)
        assert int(trace2.k[np.nonzero(errs2 <= 0.05)[0][0]]) == k_star

    def test_attack_free_channel_transparency(self, model, ctrl):
        trace = run_closed_loop(model, ctrl, TANK_X0, 50, pre_roll=10)
        assert np.array_equal(np.array(trace.u), np.array(trace.u_c))
        assert np.array_equal(np.array(trace.y), np.array(trace.y_c))

    def test_encrypted_matches_plain(self, model, ctrl):
        plain = run_closed_loop(model, ctrl, TANK_X0, 200, pre_roll=20)
        enc = run_closed_loop(model, ctrl, TANK_X0, 200, pre_roll=20,
                              ctx=make_ctx())
        for fieldname in ("x", "u", "y", "u_c", "y_c"):
            a = np.array(getattr(plain, fieldname))
            b = np.array(getattr(enc, fieldname))
            assert np.max(np.abs(a - b)) < 1e-8

    def test_encrypted_needs_context(self, model, ctrl):
        """A verifier or a link acts on ciphertexts only; without a key
        context the loop refuses them instead of running a plain channel."""
        vctx = verify.setup(16, np.eye(4), 4, num_challenges=1)
        with pytest.raises(ValueError, match="key context"):
            run_closed_loop(model, ctrl, TANK_X0, 5, verifier=vctx)
        with pytest.raises(ValueError, match="key context"):
            run_closed_loop(model, ctrl, TANK_X0, 5, link=lambda k, y_cipher: None)

    def test_encrypted_attacker_needs_context(self, model, ctrl):
        """An attacker without a context cannot take a ciphertext into its
        own context: the encrypted loop refuses it before step 0."""
        plan = AttackPlan(schedule={0: np.array([1.0, 1.0])}, length=5, cooldown_len=4)
        attacker = CovertAttacker(model, plan)
        with pytest.raises(ValueError, match="attacker on an encrypted channel"):
            run_closed_loop(model, ctrl, TANK_X0, 5, attacker=attacker, ctx=make_ctx())
        assert attacker.ctx is None and len(run_closed_loop(
            model, ctrl, TANK_X0, 5, attacker=attacker)) == 5


class TestTrace:
    def test_append_keeps_float_arrays_and_converts_lists(self):
        trace = SimTrace()
        x, u, y = np.ones(4), np.zeros(2), np.arange(2.0)
        trace.append(0, x, u, y, [1, 2], [3.0, 4.0])
        assert trace.x[0] is x and trace.u[0] is u and trace.y[0] is y
        for got, want in ((trace.u_c[0], [1.0, 2.0]), (trace.y_c[0], [3.0, 4.0])):
            assert got.dtype == float and np.array_equal(got, want)

    @pytest.mark.parametrize("verified", [False, True], ids=["baseline", "verified"])
    def test_trace_holds_no_slot_width_buffer(self, model, ctrl, verified):
        """Every array a 4096-slot run records owns its data or views at most
        one lifted block, so the trace keeps no decrypt alive: neither the
        plant's u nor the controller's view is a slice of one."""
        slot_count = 4096
        verifier = (verify.setup(slot_count, verify.lift_affine(-ctrl.K), 4, 4)
                    if verified else None)
        trace = run_closed_loop(model, ctrl, TANK_X0, 3, pre_roll=1,
                                ctx=make_ctx(slot_count=slot_count), verifier=verifier)
        assert len(trace) == 4 and trace.verdict[-1] == ("ok" if verified else "n/a")
        for fieldname in ("x", "u", "y", "u_c", "y_c"):
            for a in getattr(trace, fieldname):
                assert a.base is None or a.base.size <= D, fieldname

    def test_csv_format(self, model, ctrl, tmp_path):
        trace = run_closed_loop(model, ctrl, TANK_X0, 5, pre_roll=2)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ("k,x1,x2,x3,x4,u1,u2,y1,y2,uc1,uc2,yc1,yc2,verdict")
        assert len(lines) == 8
        assert lines[1].startswith("-2,")
        assert lines[1].endswith(",n/a")

    def test_csv_deterministic(self, model, ctrl, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_closed_loop(model, ctrl, TANK_X0, 20, pre_roll=5).to_csv(p1)
        run_closed_loop(model, ctrl, TANK_X0, 20, pre_roll=5).to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()
