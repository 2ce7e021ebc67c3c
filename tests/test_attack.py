import numpy as np
import pytest

from encloop import verify
from encloop.attack import (
    AttackPlan,
    CovertAttacker,
    GuessingAttacker,
    build_enc_model,
    controllability_matrix,
    cooldown_gain,
    cooldown_inputs,
    cooldown_inputs_encrypted,
    delta_step_encrypted,
)
from encloop.backend import BackendConfig, DepthExhausted, context_create, pad_slots
from encloop.control import (
    TANK_X0,
    LtiModel,
    plant_step,
    quadruple_tank,
    run_closed_loop,
    tank_controller,
)
from helpers import decrypt_matrix, step_plan, wrapping_diagonal


@pytest.fixture
def model():
    return quadruple_tank()


@pytest.fixture
def ctrl():
    return tank_controller()


def make_ctx(max_depth=16, seed=3):
    return context_create(BackendConfig(slot_count=8, max_depth=max_depth, seed=seed))


def random_controllable(rng, n, m):
    """Rejection-sample a stable controllable pair (full-rank controllability)."""
    while True:
        A = rng.uniform(-1, 1, (n, n))
        A *= 0.9 / max(np.abs(np.linalg.eigvals(A)).max(), 1e-9)
        B = rng.uniform(-1, 1, (n, m))
        Cc = np.hstack([np.linalg.matrix_power(A, i) @ B for i in range(n)])
        if np.linalg.matrix_rank(Cc, tol=1e-6) == n:
            return LtiModel(A=A, B=B, C=np.eye(n))


class TestPlan:
    def test_schedule_outside_active_phase(self):
        with pytest.raises(ValueError):
            AttackPlan(schedule={6: np.zeros(2)}, length=10, cooldown_len=4)

    def test_bad_cooldown(self):
        with pytest.raises(ValueError):
            AttackPlan(schedule={}, length=5, cooldown_len=6)

    def test_default_input_is_zero(self):
        plan = step_plan()
        assert np.array_equal(plan.active_input(5, 2), np.zeros(2))
        assert np.array_equal(plan.active_input(2, 2), [2.0, 2.0])


class TestControllability:
    def test_tank_shape_and_first_block(self, model):
        Cc = controllability_matrix(model)
        assert Cc.shape == (4, 8)
        assert np.array_equal(Cc[:, :2], model.B)
        assert np.allclose(Cc[:, 2:4], model.A @ model.B, atol=1e-15)

    def test_tank_full_rank(self, model):
        assert np.linalg.matrix_rank(controllability_matrix(model)) == 4

    def test_pinv_is_right_inverse(self, model):
        Cc = controllability_matrix(model)
        assert np.allclose(Cc @ np.linalg.pinv(Cc), np.eye(4), atol=1e-10)


class TestDeltaRecursion:
    def test_starts_at_zero(self, model):
        dx, a_y = plant_step(model, np.zeros(4), np.array([2.0, 2.0]))
        assert np.array_equal(a_y, np.zeros(2))
        assert np.allclose(dx, model.B @ [2.0, 2.0], atol=1e-15)

    def test_matches_explicit_convolution(self, model):
        # dx(k) = sum_j A^{k-1-j} B a(j)
        rng = np.random.default_rng(0)
        inputs = [rng.uniform(-1, 1, 2) for _ in range(6)]
        dx = np.zeros(4)
        for a in inputs:
            dx, _ = plant_step(model, dx, a)
        expected = sum(np.linalg.matrix_power(model.A, 5 - j) @ model.B @ inputs[j]
                       for j in range(6))
        assert np.allclose(dx, expected, atol=1e-12)


class TestCooldown:
    def test_drives_state_to_zero(self, model):
        rng = np.random.default_rng(1)
        for _ in range(20):
            dx = rng.uniform(-2, 2, 4)
            probe = dx.copy()
            for a in cooldown_inputs(model, dx):
                probe, _ = plant_step(model, probe, a)
            assert np.max(np.abs(probe)) < 1e-8

    def test_zero_state_needs_zero_inputs(self, model):
        for a in cooldown_inputs(model, np.zeros(4)):
            assert np.allclose(a, np.zeros(2), atol=1e-12)

    def test_random_controllable_systems(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 3))
            sys = random_controllable(rng, n, m)
            dx = rng.uniform(-1, 1, n)
            probe = dx.copy()
            for a in cooldown_inputs(sys, dx):
                probe, _ = plant_step(sys, probe, a)
            assert np.max(np.abs(probe)) < 1e-8

    def test_inputs_are_the_gain_rows(self, model):
        """Both attacker models take the cooldown from ``cooldown_gain``: the
        plaintext inputs are its block rows times dx, in application order."""
        rng = np.random.default_rng(5)
        systems = [model] + [random_controllable(rng, int(rng.integers(2, 5)),
                                                 int(rng.integers(1, 3)))
                             for _ in range(10)]
        for sys in systems:
            dx = rng.uniform(-1, 1, sys.n)
            G = cooldown_gain(sys)
            assert G.shape == (sys.n * sys.m, sys.n)
            got = cooldown_inputs(sys, dx)
            assert len(got) == sys.n
            for i, a in enumerate(got):
                assert np.array_equal(a, (G @ dx)[i * sys.m:(i + 1) * sys.m])

    def test_uncontrollable_system_rejected(self):
        # second state unreachable
        sys = LtiModel(A=np.diag([0.5, 0.5]), B=np.array([[1.0], [0.0]]),
                       C=np.eye(2))
        with pytest.raises(ValueError):
            cooldown_inputs(sys, np.array([0.3, 0.3]))


class TestEncryptedModel:
    def test_delta_step_matches_plain(self, model):
        ctx = make_ctx()
        enc = build_enc_model(context_create(ctx.config, "attacker"), model)
        rng = np.random.default_rng(3)
        dx = rng.uniform(-1, 1, 4)
        a_u = rng.uniform(-1, 1, 2)
        dxe = delta_step_encrypted(enc, ctx.encrypt(pad_slots(dx, 8)),
                                   ctx.encrypt(pad_slots(a_u, 8)))
        dx_ref, _ = plant_step(model, dx, a_u)
        assert np.max(np.abs(ctx.decrypt(dxe)[:4] - dx_ref)) < 1e-9

    def test_cooldown_matches_plain(self, model):
        ctx = make_ctx()
        enc = build_enc_model(context_create(ctx.config, "attacker"), model)
        rng = np.random.default_rng(4)
        dx = rng.uniform(-1, 1, 4)
        ref = cooldown_inputs(model, dx)
        got = cooldown_inputs_encrypted(enc, ctx.encrypt(pad_slots(dx, 8)))
        assert len(got) == 4
        for c, a in zip(got, ref):
            assert np.max(np.abs(ctx.decrypt(c)[:2] - a)) < 1e-8

    def test_measurement_matrix_lands_on_y_slots(self, model):
        """The encrypted C is C with its rows moved down to y's slots of the
        lifted block (``verify.measurement_offset``), so that C dx lands on
        the measurement; it stores C's one wrapped diagonal."""
        ctx = make_ctx()
        enc = build_enc_model(context_create(ctx.config, "attacker"), model)
        start = verify.measurement_offset(model.m)
        want = np.zeros((8, 8))
        want[start:start + model.p, :model.n] = model.C
        assert np.array_equal(decrypt_matrix(ctx, enc.C), want)
        assert len(enc.C.diagonals) == 1

    def test_cooldown_matrix_is_the_clear_product(self, model):
        """The cooldown matrix is ``cooldown_gain`` encrypted once: it
        decrypts to the clear gain, sits at level 0 and stores exactly the
        gain's nonzero wrapped diagonals (11 for the tank), so the cooldown's
        one matvec costs one multiply and one rotation per diagonal, plus
        n - 1 block rotations. The first input is the matvec output itself."""
        ctx = context_create(BackendConfig(slot_count=64, seed=3))
        pub = context_create(ctx.config, "attacker")
        enc = build_enc_model(pub, model)
        want = cooldown_gain(model)
        M = enc.cooldown_matrix
        assert list(M.diagonals) == [i for i in range(64)
                                     if np.any(wrapping_diagonal(want, i, 64))]
        assert len(M.diagonals) == 11
        assert {c.level for c in M.diagonals.values()} == {0}
        got = decrypt_matrix(ctx, M)
        assert np.max(np.abs(got[:8, :4] - want)) <= 1e-12
        got[:8, :4] = 0.0
        assert not np.any(got)
        x = np.array([0.3, -0.2, 0.1, 0.4])
        dx = ctx.encrypt(pad_slots(x, 64))
        before = op_totals(ctx, pub)
        inputs = cooldown_inputs_encrypted(enc, dx)
        assert spent_ops((ctx, pub), before) == {"enc": 0, "mul": 11, "rot": 11 + model.n - 1,
                                                 "add": 10, "dec": 0}
        assert len(inputs) == model.n
        assert inputs[0] is not dx and inputs[0].level == dx.level + 1
        stacked = ctx.decrypt(inputs[0])
        assert np.max(np.abs(stacked - pad_slots(want @ x, 64))) <= 1e-12
        for i, c in enumerate(inputs):
            assert np.array_equal(ctx.decrypt(c), np.roll(stacked, -i * model.m))


ATTACKERS = {
    "covert": lambda model, plan, pub: CovertAttacker(model, plan, ctx=pub),
    "guessing": lambda model, plan, pub: GuessingAttacker(
        model, plan, pub, expansion=2, rng=np.random.default_rng(0)),
}


def op_totals(*ctxs):
    """Op counts summed over key contexts: an op counts on the context of
    its first operand, which for a splice is the channel's."""
    return {op: sum(c.op_counts[op] for c in ctxs) for op in ctxs[0].op_counts}


def spent_ops(ctxs, before):
    now = op_totals(*ctxs)
    return {op: now[op] - before[op] for op in now}


class TestCooldownLength:
    @pytest.mark.parametrize("kind", sorted(ATTACKERS))
    @pytest.mark.parametrize("cooldown_len", [2, 6])
    def test_other_than_state_dim_rejected(self, model, kind, cooldown_len):
        # the cooldown solves the tank's 4-step terminal condition only
        plan = AttackPlan(schedule={0: np.array([0.5, 0.5])}, length=10,
                          cooldown_len=cooldown_len)
        with pytest.raises(ValueError, match="cooldown_len must equal the state "
                                             f"dimension 4, got {cooldown_len}"):
            ATTACKERS[kind](model, plan, context_create(make_ctx().config, "attacker"))


class TestSplice:
    def test_plain_channels(self, model):
        attacker = CovertAttacker(model, step_plan())
        y, u_c = np.array([1.0, 1.0]), np.array([1.0, 1.0])
        # k = 0: dx is zero, so the measurement passes untouched
        assert attacker.tamper_measurement(0, y) is y
        assert np.array_equal(attacker.tamper_control(0, u_c), [3.0, 3.0])
        # k = 1: the measurement loses C dx, with dx = B a_u(0)
        a_y = model.C @ model.B @ [2.0, 2.0]
        assert np.array_equal(attacker.tamper_measurement(1, y), y - a_y)
        assert np.array_equal(attacker.tamper_control(1, u_c), [3.0, 3.0])

    @pytest.mark.parametrize("kind", sorted(ATTACKERS))
    def test_encrypted_channel_public_context_only(self, model, kind):
        ctx = make_ctx()
        pub = context_create(ctx.config, "attacker")
        assert not pub.has_secret_key
        attacker = ATTACKERS[kind](model, step_plan(), pub)
        base = np.arange(8.0)
        c = ctx.encrypt(base)
        before = op_totals(ctx, pub)
        assert attacker.tamper_measurement(0, c) is c
        spliced = []
        # an input bias lands on the outputs' slots 0..1 of a block, a
        # measurement bias on y's slots 1..2 (verify.measurement_offset)
        for k, hook, bias, start in ((0, attacker.tamper_control, [2.0, 2.0], 0),
                                     (1, attacker.tamper_measurement,
                                      -model.C @ model.B @ [2.0, 2.0], 1),
                                     (1, attacker.tamper_control, [2.0, 2.0], 0)):
            # the covert attacker hits the leading block, the guessing
            # attacker the block it guessed for the step
            out = hook(k, c)
            blocks = [0] if kind == "covert" else attacker._guess
            spliced.append((out, verify.block_mask(4, 8, blocks, bias, start)))
        # three plaintext additions; nothing is encrypted or decrypted
        assert spent_ops((ctx, pub), before) == {"add": 3, "mul": 0, "rot": 0,
                                                 "enc": 0, "dec": 0}
        for out, mask in spliced:
            assert np.allclose(ctx.decrypt(out) - base, mask, atol=1e-12)

    def test_plain_model_never_encrypts(self, model, ctrl):
        ctx = make_ctx()
        pub = context_create(ctx.config, "attacker")
        start = op_totals(ctx)
        run_closed_loop(model, ctrl, TANK_X0, 20, pre_roll=5, ctx=ctx)
        clean = spent_ops((ctx,), start)
        before = op_totals(ctx, pub)
        run_closed_loop(model, ctrl, TANK_X0, 20, pre_roll=5, ctx=ctx,
                        attacker=CovertAttacker(model, step_plan(), ctx=pub))
        spent = spent_ops((ctx, pub), before)
        # one addition per nonzero bias on top of the clean loop: measurements
        # at k = 1..9, inputs at k = 0..4 and the cooldown k = 6..9
        assert spent == dict(clean, add=clean["add"] + 18)

    def test_encrypted_model_one_enc_per_active_step(self, model):
        ctx = make_ctx()
        pub = context_create(ctx.config, "attacker")
        enc = build_enc_model(pub, model)
        attacker = CovertAttacker(model, step_plan(), ctx=pub, enc_model=enc)
        # C dx for the measurement, A dx and B a_u for the next state: each
        # product is used once, none is computed twice
        products = sum(len(m.diagonals) for m in (enc.A, enc.B, enc.C))
        c = ctx.encrypt(np.zeros(8))
        for k in range(6):  # the active phase
            before = op_totals(ctx, pub)
            attacker.tamper_measurement(k, c)
            attacker.tamper_control(k, c)
            # the additions: T - 1 inside each T-term product, then the
            # measurement splice, the input splice and A dx + B a_u
            assert spent_ops((ctx, pub), before) == {"enc": 1, "mul": products,
                                                     "rot": products, "add": products,
                                                     "dec": 0}

    def test_guessing_attacker_without_bias_is_free(self, model):
        # an empty schedule keeps dx at zero: every splice is skipped, so
        # no op runs and no guess is drawn
        ctx = make_ctx()
        pub = context_create(ctx.config, "attacker")
        rng = np.random.default_rng(5)
        attacker = GuessingAttacker(model, AttackPlan(schedule={}, length=10, cooldown_len=4),
                                    pub, expansion=2, rng=rng)
        c = ctx.encrypt(np.arange(8.0))
        state = rng.bit_generator.state
        counts = dict(ctx.op_counts), dict(pub.op_counts)
        for k in range(-3, 13):
            assert attacker.tamper_measurement(k, c) is c
            assert attacker.tamper_control(k, c) is c
        assert (ctx.op_counts, pub.op_counts) == counts
        assert rng.bit_generator.state == state

def max_plant_deviation(baseline, attacked):
    return float(np.max(np.abs(np.array(attacked.x) - np.array(baseline.x))))


def max_controller_view_deviation(baseline, attacked):
    dy = np.max(np.abs(np.array(attacked.y_c) - np.array(baseline.y_c)))
    du = np.max(np.abs(np.array(attacked.u_c) - np.array(baseline.u_c)))
    return float(max(dy, du))


class TestCovertAttackClosedLoop:
    def test_plain_variant_stealthy_and_effective(self, model, ctrl):
        baseline = run_closed_loop(model, ctrl, TANK_X0, 40, pre_roll=20)
        attacker = CovertAttacker(model, step_plan())
        attacked = run_closed_loop(model, ctrl, TANK_X0, 40, pre_roll=20,
                                   attacker=attacker)
        # controller's view is indistinguishable from no attack
        assert max_controller_view_deviation(baseline, attacked) < 1e-6
        # but the plant is physically perturbed
        assert max_plant_deviation(baseline, attacked) > 0.1

    def test_internal_state_returns_to_zero(self, model, ctrl):
        attacker = CovertAttacker(model, step_plan())
        run_closed_loop(model, ctrl, TANK_X0, 40, pre_roll=20, attacker=attacker)
        assert np.max(np.abs(attacker._dx)) < 1e-8

    def test_transparent_after_attack_window(self, model, ctrl):
        baseline = run_closed_loop(model, ctrl, TANK_X0, 120, pre_roll=20)
        attacker = CovertAttacker(model, step_plan())
        attacked = run_closed_loop(model, ctrl, TANK_X0, 120, pre_roll=20,
                                   attacker=attacker)
        # after the cooldown the loop re-converges: late plant states agree
        late = np.max(np.abs(np.array(attacked.x[-5:]) - np.array(baseline.x[-5:])))
        assert late < 1e-2

    def test_encrypted_variant_matches_plain_variant(self, model, ctrl):
        plain_att = CovertAttacker(model, step_plan())
        t_plain = run_closed_loop(model, ctrl, TANK_X0, 40, pre_roll=20,
                                  attacker=plain_att)
        ctx = make_ctx(max_depth=32)
        pub = context_create(ctx.config, "attacker")
        enc_att = CovertAttacker(model, step_plan(), ctx=pub,
                                 enc_model=build_enc_model(pub, model))
        t_enc = run_closed_loop(model, ctrl, TANK_X0, 40, pre_roll=20,
                                ctx=ctx, attacker=enc_att)
        for fieldname in ("x", "u", "y", "u_c", "y_c"):
            a = np.array(getattr(t_plain, fieldname))
            b = np.array(getattr(t_enc, fieldname))
            assert np.max(np.abs(a - b)) < 1e-6

    def test_encrypted_variant_depth_budget(self, model, ctrl):
        # the compensation recursion costs one level per step: a depth budget
        # of 3 dies at loop step k = 2, where the controller's product with
        # the spliced measurement would sit at level 4
        ctx = make_ctx(max_depth=3)
        pub = context_create(ctx.config, "attacker")
        with pytest.raises(DepthExhausted):
            enc_att = CovertAttacker(model, step_plan(), ctx=pub,
                                     enc_model=build_enc_model(pub, model))
            run_closed_loop(model, ctrl, TANK_X0, 40, pre_roll=20,
                            ctx=ctx, attacker=enc_att)

    def test_encrypted_variant_fits_depth_twelve(self, model, ctrl):
        ctx = make_ctx(max_depth=12)
        pub = context_create(ctx.config, "attacker")
        enc_att = CovertAttacker(model, step_plan(), ctx=pub,
                                 enc_model=build_enc_model(pub, model))
        trace = run_closed_loop(model, ctrl, TANK_X0, 40, pre_roll=20,
                                ctx=ctx, attacker=enc_att)
        assert len(trace) == 60
