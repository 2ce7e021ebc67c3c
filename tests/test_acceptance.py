"""Acceptance suite: one test per headline property of the package.

Each test is numbered; a summary section at the end of the pytest run prints
one PASS/FAIL line per criterion (see conftest.py).
"""

import math
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from encloop import netloop
from encloop.attack import (
    CovertAttacker,
    build_enc_model,
    cooldown_inputs,
    delta_step_encrypted,
)
from encloop.backend import (
    BackendConfig,
    DepthExhausted,
    context_create,
    pad_slots,
    serialize_ciphertext,
)
from encloop.control import (
    TANK_X0,
    LtiModel,
    encrypt_controller,
    plant_step,
    quadruple_tank,
    run_closed_loop,
    tank_controller,
)
from encloop.linalg import (
    enc_matmat,
    enc_matvec,
    encrypt_matrix,
)
from encloop.scenario import ScenarioConfig, run_scenario
from encloop.verify import (
    dcd,
    ecd,
    lift_affine,
    lifted_input,
    p_succ_instant,
    run_detection_experiment,
    setup,
)
from helpers import (
    HOST,
    STEP_ATTACK,
    decrypt_matrix,
    finish,
    free_port,
    listening_role,
    step_plan,
)


def test_criterion_01_detection_rate_table():
    """First-step detection rates match the reference table within 1 point."""
    targets = {2: 49.98, 4: 83.43, 8: 98.58, 16: 99.99}
    for lam, target in targets.items():
        res = run_detection_experiment(lam, 10, 100_000, mode="fast",
                                       seed=2026 + lam)
        got = 100.0 * res["fractions"][1]
        assert abs(got - target) <= 1.0, f"lambda={lam}: {got:.2f}% vs {target}%"
        if lam == 2:
            undetected = 100.0 * res["undetected_fraction"]
            assert 0.04 <= undetected <= 0.20, f"undetected {undetected:.3f}%"


def test_criterion_02_geometric_detection_law():
    """Detection-step distribution follows (1-p) p^(k-1) per step."""
    trials, L = 100_000, 10
    for lam in (2, 4):
        res = run_detection_experiment(lam, L, trials, mode="fast",
                                       seed=77 + lam)
        p = p_succ_instant(lam)
        expected = np.array([trials * p ** (k - 1) * (1 - p)
                             for k in range(1, L + 1)] + [trials * p ** L])
        observed = np.array([res["counts"][k] for k in range(1, L + 1)]
                            + [res["undetected"]])
        # merge tail bins with tiny expected counts for a valid chi-square
        keep = expected >= 5
        obs, exp = observed[keep], expected[keep]
        if not keep.all():
            obs = np.append(obs, observed[~keep].sum())
            exp = np.append(exp, expected[~keep].sum())
        pvalue = stats.chisquare(obs, exp * obs.sum() / exp.sum()).pvalue
        assert pvalue > 0.01, f"lambda={lam}: chi-square p={pvalue:.4f}"
        if lam == 2:
            assert abs(res["fractions"][2] - 0.25) < 0.01
        if lam == 4:
            assert abs(res["fractions"][3] - 0.0231) < 0.005


def test_criterion_03_covert_attack_stealthiness():
    """Both attack variants are invisible controller-side and transient."""
    model, ctrl = quadruple_tank(), tank_controller()
    baseline = run_closed_loop(model, ctrl, TANK_X0, 30, pre_roll=20)

    plain_att = CovertAttacker(model, step_plan())
    t_plain = run_closed_loop(model, ctrl, TANK_X0, 30, pre_roll=20,
                              attacker=plain_att)

    ctx = context_create(BackendConfig(slot_count=8, max_depth=16, seed=5))
    pub = context_create(ctx.config, "attacker")
    enc_att = CovertAttacker(model, step_plan(), ctx=pub,
                             enc_model=build_enc_model(pub, model))
    t_enc = run_closed_loop(model, ctrl, TANK_X0, 30, pre_roll=20,
                            ctx=ctx, attacker=enc_att)

    ks = np.array(baseline.k)
    for attacked in (t_plain, t_enc):
        # controller-side indistinguishability at every step
        for fieldname in ("u_c", "y_c"):
            dev = np.abs(np.array(getattr(attacked, fieldname))
                         - np.array(getattr(baseline, fieldname)))
            assert dev.max() < 1e-6
        u_dev = np.max(np.abs(np.array(attacked.u) - np.array(baseline.u)),
                       axis=1)
        active = (ks >= 0) & (ks < 10)
        assert u_dev[active].max() > 0.1          # plant input is perturbed
        post = ks >= 10
        assert u_dev[post].max() < 1e-8           # and the attack leaves no trace
        x_dev = np.max(np.abs(np.array(attacked.x) - np.array(baseline.x)),
                       axis=1)
        assert x_dev[post].max() < 1e-8

    # internal compensation state returns to zero after the cooldown
    assert np.max(np.abs(plain_att._dx)) < 1e-8
    assert np.max(np.abs(ctx.decrypt(enc_att._dx)[:4])) < 1e-8

    # the two variants share nearly identical trajectories
    for fieldname in ("x", "u", "y", "u_c", "y_c"):
        a = np.array(getattr(t_plain, fieldname))
        b = np.array(getattr(t_enc, fieldname))
        assert np.max(np.abs(a - b)) < 1e-6


def test_criterion_04_success_probability_bound():
    """1/C(lam, lam/2) <= 2^(-lam/2) exactly, strict above lam = 2."""
    for lam in range(2, 66, 2):
        p = Fraction(1, math.comb(lam, lam // 2))
        bound = Fraction(1, 2 ** (lam // 2))
        assert p <= bound, f"bound violated at lambda={lam}"
        if lam > 2:
            assert p < bound, f"unexpected equality at lambda={lam}"
        else:
            assert p == bound


def test_criterion_05_diagonal_method_correctness():
    """200 random matvec/matmat instances match plaintext oracles."""
    rng = np.random.default_rng(101)
    for d in (2, 4, 8, 16):
        ctx = context_create(BackendConfig(slot_count=d, max_depth=8, seed=d))
        for _ in range(50):
            S = rng.uniform(-5, 5, (d, d))
            T = rng.uniform(-5, 5, (d, d))
            v = rng.uniform(-5, 5, d)
            eS, eT = encrypt_matrix(ctx, S), encrypt_matrix(ctx, T)
            got_v = ctx.decrypt(enc_matvec(eS, ctx.encrypt(v)))
            assert np.max(np.abs(got_v - S @ v)) < 1e-9
            got_m = decrypt_matrix(ctx, enc_matmat(eS, eT))
            assert np.max(np.abs(got_m - S @ T)) < 1e-9

    # banded matrix: exactly 2*beta + 1 multiplies per matvec
    d, beta = 16, 2
    ctx = context_create(BackendConfig(slot_count=d, max_depth=8, seed=99))
    S = np.zeros((d, d))
    j = np.arange(d)
    for i in range(-beta, beta + 1):
        S[j, (j + i) % d] = rng.uniform(-3, 3, d)
    v = rng.uniform(-3, 3, d)
    banded = encrypt_matrix(ctx, S)
    before = ctx.op_counts["mul"]
    banded_out = ctx.decrypt(enc_matvec(banded, ctx.encrypt(v)))
    assert ctx.op_counts["mul"] - before == 2 * beta + 1
    assert np.max(np.abs(banded_out - S @ v)) < 1e-9


def test_criterion_06_verification_completeness_and_overhead():
    """10^4 honest verified steps: zero rejections, equal message sizes."""
    ctrl = tank_controller()
    slot_count, lam = 16, 4
    ctx = context_create(BackendConfig(slot_count=slot_count, max_depth=4,
                                       seed=17))
    K_aug = lift_affine(-ctrl.K)
    vctx = setup(slot_count, K_aug, lam, num_challenges=16, seed=17)
    enc_K = encrypt_controller(ctx, ctrl, lam)
    rng = np.random.default_rng(17)
    bottoms = 0
    size_verified = size_plain = None
    for _ in range(10_000):
        y = rng.uniform(-2, 2, 2)
        block = lifted_input(y, ctrl.u0, vctx.block_dim)
        encoded, tag = ecd(vctx, block)
        c = ctx.encrypt(pad_slots(encoded, slot_count))
        z = enc_matvec(enc_K, c)
        outcome = dcd(vctx, tag, ctx.decrypt(z))
        if outcome.bottom:
            bottoms += 1
        if size_verified is None:
            size_verified = (len(serialize_ciphertext(c)),
                             len(serialize_ciphertext(z)))
            cp = ctx.encrypt(pad_slots(block, slot_count))
            zp = enc_matvec(enc_K, cp)
            size_plain = (len(serialize_ciphertext(cp)),
                          len(serialize_ciphertext(zp)))
    assert bottoms == 0
    assert size_verified == size_plain  # zero communication overhead


def test_criterion_07_cooldown_on_random_systems():
    """Cooldown zeroes the compensation state for random controllable systems."""
    rng = np.random.default_rng(7)
    done = 0
    while done < 50:
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        A = rng.uniform(-1, 1, (n, n))
        A *= 0.9 / max(np.abs(np.linalg.eigvals(A)).max(), 1e-9)
        B = rng.uniform(-1, 1, (n, m))
        Cc = np.hstack([np.linalg.matrix_power(A, i) @ B for i in range(n)])
        if np.linalg.matrix_rank(Cc, tol=1e-6) < n:
            continue
        sys_model = LtiModel(A=A, B=B, C=np.eye(n))
        # random active phase, then the computed cooldown
        active = [rng.uniform(-2, 2, m) for _ in range(int(rng.integers(1, 6)))]
        dx = np.zeros(n)
        for a in active:
            dx, _ = plant_step(sys_model, dx, a)
        for a in cooldown_inputs(sys_model, dx):
            dx, _ = plant_step(sys_model, dx, a)
        assert np.max(np.abs(dx)) < 1e-8
        # after the attack ends, the output bias stays at zero
        for _ in range(5):
            dx, a_y = plant_step(sys_model, dx, np.zeros(m))
            assert np.max(np.abs(a_y)) < 1e-8
        done += 1


def test_criterion_08_depth_budget_fidelity():
    """Depth 3 dies on recursion step 4; depth 12 completes the scenario."""
    model, ctrl = quadruple_tank(), tank_controller()

    # the recursion costs one multiplicative level per step
    ctx3 = context_create(BackendConfig(slot_count=8, max_depth=3, seed=8))
    pub3 = context_create(ctx3.config, "attacker")
    enc3 = build_enc_model(pub3, model)
    dx = pub3.encrypt(np.zeros(8))
    a_u = pub3.encrypt(pad_slots([2.0, 2.0], 8))
    for _ in range(3):
        dx = delta_step_encrypted(enc3, dx, a_u)
    with pytest.raises(DepthExhausted):
        delta_step_encrypted(enc3, dx, a_u)

    # and the same budget kills the full encrypted-model scenario early ...
    att3 = CovertAttacker(model, step_plan(), ctx=pub3,
                          enc_model=build_enc_model(pub3, model))
    with pytest.raises(DepthExhausted):
        run_closed_loop(model, ctrl, TANK_X0, 30, pre_roll=20,
                        ctx=ctx3, attacker=att3)

    # ... while a budget of 12 fits the whole attack, cooldown included
    ctx12 = context_create(BackendConfig(slot_count=8, max_depth=12, seed=8))
    pub12 = context_create(ctx12.config, "attacker")
    att12 = CovertAttacker(model, step_plan(), ctx=pub12,
                           enc_model=build_enc_model(pub12, model))
    trace = run_closed_loop(model, ctrl, TANK_X0, 30, pre_roll=20,
                            ctx=ctx12, attacker=att12)
    assert len(trace) == 50
    assert np.max(np.abs(ctx12.decrypt(att12._dx)[:4])) < 1e-8


def test_criterion_09_large_scale_capacity():
    """lambda=16, block dim 4096 at 2^16 slots; one verified step < 10 s."""
    ctrl = tank_controller()
    slot_count, lam, d = 2 ** 16, 16, 4096

    start = time.monotonic()
    ctx = context_create(BackendConfig(slot_count=slot_count, max_depth=4,
                                       seed=9))
    # the tank's 4 x 4 lifted block, zero-padded to a block of dimension d
    K_aug = np.zeros((d, d))
    K_aug[:4, :4] = lift_affine(-ctrl.K)
    vctx = setup(slot_count, K_aug, lam, num_challenges=8, seed=9)
    # the production encoder replicates the block lam times without
    # materializing the slot_count x slot_count lift; only the wrapped
    # diagonals 0..2 of the lifted [-K I] hold an entry
    enc_K = encrypt_matrix(ctx, K_aug, lam)
    assert list(enc_K.diagonals) == [0, 1, 2]

    y = np.array([0.9, 1.1])
    block = lifted_input(y, ctrl.u0, d)
    encoded, tag = ecd(vctx, block)
    c = ctx.encrypt(pad_slots(encoded, slot_count))
    z = enc_matvec(enc_K, c)
    outcome = dcd(vctx, tag, ctx.decrypt(z))
    elapsed = time.monotonic() - start

    assert outcome.ok
    assert np.max(np.abs(outcome.payload[:2] - (-ctrl.K @ y + ctrl.u0))) < 1e-9
    assert elapsed < 10.0, f"verified step took {elapsed:.1f}s"


def test_criterion_10_networked_equivalence():
    """Wire deployment reproduces the in-process trace and attack stealth."""
    raw = {"scenario": "baseline", "mode": "encrypted", "steps": 50,
           "pre_roll": 0, "seed": 31, "backend": {"slot_count": 64}}
    cfg = ScenarioConfig.from_dict(raw)

    # run 1: plant -> attacker proxy (transparent) -> controller, 3 processes
    with (listening_role("controller") as (controller, ctrl_port),
          listening_role("attacker", "--upstream", f"{HOST}:{ctrl_port}") as (proxy, port)):
        trace = netloop.run_plant((HOST, port), cfg)
        finish(proxy)
        finish(controller)
    ref, code = run_scenario(cfg)
    assert code == 0
    assert len(trace) == len(ref) == 50
    for fieldname in ("x", "u", "y"):
        a = np.array(getattr(trace, fieldname))
        b = np.array(getattr(ref, fieldname))
        assert np.max(np.abs(a - b)) < 1e-8

    # run 2: active covert attack through the proxy stays controller-invisible
    atk_raw = dict(raw, scenario="attack_plain", attack=STEP_ATTACK)
    atk_cfg = ScenarioConfig.from_dict(atk_raw)
    results = {}
    for label, plant_cfg in (("attacked", atk_cfg), ("clean", cfg)):
        ctrl_port = free_port()
        ctrl_ready = threading.Event()
        box = {}

        def run_ctrl(port=ctrl_port, ready=ctrl_ready, out=box):
            out["result"] = netloop.run_controller((HOST, port), ready=ready)

        t = threading.Thread(target=run_ctrl, daemon=True)
        t.start()
        assert ctrl_ready.wait(5)
        with listening_role("attacker", "--upstream", f"{HOST}:{ctrl_port}") as (proxy, port):
            netloop.run_plant((HOST, port), plant_cfg)
            finish(proxy)
        t.join(10)
        assert not t.is_alive()
        results[label] = box["result"]
    for fieldname in ("y_c", "u_c"):
        a = np.array(results["attacked"][fieldname])
        b = np.array(results["clean"][fieldname])
        assert np.max(np.abs(a - b)) < 1e-6
