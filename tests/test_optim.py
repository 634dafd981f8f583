import numpy as np
import pytest

from sercap import blas
from sercap.autodiff import Tensor
from sercap.model import CaptionerModel, ModelConfig
from sercap.optim import AdamW, OptimConfig, clip_global_norm, cosine_lr, make_param_groups


class TestCosineLr:
    def test_endpoints_exact(self):
        lr0 = 5e-4
        assert cosine_lr(0, 100, lr0) == lr0
        assert cosine_lr(100, 100, lr0) == 0.0
        assert cosine_lr(50, 100, lr0) == lr0 / 2

    def test_monotone_nonincreasing(self):
        vals = [cosine_lr(k, 100, 1.0) for k in range(101)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cosine_lr(101, 100, 1.0)
        with pytest.raises(ValueError):
            cosine_lr(-1, 100, 1.0)


class TestClipGlobalNorm:
    def test_below_threshold_untouched(self):
        g = [np.array([3.0, 4.0])]
        scale = clip_global_norm(g, 10.0)
        assert scale == 1.0
        np.testing.assert_array_equal(g[0], [3.0, 4.0])

    def test_hand_case(self):
        g = [np.array([30.0, 40.0])]
        scale = clip_global_norm(g, 10.0)
        np.testing.assert_allclose(g[0], [6.0, 8.0], rtol=1e-12)
        np.testing.assert_allclose(scale, 0.2)

    def test_direction_preserved_and_norm_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = [rng.normal(0, 5, (4, 3)), rng.normal(0, 5, (7,))]
            before = np.concatenate([x.reshape(-1) for x in g])
            clip_global_norm(g, 10.0)
            after = np.concatenate([x.reshape(-1) for x in g])
            norm = np.linalg.norm(after)
            assert norm <= 10.0 + 1e-9
            cos = after @ before / (np.linalg.norm(before) * norm)
            np.testing.assert_allclose(cos, 1.0, rtol=1e-12)

    def test_nan_rejected(self):
        with pytest.raises(FloatingPointError):
            clip_global_norm([np.array([np.nan, 1.0])], 10.0)

    @pytest.mark.parametrize("shapes", [[(7,), (300,), (1,)], [(40, 9), (3, 3), (64,)],
                                        [(5, 17, 3), (2, 30, 11), (4,)]])
    def test_norm_equals_per_gradient_square_sums(self, shapes):
        # squares land in one shared scratch buffer; each sum must still be
        # the one numpy gives on a fresh ``np.square(g)``
        rng = np.random.default_rng(4)
        for _ in range(20):
            grads = [rng.normal(0, 1, s) for s in shapes]
            want = sum(float(np.square(g).sum()) for g in grads)
            scale = clip_global_norm([g.copy() for g in grads], 1e-3)
            assert scale == 1e-3 / np.sqrt(want)

    def test_independent_of_blas_threads(self):
        """OpenBLAS splits a long dot product across its threads, which moves
        the last bits of the sum; the clip must not depend on that.  With a
        single BLAS thread (a one-CPU host) this passes without showing it."""
        if not blas.thread_counts():
            pytest.skip("no loaded OpenBLAS exports thread control")
        rng = np.random.default_rng(3)
        for _ in range(5):
            grads = [rng.normal(0, 1, (250, 200)), rng.normal(0, 1, (30_000,)), rng.normal(0, 1, (96,))]
            threaded = [g.copy() for g in grads]
            single = [g.copy() for g in grads]
            scale = clip_global_norm(threaded, 1.0)
            with blas.single_threaded():
                single_scale = clip_global_norm(single, 1.0)
            assert scale < 1.0
            assert scale == single_scale
            for a, b in zip(threaded, single):
                assert a.tobytes() == b.tobytes()


def _named(*pairs):
    return [(n, Tensor(v, requires_grad=True)) for n, v in pairs]


class TestParamGroups:
    def test_bias_exemption_split(self):
        params = _named(("layer.W", np.ones((2, 2))), ("layer.b", np.ones(2)),
                        ("ln.gamma", np.ones(2)), ("ln.beta", np.zeros(2)))
        groups = make_param_groups(params)
        by_flag = {g.decay_exempt: set(g.names) for g in groups}
        assert by_flag[False] == {"layer.W", "ln.gamma"}
        assert by_flag[True] == {"layer.b", "ln.beta"}

    def test_every_captioner_bias_is_exempt(self):
        cfg = ModelConfig(d_model=8, decoder_layers=2, heads=2, d_ff=16,
                          d_enc=5, d_sent=12, max_len=10)
        named = CaptionerModel(cfg, 7, seed=0).named_params()
        by_flag = {g.decay_exempt: set(g.names) for g in make_param_groups(named)}
        assert by_flag[True] == {n for n, t in named if t.ndim == 1 and not n.endswith(".gamma")}
        assert by_flag[False] == {n for n, t in named if t.ndim == 2 or n.endswith(".gamma")}

    def test_every_param_exactly_once(self):
        params = _named(("a.W", np.ones(2)), ("a.b", np.ones(2)), ("emb.table", np.ones((2, 2))))
        groups = make_param_groups(params)
        names = [n for g in groups for n in g.names]
        assert sorted(names) == sorted(p[0] for p in params)


class TestAdamW:
    def test_first_step_unit_direction(self):
        # wd=0 behaves as Adam: one step on theta=1, g=1 moves by ~lr
        cfg = OptimConfig(lr0=1e-3, weight_decay=0.0)
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([1.0])
        opt = AdamW(make_param_groups([("w.W", p)]), cfg)
        opt.step(lr=1e-3)
        # bias-corrected first step: mhat = g, vhat = g^2 -> update = lr*g/(|g|+eps)
        np.testing.assert_allclose(p.data, [1.0 - 1e-3 * (1.0 / (1.0 + 1e-8))], rtol=1e-12)

    def test_zero_grad_decay_only(self):
        cfg = OptimConfig(lr0=1e-2, weight_decay=2.0)
        p = Tensor(np.array([0.5, -0.25]), requires_grad=True)
        p.grad = np.zeros(2)
        opt = AdamW(make_param_groups([("w.W", p)]), cfg)
        opt.step(lr=1e-2)
        np.testing.assert_array_equal(p.data, np.array([0.5, -0.25]) * (1 - 1e-2 * 2.0))

    def test_bias_fixed_point_under_decay(self):
        cfg = OptimConfig(lr0=1e-2, weight_decay=2.0)
        p = Tensor(np.array([0.5]), requires_grad=True)
        p.grad = np.zeros(1)
        opt = AdamW(make_param_groups([("w.b", p)]), cfg)
        for _ in range(5):
            opt.step(lr=1e-2)
        np.testing.assert_array_equal(p.data, [0.5])

    def test_geometric_contraction_law(self):
        # with zero grads, non-exempt params follow p' = p (1 - lr wd) exactly
        cfg = OptimConfig(lr0=1e-3, weight_decay=2.0)
        p = Tensor(np.array([1.0, -2.0, 0.125]), requires_grad=True)
        opt = AdamW(make_param_groups([("w.W", p)]), cfg)
        expected = p.data.copy()
        for _ in range(10):
            p.grad = np.zeros(3)
            opt.step(lr=1e-3)
            expected = expected * (1 - 1e-3 * 2.0)
            np.testing.assert_array_equal(p.data, expected)

    def test_matches_adam_oracle_with_wd_zero(self):
        # independent textbook Adam recurrence, 100 random steps, 1e-12
        rng = np.random.default_rng(7)
        theta0 = rng.normal(0, 1, (3, 2))
        cfg = OptimConfig(lr0=1e-3, weight_decay=0.0)
        p = Tensor(theta0.copy(), requires_grad=True)
        opt = AdamW(make_param_groups([("w.W", p)]), cfg)

        theta = theta0.copy()
        m = np.zeros_like(theta)
        v = np.zeros_like(theta)
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 1e-3
        for t in range(1, 101):
            g = rng.normal(0, 1, theta.shape)
            p.grad = g.copy()
            opt.step(lr=lr)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1**t)
            vhat = v / (1 - b2**t)
            theta = theta - lr * mhat / (np.sqrt(vhat) + eps)
            np.testing.assert_allclose(p.data, theta, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("wd", [0.0, 2.0])
    def test_in_place_step_equals_the_rebinding_formula_bytewise(self, wd):
        """Each step updates the moments and parameters in place, byte-equal
        to the formula evaluated into new arrays, a zero gradient included."""
        rng = np.random.default_rng(11)
        shapes = {"w.W": (5, 3), "w.b": (3,), "emb.table": (4, 2)}
        params = {name: Tensor(rng.normal(0, 1, shape), requires_grad=True) for name, shape in shapes.items()}
        arrays = {name: p.data for name, p in params.items()}
        want = {name: p.data.copy() for name, p in params.items()}
        m = {name: np.zeros(shape) for name, shape in shapes.items()}
        v = {name: np.zeros(shape) for name, shape in shapes.items()}
        cfg = OptimConfig(lr0=1e-2, weight_decay=wd)
        opt = AdamW(make_param_groups(list(params.items())), cfg)
        b1, b2 = cfg.beta1, cfg.beta2
        for t in range(1, 7):
            lr = 1e-2 / t
            grads = {name: rng.normal(0, 1, shape) for name, shape in shapes.items()}
            if t == 3:
                grads["w.W"] = np.zeros(shapes["w.W"])
            for name, p in params.items():
                p.grad = None if t == 3 and name == "w.W" else grads[name].copy()
            opt.step(lr)
            for name, g in grads.items():
                m[name] = b1 * m[name] + (1.0 - b1) * g
                v[name] = b2 * v[name] + (1.0 - b2) * (g * g)
                mhat = m[name] / (1.0 - b1**t)
                vhat = v[name] / (1.0 - b2**t)
                if name != "w.b" and wd > 0:
                    want[name] = want[name] * (1.0 - lr * wd)
                want[name] = want[name] - lr * (mhat / (np.sqrt(vhat) + cfg.eps))
            for name, p in params.items():
                assert p.data is arrays[name]
                assert p.data.tobytes() == want[name].tobytes(), (t, name)
                assert opt.state[name]["m"].tobytes() == m[name].tobytes()
                assert opt.state[name]["v"].tobytes() == v[name].tobytes()

    def test_zero_grad_drops_the_gradients(self):
        p = Tensor(np.ones(3), requires_grad=True)
        p.grad = np.ones(3)
        opt = AdamW(make_param_groups([("w.W", p)]), OptimConfig())
        opt.zero_grad()
        assert p.grad is None
        assert [g.tobytes() for g in opt.grads()] == [np.zeros(3).tobytes()]


class TestOptimConfig:
    def test_defaults(self):
        cfg = OptimConfig()
        assert cfg.lr0 == 5e-4
        assert cfg.beta1 == 0.9 and cfg.beta2 == 0.999
        assert cfg.clip_norm == 10.0
        assert cfg.epochs == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            OptimConfig(lr0=0)
        with pytest.raises(ValueError):
            OptimConfig(beta1=1.0)
        with pytest.raises(ValueError):
            OptimConfig(weight_decay=-1)
        with pytest.raises(ValueError):
            OptimConfig(clip_norm=0)
