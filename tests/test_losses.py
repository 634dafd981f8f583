import numpy as np
import pytest
from hypothesis import given, strategies as st

from sercap import autodiff as ad
from sercap import losses
from sercap.autodiff import Tape, Tensor
from sercap.losses import LossConfig


class TestCrossEntropySmoothed:
    def test_uniform_logits_give_log_v(self):
        for eps in (0.0, 0.1, 0.5):
            logits = Tensor(np.zeros((1, 4, 7)))
            loss = losses.cross_entropy_smoothed(logits, np.ones((1, 4), dtype=int), label_smoothing=eps)
            np.testing.assert_allclose(loss.item(), np.log(7), rtol=1e-12)

    def test_perfect_prediction_limit(self):
        targets = np.array([[1]])
        vals = []
        for scale in (5.0, 10.0, 18.0):
            logits = np.full((1, 1, 3), -scale)
            logits[0, 0, 1] = scale
            vals.append(
                losses.cross_entropy_smoothed(Tensor(logits), targets, label_smoothing=0.0).item()
            )
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-12

    def test_hand_value_with_smoothing(self):
        # V=2, p=[0.25, 0.75], target 1, eps=0.1 -> -(0.95 ln .75 + 0.05 ln .25)
        logits = Tensor(np.array([[[0.0, np.log(3.0)]]]))
        loss = losses.cross_entropy_smoothed(logits, np.array([[1]]), label_smoothing=0.1)
        expected = -(0.95 * np.log(0.75) + 0.05 * np.log(0.25))
        np.testing.assert_allclose(loss.item(), expected, rtol=1e-12)
        assert round(loss.item(), 4) == 0.3426

    def test_pad_positions_excluded(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(0, 1, (2, 3, 5))
        targets = rng.integers(0, 5, (2, 3))
        mask = np.array([[1, 1, 0], [1, 0, 0]], dtype=float)
        full = losses.cross_entropy_smoothed(Tensor(logits), targets, mask, 0.1).item()
        # recompute over only the unmasked positions, flattened
        keep = mask.reshape(-1).astype(bool)
        flat_logits = logits.reshape(-1, 5)[keep]
        flat_targets = targets.reshape(-1)[keep]
        manual = losses.cross_entropy_smoothed(
            Tensor(flat_logits[None]), flat_targets[None], label_smoothing=0.1
        ).item()
        np.testing.assert_allclose(full, manual, rtol=1e-12)

    def test_all_pad_rejected(self):
        with pytest.raises(ValueError):
            losses.cross_entropy_smoothed(
                Tensor(np.zeros((1, 2, 3))), np.zeros((1, 2), dtype=int), np.zeros((1, 2))
            )

    def test_gradient(self):
        rng = np.random.default_rng(1)
        logits = Tensor(rng.normal(0, 1, (2, 3, 4)), requires_grad=True)
        targets = rng.integers(0, 4, (2, 3))
        f = lambda l: losses.cross_entropy_smoothed(l, targets, label_smoothing=0.1)
        assert ad.grad_check(f, [logits]).passed


class TestSmoothL1:
    def test_zero_for_equal_inputs(self):
        x = Tensor(np.arange(5.0))
        assert losses.smooth_l1(x, x, beta=1.0).item() == 0.0

    def test_quadratic_zone_value(self):
        out = losses.smooth_l1(Tensor([0.5]), Tensor([0.0]), beta=1.0)
        np.testing.assert_allclose(out.item(), 0.125, rtol=1e-15)

    def test_linear_zone_value(self):
        out = losses.smooth_l1(Tensor([2.0]), Tensor([0.0]), beta=1.0)
        np.testing.assert_allclose(out.item(), 1.5, rtol=1e-15)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_value_continuous_at_joint(self, beta):
        lo = losses.smooth_l1(Tensor([beta - 1e-9]), Tensor([0.0]), beta=beta).item()
        hi = losses.smooth_l1(Tensor([beta + 1e-9]), Tensor([0.0]), beta=beta).item()
        assert abs(hi - lo) < 1e-6

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_derivative_continuous_at_joint(self, beta):
        grads = []
        for d in (beta - 1e-9, beta + 1e-9):
            x = Tensor([d], requires_grad=True)
            with Tape() as tape:
                loss = losses.smooth_l1(x, Tensor([0.0]), beta=beta)
            tape.backward(loss)
            grads.append(x.grad[0])
        assert abs(grads[0] - grads[1]) < 1e-6

    @given(st.lists(st.floats(-10, 10).filter(lambda v: v == 0 or abs(v) > 1e-6),
                    min_size=1, max_size=6))
    def test_nonnegative_zero_iff_equal(self, vals):
        a = Tensor(vals)
        b = Tensor(np.zeros(len(vals)))
        out = losses.smooth_l1(a, b, beta=1.0).item()
        assert out >= 0.0
        assert (out == 0.0) == all(v == 0.0 for v in vals)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            losses.smooth_l1(Tensor([1.0, 2.0]), Tensor([1.0]), beta=1.0)

    def test_gradient(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.normal(0, 2, (6,)), requires_grad=True)
        b = Tensor(rng.normal(0, 2, (6,)))
        assert ad.grad_check(lambda x: losses.smooth_l1(x, b, beta=1.0), [a]).passed


class TestSerAlternatives:
    def test_identical_inputs_zero(self):
        x = Tensor([1.0, -2.0, 0.5])
        for kind in ("mse", "l1", "cosine"):
            assert losses.ser_alternatives(x, x, kind).item() == pytest.approx(0.0, abs=1e-12)

    def test_scalar_distance_two(self):
        a, b = Tensor([2.0]), Tensor([0.0])
        assert losses.ser_alternatives(a, b, "mse").item() == 4.0
        assert losses.ser_alternatives(a, b, "l1").item() == 2.0

    def test_cosine_antiparallel(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([-1.0, -2.0])
        np.testing.assert_allclose(losses.ser_alternatives(a, b, "cosine").item(), 2.0, rtol=1e-12)

    def test_cosine_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            losses.ser_alternatives(Tensor([0.0, 0.0]), Tensor([1.0, 0.0]), "cosine")

    def test_cosine_batch_is_mean_of_rows(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(4, 8)), rng.normal(size=(4, 8))
        rows = [losses.ser_alternatives(Tensor(a[i]), Tensor(b[i]), "cosine").item() for i in range(4)]
        batch = losses.ser_alternatives(Tensor(a), Tensor(b), "cosine").item()
        np.testing.assert_allclose(batch, np.mean(rows), rtol=1e-12)
        # a caption's loss does not depend on the scale of its batch mates
        scaled = a.copy()
        scaled[1:] *= 10.0
        np.testing.assert_allclose(losses.ser_alternatives(Tensor(scaled), Tensor(b), "cosine").item(),
                                   batch, rtol=1e-12)

    def test_cosine_zero_row_rejected(self):
        a = np.ones((3, 4))
        a[1] = 0.0
        with pytest.raises(ValueError):
            losses.ser_alternatives(Tensor(a), Tensor(np.ones((3, 4))), "cosine")
        with pytest.raises(ValueError):
            losses.ser_alternatives(Tensor(np.ones((3, 4))), Tensor(a), "cosine")

    def test_cosine_batch_gradient(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 5)))
        assert ad.grad_check(lambda x: losses.ser_alternatives(x, b, "cosine"), [a]).passed

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            losses.ser_alternatives(Tensor([1.0]), Tensor([1.0]), "huber")


class TestCombinedLoss:
    def test_lambda_zero_recovers_token_loss(self):
        lt = Tensor(0.7)
        ls = Tensor(123.4)
        out = losses.combined_loss(lt, ls, 0.0)
        assert out.item() == lt.item()

    def test_arithmetic(self):
        out = losses.combined_loss(Tensor(0.5), Tensor(0.01), 100.0)
        np.testing.assert_allclose(out.item(), 1.5, rtol=1e-15)

    def test_default_weight_is_100(self):
        assert LossConfig().ser_weight == 100.0

    def test_gradient_linearity(self):
        # d(combined)/dp == d(Lt)/dp + lambda * d(Ls)/dp, exactly.
        # Each branch touches p once so both sides accumulate one term.
        rng = np.random.default_rng(3)
        lam = 100.0
        c1 = Tensor(rng.normal(0, 1, (4,)))
        c2 = Tensor(rng.normal(0, 1, (4,)))

        def build(p):
            lt = (p * c1).sum()
            ls = (p * c2).sum()
            return lt, ls

        p = Tensor(rng.normal(0, 1, (4,)), requires_grad=True)
        with Tape() as tape:
            lt, ls = build(p)
            total = losses.combined_loss(lt, ls, lam)
        tape.backward(total)
        g_total = p.grad.copy()

        p.grad = None
        with Tape() as tape:
            lt, ls = build(p)
        tape.backward(lt)
        g_lt = p.grad.copy()

        p.grad = None
        with Tape() as tape:
            lt, ls = build(p)
        tape.backward(ls)
        g_ls = p.grad.copy()

        np.testing.assert_array_equal(g_total, g_lt + lam * g_ls)


class TestLossConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            LossConfig(label_smoothing=1.0)
        with pytest.raises(ValueError):
            LossConfig(ser_weight=-1)
        with pytest.raises(ValueError):
            LossConfig(beta=0.0)
        with pytest.raises(ValueError):
            LossConfig(ser_kind="nope")

    def test_ser_branch_switch(self):
        assert LossConfig(ser_weight=100).ser_enabled
        assert not LossConfig(ser_weight=0).ser_enabled
        assert LossConfig(ser_weight=0, ser_branch="on").ser_enabled
        assert not LossConfig(ser_weight=100, ser_branch="off").ser_enabled
