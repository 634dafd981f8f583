import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erf, ndtr

from sercap import autodiff as ad
from sercap.autodiff import Tape, Tensor


def rand(shape, seed=0, scale=1.0):
    return Tensor(np.random.default_rng(seed).normal(0, scale, shape), requires_grad=True)


class TestMatmul:
    def test_identity(self):
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = Tensor(np.eye(2))
        np.testing.assert_array_equal(ad.matmul(eye, b).data, b.data)

    def test_hand_case(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[0.0], [1.0]])
        np.testing.assert_array_equal(ad.matmul(a, b).data, [[2.0], [4.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_grad_check_3x4_4x2(self):
        a, b = rand((3, 4), seed=1), rand((4, 2), seed=2)
        report = ad.grad_check(lambda x, y: ad.matmul(x, y).sum(), [a, b])
        assert report.passed, report.max_rel_error

    def test_batched_weight_grad(self):
        # (B, L, k) @ (k, n): weight gradient sums over the batch
        x, w = rand((2, 3, 4), seed=3), rand((4, 5), seed=4)
        report = ad.grad_check(lambda a, b: (ad.matmul(a, b) * ad.matmul(a, b)).sum(), [x, w])
        assert report.passed


class TestSoftmax:
    def test_uniform(self):
        out = ad.softmax(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, rtol=1e-15)

    def test_hand_case(self):
        out = ad.softmax(Tensor([0.0, np.log(3.0)]))
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-15)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=8),
           st.floats(-100, 100))
    def test_shift_invariance(self, row, c):
        a = ad.softmax(Tensor(row)).data
        b = ad.softmax(Tensor(np.asarray(row) + c)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_rows_sum_to_one(self, seed):
        x = np.random.default_rng(seed).normal(0, 10, (4, 7))
        s = ad.softmax(Tensor(x), axis=-1).data
        np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(s > 0) and np.all(s < 1)

    def test_neg_inf_mask_rows(self):
        x = np.array([[1.0, -np.inf, 2.0]])
        s = ad.softmax(Tensor(x)).data
        assert s[0, 1] == 0.0
        np.testing.assert_allclose(s.sum(), 1.0, atol=1e-15)


class TestLayerNorm:
    def test_constant_row_zeroed(self):
        x = Tensor(np.full((3, 4), 7.0))
        out = ad.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)), eps=1e-5)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_hand_case(self):
        out = ad.layer_norm(Tensor([1.0, 3.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=0.0)
        np.testing.assert_allclose(out.data, [-1.0, 1.0], atol=1e-12)

    def test_axis_too_short(self):
        with pytest.raises(ValueError):
            ad.layer_norm(Tensor([[1.0]]), Tensor([1.0]), Tensor([0.0]))

    def test_grad_check(self):
        x, g, b = rand((3, 5), seed=5), rand((5,), seed=6), rand((5,), seed=7)
        report = ad.grad_check(
            lambda a, c, d: (ad.layer_norm(a, c, d, eps=1e-5) * ad.layer_norm(a, c, d, eps=1e-5)).sum(),
            [x, g, b],
        )
        assert report.passed, report.max_rel_error


class TestGelu:
    def test_zero(self):
        assert ad.gelu(Tensor(0.0)).item() == 0.0

    def test_large_positive(self):
        assert abs(ad.gelu(Tensor(10.0)).item() - 10.0) < 1e-9

    def test_one(self):
        np.testing.assert_allclose(ad.gelu(Tensor(1.0)).item(), 0.8413447460685429, rtol=1e-12)

    def test_grad_check(self):
        x = rand((4, 3), seed=8)
        assert ad.grad_check(lambda a: ad.gelu(a).sum(), [x]).passed

    def test_ndtr_matches_erf_form(self):
        # the forward takes Phi from ndtr; the textbook erf form differs
        # from it only in rounding
        x = np.random.default_rng(9).normal(0.0, 3.0, 20000)
        erf_phi = 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
        assert np.abs(ndtr(x) - erf_phi).max() <= 4.5e-16
        out = ad.gelu(Tensor(x)).data
        assert (np.abs(out - x * erf_phi) / np.maximum(1.0, np.abs(x))).max() <= 1e-15


class TestEmbedding:
    def test_row_gather(self):
        table = Tensor(np.arange(15.0).reshape(5, 3), requires_grad=True)
        out = ad.embedding_lookup(table, [0])
        np.testing.assert_array_equal(out.data, [[0.0, 1.0, 2.0]])

    def test_out_of_range(self):
        table = Tensor(np.zeros((5, 3)))
        with pytest.raises(IndexError):
            ad.embedding_lookup(table, [5])

    def test_repeated_id_accumulates(self):
        table = Tensor(np.zeros((4, 2)), requires_grad=True)
        with Tape() as tape:
            loss = ad.embedding_lookup(table, [1, 1]).sum()
        tape.backward(loss)
        np.testing.assert_array_equal(table.grad[1], [2.0, 2.0])
        np.testing.assert_array_equal(table.grad[0], [0.0, 0.0])

    def test_grad_check_5x3(self):
        table = rand((5, 3), seed=9)
        ids = np.array([0, 2, 2, 4])
        f = lambda t: (ad.embedding_lookup(t, ids) * ad.embedding_lookup(t, ids)).sum()
        assert ad.grad_check(f, [table]).passed


class TestDropout:
    def test_p_zero_identity(self):
        x = Tensor(np.ones((3, 3)))
        assert ad.dropout(x, 0.0, True, np.random.default_rng(0)) is x

    def test_eval_identity(self):
        x = Tensor(np.ones((3, 3)))
        assert ad.dropout(x, 0.5, False, np.random.default_rng(0)) is x

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            ad.dropout(Tensor([1.0]), 1.0, True, np.random.default_rng(0))

    @pytest.mark.parametrize("p", [0.2, 0.5])
    def test_keep_rate(self, p):
        x = Tensor(np.ones(100_000))
        out = ad.dropout(x, p, True, np.random.default_rng(42))
        keep_rate = np.count_nonzero(out.data) / x.size
        assert abs(keep_rate - (1 - p)) < 0.01

    def test_survivor_scaling(self):
        x = Tensor(np.ones(1000))
        out = ad.dropout(x, 0.25, True, np.random.default_rng(1))
        survivors = out.data[out.data != 0]
        np.testing.assert_allclose(survivors, 1.0 / 0.75)


class TestBackward:
    def test_sum_gives_ones(self):
        x = rand((2, 3), seed=10)
        with Tape() as tape:
            loss = x.sum()
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            loss = (x * x).sum()
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_non_scalar_rejected(self):
        x = rand((2, 2), seed=11)
        with Tape() as tape:
            y = x * 2.0
        with pytest.raises(ad.TapeError):
            tape.backward(y)

    def test_double_backward_rejected(self):
        x = rand((2,), seed=12)
        with Tape() as tape:
            loss = x.sum()
        tape.backward(loss)
        with pytest.raises(ad.TapeError):
            tape.backward(loss)

    def test_grads_accumulate_until_zeroed(self):
        x = Tensor([1.0, 1.0], requires_grad=True)
        for _ in range(2):
            with Tape() as tape:
                loss = x.sum()
            tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])
        x.zero_grad()
        np.testing.assert_array_equal(x.grad, [0.0, 0.0])

    def test_grads_finite_after_backward(self):
        x = rand((4, 4), seed=13)
        with Tape() as tape:
            loss = ad.softmax(ad.gelu(x)).sum()
        tape.backward(loss)
        assert np.all(np.isfinite(x.grad))

    def test_deterministic_forward_backward(self):
        def run():
            x = rand((5, 5), seed=99)
            with Tape() as tape:
                loss = (ad.softmax(ad.matmul(x, x)) * x).sum()
            tape.backward(loss)
            return loss.item(), x.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        np.testing.assert_array_equal(g1, g2)


def _layer_norm(x, g, b):
    return ad.layer_norm(x, g, b, eps=1e-5)


# op, input shapes: broadcast bias rows, a stacked input against a 2-D
# weight, and per-feature layer-norm parameters
LEAN_CASES = {
    "matmul": (ad.matmul, [(2, 3, 4), (4, 5)]),
    "matmul_2d": (ad.matmul, [(3, 4), (4, 5)]),
    "add": (ad.add, [(2, 3, 4), (4,)]),
    "sub": (ad.sub, [(3, 4), (3, 4)]),
    "mul": (ad.mul, [(3, 4), (1, 4)]),
    "div": (ad.div, [(3, 4), (4,)]),
    "layer_norm": (_layer_norm, [(2, 3, 4), (4,), (4,)]),
}


def _lean_run(name, frozen):
    """Gradients of a weighted sum of ``op(*inputs)``, inputs in ``frozen`` held fixed,
    plus what the op's VJP returned."""
    op, shapes = LEAN_CASES[name]
    rng = np.random.default_rng(21)
    inputs = [
        Tensor(rng.uniform(0.5, 2.0, s), requires_grad=i not in frozen) for i, s in enumerate(shapes)
    ]
    with Tape() as tape:
        out = op(*inputs)
        loss = (out * Tensor(rng.normal(0, 1, out.shape))).sum()
    vjp = tape._nodes[0][2]
    returned = vjp(np.ones(out.shape))
    tape.backward(loss)
    return inputs, returned


class TestLeanBackward:
    @pytest.mark.parametrize("name", sorted(LEAN_CASES))
    def test_frozen_input_gets_no_gradient(self, name):
        n = len(LEAN_CASES[name][1])
        reference, _ = _lean_run(name, frozen=())
        for k in range(n):
            inputs, returned = _lean_run(name, frozen=(k,))
            assert inputs[k].grad is None
            assert returned[k] is None, f"{name}: VJP computed the gradient of frozen input {k}"
            for i in set(range(n)) - {k}:
                np.testing.assert_array_equal(inputs[i].grad, reference[i].grad)

    def test_stacked_weight_gradient_matches_reduced_stack(self):
        rng = np.random.default_rng(22)
        x = Tensor(rng.normal(0, 1, (4, 6, 8)), requires_grad=True)
        w = Tensor(rng.normal(0, 1, (8, 5)), requires_grad=True)
        upstream = rng.normal(0, 1, (4, 6, 5))
        with Tape() as tape:
            loss = (ad.matmul(x, w) * Tensor(upstream)).sum()
        tape.backward(loss)
        stacked = np.matmul(np.swapaxes(x.data, -1, -2), upstream)
        reference = ad._unbroadcast(stacked, w.shape)
        np.testing.assert_allclose(w.grad, reference, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(x.grad, np.matmul(upstream, w.data.T))

    def test_flat_product_of_non_contiguous_stacked_input(self):
        rng = np.random.default_rng(26)
        x = Tensor(rng.normal(0, 1, (6, 4, 8)), requires_grad=True)
        w = Tensor(rng.normal(0, 1, (8, 5)), requires_grad=True)
        upstream = rng.normal(0, 1, (4, 6, 5))
        with Tape() as tape:
            out = ad.matmul(x.transpose((1, 0, 2)), w)
            loss = (out * Tensor(upstream)).sum()
        tape.backward(loss)
        xt = np.transpose(x.data, (1, 0, 2))
        assert out.shape == (4, 6, 5)
        np.testing.assert_allclose(out.data, np.matmul(xt, w.data), rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(
            x.grad, np.transpose(np.matmul(upstream, w.data.T), (1, 0, 2)), rtol=1e-12, atol=1e-15
        )
        reference = ad._unbroadcast(np.matmul(np.swapaxes(xt, -1, -2), upstream), w.shape)
        np.testing.assert_allclose(w.grad, reference, rtol=1e-12, atol=0)

    def test_leaf_gradient_is_its_own_buffer(self):
        # add hands the same upstream array to both inputs; the op output h
        # may keep it, each leaf must get a copy it can scale in place
        a, b = rand((3, 4), seed=27), rand((3, 4), seed=28)
        with Tape() as tape:
            h = a + b
            loss = (h + a).sum()
        tape.backward(loss)
        a.grad *= 0.0
        np.testing.assert_array_equal(b.grad, np.ones((3, 4)))

    def test_only_leaves_keep_gradients(self):
        x = rand((3, 4), seed=23)
        w = rand((4, 2), seed=24)
        with Tape() as tape:
            h = ad.gelu(ad.matmul(x, w))
            loss = (h * h).sum()
        n_nodes = len(tape)
        tape.backward(loss)
        assert h.grad is None and loss.grad is None
        assert x.grad is not None and w.grad is not None
        assert len(tape) == n_nodes
        with pytest.raises(ad.TapeError):
            tape.backward(loss)

    def test_activations_freed_during_backward(self):
        x = rand((64, 64), seed=25)
        with Tape() as tape:
            h = ad.gelu(x * 2.0)
            activation = weakref.ref(h.data)
            loss = (h * h).sum()
        del h
        gc.collect()
        assert activation() is not None
        tape.backward(loss)
        assert activation() is None
        assert len(tape) == 4


class TestGradCheck:
    def test_linear_exact(self):
        x = rand((3,), seed=14)
        report = ad.grad_check(lambda a: (a * 3.0).sum(), [x])
        assert report.max_rel_error < 1e-9

    def test_softmax_matmul_chain(self):
        a, b = rand((3, 4), seed=15), rand((4, 3), seed=16)
        report = ad.grad_check(
            lambda x, y: (ad.softmax(ad.matmul(x, y)) * ad.matmul(x, y)).sum(), [a, b]
        )
        assert report.max_rel_error < 1e-4

    def test_corrupted_gradient_flagged(self):
        x = rand((3,), seed=17)

        def corrupted(a):
            out = (a * a).sum()
            # sabotage the recorded vjp to emulate a wrong derivative
            if ad._TAPE_STACK:
                node = ad._TAPE_STACK[-1]._nodes[-1]
                ad._TAPE_STACK[-1]._nodes[-1] = (
                    node[0],
                    node[1],
                    lambda g: tuple(None if gi is None else gi * 1.5 for gi in node[2](g)),
                )
            return out

        report = ad.grad_check(corrupted, [x])
        assert not report.passed

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            ad.grad_check(lambda a: a.sum(), [rand((2,))], eps=0.0)


@pytest.mark.parametrize("seed", range(10))
def test_primitive_gradients_across_seeds(seed):
    """Every primitive's analytic gradient vs central differences, 10 seeds."""
    rng = np.random.default_rng(seed)

    def t(shape, scale=1.0):
        return Tensor(rng.normal(0, scale, shape), requires_grad=True)

    checks = [
        (lambda a, b: ad.matmul(a, b).sum(), [t((2, 3)), t((3, 2))]),
        (lambda a, b: (a * b).sum(), [t((3, 2)), t((3, 2))]),
        (lambda a, b: (a / b).sum(), [t((2, 2)), Tensor(rng.uniform(0.5, 2, (2, 2)), requires_grad=True)]),
        (lambda a: ad.softmax(a, axis=-1).sum(axis=0).mean(), [t((2, 4))]),
        (lambda a: (ad.log_softmax(a) * a).sum(), [t((2, 4))]),
        (lambda a, g, b: ad.layer_norm(a, g, b, 1e-5).mean(), [t((2, 4)), t((4,)), t((4,))]),
        (lambda a: ad.gelu(a).sum(), [t((5,))]),
        (lambda a: ad.absolute(a).sum(), [Tensor(rng.normal(0, 1, (4,)) + 0.2, requires_grad=True)]),
        (lambda a: ad.sqrt(a).sum(), [Tensor(rng.uniform(0.5, 3, (4,)), requires_grad=True)]),
        (lambda a: ad.exp(a).mean(), [t((3,))]),
        (lambda a: ad.log(a).sum(), [Tensor(rng.uniform(0.5, 3, (4,)), requires_grad=True)]),
        (lambda a: ad.concat([a, a], axis=0).sum(), [t((2, 2))]),
        (lambda a: a.reshape(6).sum(), [t((2, 3))]),
        (lambda a: a.transpose((1, 0)).mean(), [t((2, 3))]),
        (lambda a: ad.gather_last(a, np.array([0, 2])).sum(), [t((2, 3))]),
    ]
    for f, inputs in checks:
        report = ad.grad_check(f, inputs, eps=1e-5, rtol=1e-4)
        assert report.passed, f"{f} failed with {report.max_rel_error}"
