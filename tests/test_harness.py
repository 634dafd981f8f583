import json
import os
import struct
import sys
import threading
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from sercap import autodiff, blas, data, decoding, harness, metrics, model, optim
from sercap.cli import main
from sercap.config import ConfigError, ExperimentConfig, clone, to_manifest
from sercap.decoding import DecodeConfig
from sercap.harness import (
    CURVE_COLUMNS,
    CurveRow,
    NanLossError,
    _embed_captions_batch,
    build_experiment,
    evaluate_split,
    load_checkpoint,
    param_l2,
    plot_curves,
    read_curve,
    restore_model,
    run_ablation,
    save_checkpoint,
    sentence_embedder,
    train,
    write_curve,
)
from sercap.text import BOS_ID, load_stopwords, subword_tokenize, tokenize


def tiny_config(**overrides) -> ExperimentConfig:
    cfg = ExperimentConfig()
    cfg.model.d_model = 16
    cfg.model.decoder_layers = 1
    cfg.model.heads = 2
    cfg.model.d_ff = 32
    cfg.model.d_enc = 8
    cfg.model.d_sent = 16
    cfg.model.sent_heads = 2
    cfg.corpus.n_train = 8
    cfg.corpus.n_val = 4
    cfg.corpus.n_test = 4
    cfg.optim.epochs = 2
    cfg.batch_size = 4
    for key, value in overrides.items():
        obj = cfg
        parts = key.split("__")
        for part in parts[:-1]:
            obj = getattr(obj, part)
        setattr(obj, parts[-1], value)
    return cfg


def params_bytes(model) -> bytes:
    return b"".join(t.data.tobytes() for _, t in model.named_params())


class TestBuildExperiment:
    def test_split_sizes_and_refs(self):
        exp = build_experiment(tiny_config())
        assert len(exp.train_clips) == 8
        assert all(len(c.captions) == 1 for c in exp.train_clips)
        assert all(len(c.captions) == 5 for c in exp.val_clips)
        assert all(len(c.captions) == 5 for c in exp.test_clips)

    def test_model_config_unchanged_and_classifier_spans_vocab(self):
        cfg = tiny_config()
        want = clone(cfg).model
        exp = build_experiment(cfg)
        assert cfg.model == want
        assert exp.model.params["classifier.W"].shape == (cfg.model.d_model, exp.vocab.size)
        assert exp.model.params["classifier.b"].shape == (exp.vocab.size,)
        assert exp.vocab.kind == "word"
        assert exp.sent_vocab.kind == "subword"

    def test_subword_tokenizer_shares_vocab(self):
        exp = build_experiment(tiny_config(tokenizer="subword"))
        assert exp.vocab is exp.sent_vocab


class TestSentenceEmbedder:
    def test_single_caption_equals_embed_tokens_bitwise(self):
        exp = build_experiment(tiny_config())
        embed = sentence_embedder(exp.encoder, exp.sent_vocab)
        for cap in exp.val_clips[0].captions:
            want = exp.encoder.embed_tokens(np.asarray(subword_tokenize(cap, exp.sent_vocab))).data
            assert embed(cap).tobytes() == want.tobytes()

    def test_vector_independent_of_chunk_mates(self):
        exp = build_experiment(tiny_config())
        caps = sorted({c for clip in exp.val_clips + exp.test_clips for c in clip.captions})
        together = _embed_captions_batch(exp.encoder, exp.sent_vocab, caps, chunk=len(caps))
        for chunk in (1, 3, 7):
            apart = _embed_captions_batch(exp.encoder, exp.sent_vocab, caps, chunk=chunk)
            for cap in caps:
                np.testing.assert_allclose(apart[cap], together[cap], rtol=0, atol=1e-12)
        prefilled = sentence_embedder(exp.encoder, exp.sent_vocab)
        prefilled.vectors(caps)
        single = sentence_embedder(exp.encoder, exp.sent_vocab)
        for cap in caps:
            np.testing.assert_allclose(prefilled(cap), single(cap), rtol=0, atol=1e-12)

    def test_scoring_runs_one_encoder_call_per_length_group(self, monkeypatch):
        exp = build_experiment(tiny_config())
        items = [metrics.EvalItem(clip.captions[0], clip.captions[1:])
                 for clip in exp.val_clips + exp.test_clips]
        caps = {c for it in items for c in (it.candidate, *it.references)}
        ids = {c: subword_tokenize(c, exp.sent_vocab) for c in caps}
        per_length = Counter(len(t) for t in ids.values())
        assert len(per_length) < len(caps) and max(per_length.values()) > 2

        shapes = []
        real = model.SentenceEncoder.embed_tokens

        def counted(self, tokens, pad_mask=None):
            shapes.append(np.shape(tokens))
            return real(self, tokens, pad_mask)

        monkeypatch.setattr(model.SentenceEncoder, "embed_tokens", counted)
        _, got = metrics.sbert_metric(items, sentence_embedder(exp.encoder, exp.sent_vocab))
        assert sorted(shapes) == sorted((n, length) for length, n in per_length.items())
        shapes.clear()
        _embed_captions_batch(exp.encoder, exp.sent_vocab, caps, chunk=2)
        assert sorted(shapes) == sorted((min(2, n - i), length) for length, n in per_length.items()
                                        for i in range(0, n, 2))
        monkeypatch.undo()

        one = {c: exp.encoder.embed_tokens(np.asarray(t)).data for c, t in ids.items()}

        def cosine(a, b):
            return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

        want = [np.mean([cosine(one[it.candidate], one[r]) for r in it.references]) for it in items]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestSplitWork:
    """Embedding groups shared with the helper thread give the serial
    results bit for bit; the validation CE batches run in order on the
    helper, beside the decode on the caller."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(blas.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def test_embedded_groups_equal_serial_calls(self, monkeypatch):
        exp = build_experiment(tiny_config())
        caps = sorted({c for clip in exp.val_clips + exp.test_clips for c in clip.captions})
        ids = {c: subword_tokenize(c, exp.sent_vocab) for c in caps}
        by_length: dict[int, list[str]] = {}
        for c in sorted(caps, key=lambda c: (len(ids[c]), c)):
            by_length.setdefault(len(ids[c]), []).append(c)
        assert len(by_length) >= 2
        want = {}
        for group in by_length.values():
            want.update(zip(group, exp.encoder.embed_tokens([ids[c] for c in group]).data))

        threads = set()
        real = model.SentenceEncoder.embed_tokens

        def spied(self, tokens, pad_mask=None):
            threads.add(threading.get_ident())
            return real(self, tokens, pad_mask)

        monkeypatch.setattr(model.SentenceEncoder, "embed_tokens", spied)
        got = _embed_captions_batch(exp.encoder, exp.sent_vocab, caps)
        assert len(threads) == 2
        assert {c: v.tobytes() for c, v in got.items()} == {c: v.tobytes() for c, v in want.items()}

    def test_validation_ce_equals_serial_sum(self, monkeypatch):
        exp = build_experiment(tiny_config())
        exp.model.eval_mode()
        pairs = [tokenize(cap, exp.vocab) for clip in exp.val_clips for cap in clip.captions]
        feats = np.stack([clip.features for clip in exp.val_clips for _ in clip.captions])
        bs = exp.config.batch_size
        assert len(pairs) >= 2 * bs
        ce_num, ce_den = 0.0, 0.0
        for i in range(0, len(pairs), bs):
            in_ids, tgt_ids, mask = harness._teacher_forcing_batch(pairs[i : i + bs])
            out = exp.model.decode_teacher_forced(exp.model.encode_project(feats[i : i + bs]), in_ids,
                                                  training=False)
            ce = harness.cross_entropy_smoothed(out.logits, tgt_ids, mask, exp.config.loss.label_smoothing)
            ce_num += ce.item() * mask.sum()
            ce_den += mask.sum()

        threads = set()
        real = model.CaptionerModel.decode_teacher_forced

        def spied(self, *args, **kwargs):
            threads.add(threading.get_ident())
            return real(self, *args, **kwargs)

        monkeypatch.setattr(model.CaptionerModel, "decode_teacher_forced", spied)
        val_ce, _, _ = harness._validation_pass(exp, sentence_embedder(exp.encoder, exp.sent_vocab))
        assert len(threads) == 1
        assert np.float64(val_ce).tobytes() == np.float64(ce_num / ce_den).tobytes()


class TestBenchmarkHooks:
    # perfbench wraps or calls these by name; a rename must fail here first
    NAMES = {
        harness: ("build_experiment", "generate_split", "build_vocab", "restore_model",
                  "cross_entropy_smoothed", "ser_loss", "clip_global_norm", "_validation_pass",
                  "save_checkpoint", "decode_corpus", "has_fluency_error", "cosine_lr",
                  "write_curve", "_embed_captions_batch", "sentence_embedder", "train"),
        autodiff: ("matmul", "layer_norm", "softmax", "log_softmax", "gelu", "embedding_lookup",
                   "dropout"),
        data: ("load_clips",),
        decoding: ("decode_corpus", "beam_search"),
        metrics: ("evaluate_corpus", "cider_d", "sbert_metric", "has_fluency_error"),
        autodiff.Tape: ("__enter__", "__exit__", "backward"),
        model.CaptionerModel: ("__init__", "ser_project", "encode_project", "decode_teacher_forced",
                               "step_logits_batch"),
        model.SentenceEncoder: ("__init__", "embed_tokens", "embed_vectors"),
        optim.AdamW: ("step", "zero_grad"),
    }

    def test_instrumented_names_exist(self):
        for owner, names in self.NAMES.items():
            for name in names:
                assert callable(getattr(owner, name, None)), f"{owner.__name__}.{name}"

    def test_decode_config_constructor(self):
        cfg = DecodeConfig(beam_size=3, min_len=2, max_len=5, stopwords=load_stopwords())
        assert (cfg.beam_size, cfg.min_len, cfg.max_len) == (3, 2, 5)
        assert type(ExperimentConfig().decode) is DecodeConfig

    def test_experiment_decodes_with_the_config_section(self):
        cfg = tiny_config()
        assert build_experiment(cfg).decode_cfg is cfg.decode

    def test_decode_fields_set_later_are_revalidated(self):
        cfg = tiny_config()
        cfg.decode.max_len = cfg.decode.min_len  # as the pinned-length workloads set it
        assert build_experiment(cfg).decode_cfg.max_len == cfg.decode.min_len
        cfg.decode.max_len = cfg.decode.min_len - 1
        with pytest.raises(ValueError, match="min_len <= max_len"):
            build_experiment(cfg)


class TestTrain:
    def test_curve_one_row_per_epoch(self, tmp_path):
        res = train(tiny_config(), tmp_path / "run")
        assert len(res.curve) == 2
        assert [r.epoch for r in res.curve] == [0, 1]

    def test_curve_csv_schema(self, tmp_path):
        train(tiny_config(), tmp_path / "run")
        header = (tmp_path / "run" / "curve.csv").read_text().splitlines()[0]
        assert header == ",".join(CURVE_COLUMNS)

    def test_lr_follows_cosine_rule(self, tmp_path):
        res = train(tiny_config(optim__epochs=4), tmp_path / "run")
        lrs = [r.lr for r in res.curve]
        lr0 = 5e-4
        expected = [0.5 * (1 + np.cos(k * np.pi / 4)) * lr0 for k in range(4)]
        np.testing.assert_allclose(lrs, expected, rtol=1e-12)

    def test_selection_is_argmax_of_fense_history(self, tmp_path):
        res = train(tiny_config(optim__epochs=3), tmp_path / "run")
        hist = res.fense_history
        assert res.best_epoch == int(np.argmax(hist))
        best = load_checkpoint(res.best_ckpt)
        assert best["best_epoch"] == res.best_epoch

    def test_frozen_encoder_hash_stable(self, tmp_path):
        res = train(tiny_config(), tmp_path / "run")
        assert res.encoder_hash_before == res.encoder_hash_after

    def test_manifest_written_with_vocab_size(self, tmp_path):
        res = train(tiny_config(), tmp_path / "run")
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["model.vocab_size"] == res.experiment.vocab.size
        assert manifest["loss.lambda"] == 100.0

    def test_manifest_bytes(self, tmp_path):
        # the layout run directories have always carried: every config key,
        # the data-dependent vocab size and the frozen encoder's hash
        res = train(tiny_config(), tmp_path / "run")
        expected = to_manifest(res.experiment.config)
        expected["model.vocab_size"] = res.experiment.vocab.size
        expected["encoder_hash"] = res.experiment.encoder.param_hash()
        expected.update(blas.runtime_info())
        assert (tmp_path / "run" / "manifest.json").read_text() == \
            json.dumps(expected, indent=2, sort_keys=True) + "\n"

    def test_manifest_records_numpy_and_blas(self, tmp_path):
        with blas.single_threaded():
            train(tiny_config(optim__epochs=1), tmp_path / "run")
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["numpy"] == np.__version__
        build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert manifest["blas"]["name"] == build["name"] and manifest["blas"]["version"] == build["version"]
        assert manifest["blas"]["threads"] == [1] * len(blas.thread_counts())

    def test_clipped_ser_run_independent_of_blas_threads(self, tmp_path, monkeypatch):
        """A lambda > 0 run whose clip engages writes the same checkpoint on
        one BLAS thread as on several.  Its ff and SER weights have 20,480
        elements, past the size at which OpenBLAS splits a dot product: a
        clip norm summed with ``np.dot`` fails here."""
        counts = blas.thread_counts()
        if not counts:
            pytest.skip("no loaded OpenBLAS exports thread control")
        if len(os.sched_getaffinity(0)) < 2 or max(counts) < 2:
            pytest.skip("BLAS runs on one thread here")
        scales = []
        real_clip = harness.clip_global_norm

        def recorded_clip(grads, clip_norm):
            scales.append(real_clip(grads, clip_norm))
            return scales[-1]

        monkeypatch.setattr(harness, "clip_global_norm", recorded_clip)
        overrides = dict(model__d_model=32, model__d_ff=640, model__d_sent=640)
        assert tiny_config(**overrides).loss.ser_weight > 0
        threaded = train(tiny_config(**overrides), tmp_path / "threaded")
        with blas.single_threaded():
            single = train(tiny_config(**overrides), tmp_path / "single")
        assert min(scales) < 1.0
        assert threaded.last_ckpt.read_bytes() == single.last_ckpt.read_bytes()

    def test_nan_abort_writes_diagnostic(self, tmp_path, monkeypatch):
        # layer norm and stable softmax make organic NaNs nearly impossible
        # at this scale, so poison the loss to exercise the abort path
        import sercap.harness as harness
        from sercap.autodiff import Tensor

        real_ce = harness.cross_entropy_smoothed
        calls = []

        def poisoned(*args, **kwargs):
            calls.append(1)
            if len(calls) > 2:
                return Tensor(np.nan)
            return real_ce(*args, **kwargs)

        monkeypatch.setattr(harness, "cross_entropy_smoothed", poisoned)
        with pytest.raises(NanLossError):
            train(tiny_config(), tmp_path / "run")
        assert (tmp_path / "run" / "diagnostic.ckpt").exists()


class TestBaselineRecovery:
    def test_lambda_zero_bitwise_equals_branch_disabled(self, tmp_path):
        cfg_on = tiny_config(loss__ser_weight=0.0, loss__ser_branch="on")
        cfg_off = tiny_config(loss__ser_weight=0.0, loss__ser_branch="off")
        res_on = train(cfg_on, tmp_path / "on")
        res_off = train(cfg_off, tmp_path / "off")
        assert params_bytes(res_on.experiment.model) == params_bytes(res_off.experiment.model)
        assert [r.train_loss for r in res_on.curve] == [r.train_loss for r in res_off.curve]


class TestResume:
    def test_split_run_equals_straight_run_bitwise(self, tmp_path):
        cfg = tiny_config(optim__epochs=4)
        straight = train(cfg, tmp_path / "straight")

        train(tiny_config(optim__epochs=4), tmp_path / "split", stop_after=2)
        resumed = train(
            tiny_config(optim__epochs=4),
            tmp_path / "split",
            resume_from=tmp_path / "split" / "last.ckpt",
        )
        assert params_bytes(straight.experiment.model) == params_bytes(resumed.experiment.model)

    def test_resumed_fense_history_covers_all_epochs(self, tmp_path):
        straight = train(tiny_config(optim__epochs=4), tmp_path / "straight")
        train(tiny_config(optim__epochs=4), tmp_path / "split", stop_after=2)
        resumed = train(
            tiny_config(optim__epochs=4),
            tmp_path / "split",
            resume_from=tmp_path / "split" / "last.ckpt",
        )
        assert len(resumed.fense_history) == 4
        assert resumed.fense_history == straight.fense_history
        for name in ("fense_history.json", "last.ckpt", "best.ckpt"):
            assert (tmp_path / "split" / name).read_bytes() == \
                (tmp_path / "straight" / name).read_bytes(), name

    def test_resumed_curve_covers_all_epochs(self, tmp_path):
        train(tiny_config(optim__epochs=4), tmp_path / "run", stop_after=2)
        res = train(
            tiny_config(optim__epochs=4),
            tmp_path / "run",
            resume_from=tmp_path / "run" / "last.ckpt",
        )
        rows = read_curve(tmp_path / "run" / "curve.csv")
        assert [r.epoch for r in rows] == [0, 1, 2, 3]
        assert len(res.curve) == 4


class TestBatchParts:
    """Every batch trains as two parts, each on its own replica and tape."""

    def test_run_bits_independent_of_cpu_count(self, tmp_path, monkeypatch):
        cfg = tiny_config()
        assert cfg.model.dropout > 0 and cfg.loss.ser_weight > 0
        threads = set()
        real = model.CaptionerModel.decode_teacher_forced

        def spied(self, *args, **kwargs):
            if kwargs.get("training"):
                threads.add(threading.get_ident())
            return real(self, *args, **kwargs)

        monkeypatch.setattr(model.CaptionerModel, "decode_teacher_forced", spied)
        interval = sys.getswitchinterval()
        for cpus in (1, 2):
            monkeypatch.setattr(blas, "_cpu_count", lambda: cpus)
            threads.clear()
            # frequent thread switches interleave the two parts finely
            sys.setswitchinterval(1e-5)
            try:
                train(tiny_config(), tmp_path / f"cpus{cpus}")
            finally:
                sys.setswitchinterval(interval)
            assert len(threads) == cpus
        for name in ("last.ckpt", "curve.csv", "fense_history.json"):
            assert (tmp_path / "cpus1" / name).read_bytes() == (tmp_path / "cpus2" / name).read_bytes(), name

    @pytest.mark.parametrize("kind, lam", [("smooth_l1", 100.0), ("mse", 100.0), ("l1", 100.0),
                                           ("cosine", 100.0), ("smooth_l1", 0.0)])
    def test_part_gradients_sum_to_the_batch_gradient(self, kind, lam):
        cfg = tiny_config(model__dropout=0.0, loss__ser_kind=kind, loss__ser_weight=lam,
                          loss__ser_branch="on")
        exp = build_experiment(cfg)
        clips = exp.train_clips[:5]
        seqs = [tokenize(c.captions[0], exp.vocab) for c in clips]
        assert len({len(s) for s in seqs}) > 1
        feats = np.stack([c.features for c in clips])
        vectors = _embed_captions_batch(exp.encoder, exp.sent_vocab, [c.captions[0] for c in clips])
        targets = np.stack([vectors[c.captions[0]] for c in clips])

        net = exp.model
        in_ids, tgt_ids, mask = harness._teacher_forcing_batch(seqs)
        with autodiff.Tape() as tape:
            out = net.decode_teacher_forced(net.encode_project(feats), in_ids, training=True)
            ce = harness.cross_entropy_smoothed(out.logits, tgt_ids, mask, cfg.loss.label_smoothing)
            pred = exp.encoder.embed_vectors(net.ser_project(out.token_embeddings), mask)
            reg = harness.ser_loss(pred, autodiff.Tensor(targets), kind, cfg.loss.beta)
            loss = harness.combined_loss(ce, reg, lam)
        tape.backward(loss)
        want = {name: t.grad for name, t in net.named_params()}

        replicas = [net.replica(), net.replica()]
        rngs = [np.random.default_rng(0), np.random.default_rng(1)]
        parts = harness._batch_parts(seqs, feats, targets, replicas, rngs)
        assert len(parts) == 2 and all(p.seqs for p in parts)
        got_loss = sum(harness._part_backward(exp, p) for p in parts)
        for _, t in net.named_params():
            t.grad = None
        harness._sum_part_grads(net, replicas)
        np.testing.assert_allclose(got_loss, loss.item(), rtol=1e-12)
        for name, t in net.named_params():
            assert all(r.params[name].data is t.data for r in replicas)
            np.testing.assert_allclose(t.grad, want[name], rtol=1e-12, atol=1e-12 * np.abs(want[name]).max(),
                                       err_msg=name)

    def test_cut_balances_target_tokens_in_batch_order(self):
        seqs = [[BOS_ID] + [5] * n for n in (3, 1, 1, 1, 4)]
        replicas, rngs = ["net0", "net1"], ["rng0", "rng1"]
        feats = np.arange(5.0)
        parts = harness._batch_parts(seqs, feats, None, replicas, rngs)
        # target tokens 3, 1, 1, 1, 4: the first three weigh 5 of 10
        assert [p.seqs for p in parts] == [seqs[:3], seqs[3:]]
        assert [p.feats.tolist() for p in parts] == [[0.0, 1.0, 2.0], [3.0, 4.0]]
        assert [(p.net, p.rng, p.targets) for p in parts] == [("net0", "rng0", None), ("net1", "rng1", None)]
        assert [(p.token_share, p.caption_share) for p in parts] == [(0.5, 0.6), (0.5, 0.4)]
        one = harness._batch_parts(seqs[:1], feats[:1], np.ones((1, 2)), replicas, rngs)
        assert [(p.net, p.token_share, p.caption_share) for p in one] == [("net0", 1.0, 1.0)]

    def test_one_caption_batch_trains(self, tmp_path, monkeypatch):
        cfg = tiny_config(corpus__n_train=5, optim__epochs=1)
        before = params_bytes(build_experiment(tiny_config(corpus__n_train=5)).model)
        sizes = []
        real = harness._batch_parts

        def recorded(seqs, *args):
            sizes.append(len(seqs))
            return real(seqs, *args)

        monkeypatch.setattr(harness, "_batch_parts", recorded)
        res = train(cfg, tmp_path / "run")
        assert sizes == [4, 1]
        assert np.isfinite(res.curve[0].train_loss)
        assert params_bytes(res.experiment.model) != before


def resave(src: Path, dst: Path, corrupt=None) -> None:
    """Write the state loaded from checkpoint ``src`` to ``dst``, after
    ``corrupt(model)`` when given.  The moments are read as ``train``
    reads them on a resume."""
    model, encoder, vocab, sent_vocab, config = restore_model(src)
    opt = optim.AdamW(optim.make_param_groups(model.named_params()), config.optim)
    with harness.CheckpointReader(src) as ckpt:
        ckpt.read_into({"optim/" + k: a for k, a in opt.state_arrays()})
    header = ckpt.header
    opt.step_count = header["step_count"]
    if corrupt is not None:
        corrupt(model)
    save_checkpoint(
        dst,
        config=config,
        model=model,
        optimizer=opt,
        vocab=vocab,
        sent_vocab=sent_vocab,
        epoch=header["epoch"],
        best_fense=header["best_fense"],
        best_epoch=header["best_epoch"],
        rng_states=header["rng"],
        fense_history=header["fense_history"],
    )


def edit_header(src: Path, dst: Path, edit) -> Path:
    """Copy checkpoint ``src`` to ``dst`` with ``edit(header)`` applied to
    its JSON header; the arrays are copied unchanged."""
    raw = src.read_bytes()
    header_len = struct.unpack("<IQ", raw[4:16])[1]
    header = json.loads(raw[16 : 16 + header_len])
    edit(header)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    dst.write_bytes(raw[:4] + struct.pack("<IQ", 1, len(blob)) + blob + raw[16 + header_len :])
    return dst


class TestCheckpoint:
    def test_save_load_save_byte_identical(self, tmp_path):
        res = train(tiny_config(), tmp_path / "run")
        first = res.last_ckpt.read_bytes()
        resave(res.last_ckpt, tmp_path / "again.ckpt")
        assert (tmp_path / "again.ckpt").read_bytes() == first
        resave(tmp_path / "again.ckpt", res.last_ckpt)
        assert res.last_ckpt.read_bytes() == first

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path):
        res = train(tiny_config(), tmp_path / "run")
        before = res.last_ckpt.read_bytes()
        expected = load_checkpoint(res.last_ckpt)["array_data"]

        def unwritable_last_param(model):
            _, last = list(model.named_params())[-1]
            last.data = np.full(last.shape, "x")  # fails after the earlier arrays are written

        with pytest.raises(ValueError):
            resave(res.last_ckpt, res.last_ckpt, corrupt=unwritable_last_param)
        assert res.last_ckpt.read_bytes() == before
        loaded = load_checkpoint(res.last_ckpt)["array_data"]
        assert loaded.keys() == expected.keys()
        assert all(loaded[k].tobytes() == expected[k].tobytes() for k in expected)
        assert not list(res.last_ckpt.parent.glob("*.tmp"))

    def test_truncated_or_overlong_checkpoint_names_file_and_array(self, tmp_path):
        res = train(tiny_config(), tmp_path / "run")
        raw = res.last_ckpt.read_bytes()
        last_array = load_checkpoint(res.last_ckpt)["arrays"][-1]["name"]
        short, long = tmp_path / "short.ckpt", tmp_path / "long.ckpt"
        short.write_bytes(raw[:-1])
        long.write_bytes(raw + b"\x00")
        with pytest.raises(ValueError, match="truncated") as err:
            load_checkpoint(short)
        assert str(short) in str(err.value) and last_array in str(err.value)
        with pytest.raises(ValueError, match="after the last array") as err:
            load_checkpoint(long)
        assert str(long) in str(err.value)

    def test_restore_model_reproduces_logits(self, tmp_path):
        res = train(tiny_config(), tmp_path / "run")
        src = res.experiment.model
        restored, _, vocab, _, _ = restore_model(res.last_ckpt)
        feats = res.experiment.test_clips[0].features
        prefix = np.array([BOS_ID, 4])
        a = src.step_logits(src.encode_project(feats).data, prefix)
        b = restored.step_logits(restored.encode_project(feats).data, prefix)
        assert a.tobytes() == b.tobytes()

    def test_header_without_fense_history_reads_empty(self, tmp_path):
        res = train(tiny_config(), tmp_path / "run")

        def drop_history(header):
            assert len(header.pop("fense_history")) == 2

        old = edit_header(res.last_ckpt, tmp_path / "old.ckpt", drop_history)
        assert load_checkpoint(old)["fense_history"] == []
        restored, *_ = restore_model(old)
        assert params_bytes(restored) == params_bytes(res.experiment.model)

    def test_header_with_empty_stopwords_file_restores(self, tmp_path):
        # every checkpoint written before decode.stopwords_file was removed
        # records it, empty unless the run named an outside stopword list
        src = untrained_checkpoint(tmp_path / "m.ckpt")
        old = edit_header(src, tmp_path / "old.ckpt",
                          lambda header: header["config"].update({"decode.stopwords_file": ""}))
        want_model, _, _, _, want = restore_model(src)
        restored, _, _, _, config = restore_model(old)
        assert to_manifest(config) == to_manifest(want)
        assert params_bytes(restored) == params_bytes(want_model)

    def test_header_with_vocab_size_restores(self, tmp_path):
        # every checkpoint written while the config held the vocabulary
        # size records it beside the vocabulary itself
        src = untrained_checkpoint(tmp_path / "m.ckpt")
        assert "model.vocab_size" not in load_checkpoint(src)["config"]
        old = edit_header(src, tmp_path / "old.ckpt", lambda header: header["config"].update(
            {"model.vocab_size": len(header["vocab"]["tokens"])}))
        want_model, _, _, _, want = restore_model(src)
        restored, _, _, _, config = restore_model(old)
        assert to_manifest(config) == to_manifest(want)
        assert params_bytes(restored) == params_bytes(want_model)

    @pytest.mark.parametrize("key, value", [("decode.stopwords_file", "mystop.txt"),
                                            ("model.width", 12)])
    def test_header_with_unsupported_key_is_a_config_error(self, tmp_path, capsys, key, value):
        src = untrained_checkpoint(tmp_path / "m.ckpt")
        old = edit_header(src, tmp_path / "old.ckpt",
                          lambda header: header["config"].update({key: value}))
        with pytest.raises(ConfigError, match=key):
            restore_model(old)
        out = tmp_path / "decoded.txt"
        rc = main(["decode", "--checkpoint", str(old), "--features", str(tmp_path / "none.bin"),
                   "--out", str(out)])
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_header_config_is_validated(self, tmp_path):
        # a header's config goes through the same checks as a config file's lines
        src = untrained_checkpoint(tmp_path / "m.ckpt")
        bad = edit_header(src, tmp_path / "bad.ckpt",
                          lambda header: header["config"].update({"loss.label_smoothing": 1.5}))
        with pytest.raises(ConfigError, match="label_smoothing"):
            restore_model(bad)

    def test_header_config_values_are_coerced(self, tmp_path):
        src = untrained_checkpoint(tmp_path / "m.ckpt")
        old = edit_header(src, tmp_path / "old.ckpt",
                          lambda header: header["config"].update({"optim.wd": 2}))
        config = restore_model(old)[4]
        assert type(config.optim.weight_decay) is float and config.optim.weight_decay == 2.0

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"JUNK" + b"\x00" * 64)
        with pytest.raises(ValueError):
            load_checkpoint(p)


def untrained_checkpoint(path: Path, **overrides) -> Path:
    """A seed-initialised captioner with fresh AdamW moments, saved to ``path``."""
    cfg = tiny_config(**overrides)
    exp = build_experiment(cfg)
    opt = optim.AdamW(optim.make_param_groups(exp.model.named_params()), cfg.optim)
    save_checkpoint(path, config=cfg, model=exp.model, optimizer=opt, vocab=exp.vocab,
                    sent_vocab=exp.sent_vocab, epoch=0, best_fense=0.0, best_epoch=-1,
                    rng_states={})
    return path


def with_key_biases(src: Path, dst: Path) -> Path:
    """Copy checkpoint ``src`` to ``dst`` in the older format whose captioner
    had attention key biases: a nonzero ``param/dec{i}.{self,cross}.bk``
    after each ``bq``, and its two moments among the sorted ``optim/``
    arrays."""
    ckpt = load_checkpoint(src)
    data = ckpt.pop("array_data")
    rng = np.random.default_rng(0)
    params = [(m["name"], data[m["name"]]) for m in ckpt["arrays"] if m["name"].startswith("param/")]
    moments = [(m["name"], data[m["name"]]) for m in ckpt["arrays"] if m["name"].startswith("optim/")]
    with_bk = []
    for name, a in params:
        with_bk.append((name, a))
        if name.endswith(".bq"):
            bk = name[len("param/") : -len("bq")] + "bk"
            with_bk.append(("param/" + bk, rng.normal(0, 0.1, a.shape)))
            moments += [(f"optim/{bk}/m", rng.normal(0, 1e-3, a.shape)),
                        (f"optim/{bk}/v", rng.uniform(0, 1e-6, a.shape))]
    arrays = with_bk + sorted(moments, key=lambda kv: kv[0])
    ckpt["arrays"] = [{"name": n, "shape": list(a.shape)} for n, a in arrays]
    blob = json.dumps(ckpt, sort_keys=True).encode("utf-8")
    dst.write_bytes(harness.CKPT_MAGIC + struct.pack("<IQ", harness.CKPT_VERSION, len(blob)) + blob
                    + b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for _, a in arrays))
    return dst


class TestKeyBiasCheckpoints:
    def test_restored_model_decodes_as_without_the_key_biases(self, tmp_path):
        res = train(tiny_config(), tmp_path / "run")
        old = with_key_biases(res.last_ckpt, tmp_path / "old.ckpt")
        assert harness.CKPT_VERSION == 1
        names = {m["name"] for m in load_checkpoint(old)["arrays"]}
        assert {f"{kind}dec0.{blk}.bk{moment}" for blk in ("self", "cross")
                for kind, moment in [("param/", ""), ("optim/", "/m"), ("optim/", "/v")]} <= names
        feats = [c.features for c in res.experiment.test_clips]
        decoded = []
        for path in (res.last_ckpt, old):
            net, _, vocab, _, config = restore_model(path)
            decoded.append([(h.tokens, h.log_prob) for h in harness.decode_split(net, feats, config.decode, vocab)])
        assert decoded[0] == decoded[1]
        assert all(type(lp) is type(want) for (_, lp), (_, want) in zip(decoded[1], decoded[0]))

    def test_resume_from_an_old_checkpoint_equals_the_straight_run(self, tmp_path):
        straight = train(tiny_config(optim__epochs=4), tmp_path / "straight")
        train(tiny_config(optim__epochs=4), tmp_path / "split", stop_after=2)
        last = tmp_path / "split" / "last.ckpt"
        old = with_key_biases(last, tmp_path / "old.ckpt")
        resumed = train(tiny_config(optim__epochs=4), tmp_path / "split", resume_from=old)
        assert params_bytes(resumed.experiment.model) == params_bytes(straight.experiment.model)
        assert last.read_bytes() == (tmp_path / "straight" / "last.ckpt").read_bytes()


class TestCheckpointReader:
    def test_restore_peak_is_parameters_only(self, tmp_path):
        # no optimizer moments and no second copy of the parameters: the
        # arrays are read into the models' own buffers
        src = untrained_checkpoint(tmp_path / "m.ckpt", model__d_model=128, model__d_ff=512,
                                   model__decoder_layers=2)
        restore_model(src)  # imports and first-call caches stay out of the measurement
        tracemalloc.start()
        try:
            net, encoder, *_ = restore_model(src)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        captioner = sum(t.data.nbytes for _, t in net.named_params())
        frozen = sum(t.data.nbytes for _, t in encoder.params.named())
        assert peak <= captioner + frozen + 0.1 * captioner

    def test_restored_params_equal_all_arrays_load(self, tmp_path):
        res = train(tiny_config(), tmp_path / "run")
        arrays = load_checkpoint(res.last_ckpt)["array_data"]
        restored, *_ = restore_model(res.last_ckpt)
        for name, t in restored.named_params():
            assert t.data.tobytes() == arrays["param/" + name].tobytes(), name
        model = res.experiment.model
        for _, t in model.named_params():
            t.data[...] = 0.0
        harness.load_params(model, res.last_ckpt)
        assert params_bytes(model) == params_bytes(restored)

    def test_optimizer_moments_roundtrip_bitwise(self, tmp_path):
        cfg = tiny_config()
        exp = build_experiment(cfg)
        opt = optim.AdamW(optim.make_param_groups(exp.model.named_params()), cfg.optim)
        rng = np.random.default_rng(9)
        for _ in range(3):
            for _, t in exp.model.named_params():
                t.grad = rng.normal(0, 1, t.shape)
            opt.step(lr=1e-3)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, config=cfg, model=exp.model, optimizer=opt, vocab=exp.vocab,
                        sent_vocab=exp.sent_vocab, epoch=1, best_fense=0.0, best_epoch=-1,
                        rng_states={})
        fresh = optim.AdamW(optim.make_param_groups(exp.model.named_params()), cfg.optim)
        with harness.CheckpointReader(path) as ckpt:
            ckpt.read_into({"optim/" + k: a for k, a in fresh.state_arrays()})
        assert ckpt.header["step_count"] == opt.step_count
        for (k1, a1), (k2, a2) in zip(opt.state_arrays(), fresh.state_arrays()):
            assert k1 == k2
            assert a1.tobytes() == a2.tobytes()

    def test_cut_inside_skipped_optimizer_section(self, tmp_path):
        src = untrained_checkpoint(tmp_path / "m.ckpt")
        raw = src.read_bytes()
        metas = load_checkpoint(src)["arrays"]
        sizes = [8 * int(np.prod(m["shape"])) for m in metas]
        k = max((i for i, m in enumerate(metas) if m["name"].startswith("optim/")),
                key=lambda i: sizes[i])
        start = len(raw) - sum(sizes[k:])
        short = tmp_path / "short.ckpt"
        short.write_bytes(raw[: start + sizes[k] // 2])
        with pytest.raises(ValueError, match="truncated") as err:
            restore_model(short)
        assert str(short) in str(err.value) and metas[k]["name"] in str(err.value)
        long = tmp_path / "long.ckpt"
        long.write_bytes(raw + b"\x00" * 8)
        with pytest.raises(ValueError, match="8 unexpected bytes after the last array") as err:
            restore_model(long)
        assert str(long) in str(err.value)

    def test_shape_mismatch_names_parameter(self, tmp_path):
        src = untrained_checkpoint(tmp_path / "m.ckpt")
        wider = build_experiment(tiny_config(model__d_ff=48)).model
        with pytest.raises(ValueError, match="shape mismatch loading param/dec0.ff.W1"):
            harness.load_params(wider, src)


class TestEvaluateSplit:
    def test_report_and_candidates(self, tmp_path):
        res = train(tiny_config(), tmp_path / "run")
        report, candidates = evaluate_split(res.experiment, res.experiment.test_clips)
        assert len(candidates) == 4
        assert report.cider_d is not None
        assert report.fense is not None
        assert report.n_words >= 1


class TestAblation:
    def test_grid_has_eight_cells(self, tmp_path):
        base = tiny_config(optim__epochs=1, n_seeds=1)
        report = run_ablation(base, tmp_path / "abl")
        assert len(report["cells"]) == 8
        for label, cell in report["cells"].items():
            assert cell["status"] == "ok", (label, cell)
            assert set(cell["mean"]) >= {"cider_d", "fense", "sbert", "flu_err", "n_words"}
        assert (tmp_path / "abl" / "ablation.json").exists()
        assert (tmp_path / "abl" / "ablation.md").exists()

    def test_seed_mean_of_constant_metric(self, tmp_path):
        base = tiny_config(optim__epochs=1, n_seeds=2)
        report = run_ablation(base, tmp_path / "abl")
        for cell in report["cells"].values():
            per_seed = [r["metrics"]["flu_err"] for r in cell["per_seed"]]
            assert cell["mean"]["flu_err"] == pytest.approx(np.mean(per_seed))

    def test_failed_cell_marked_not_dropped(self, tmp_path, monkeypatch):
        import sercap.harness as harness

        real_train = harness.train

        def sometimes_failing(config, out_dir, resume_from=None):
            if config.tokenizer == "subword" and config.loss.ser_weight == 0.0:
                raise RuntimeError("boom")
            return real_train(config, out_dir, resume_from)

        monkeypatch.setattr(harness, "train", sometimes_failing)
        report = harness.run_ablation(tiny_config(optim__epochs=1, n_seeds=1), tmp_path / "abl")
        statuses = {k: c["status"] for k, c in report["cells"].items()}
        assert len(statuses) == 8
        failed = [k for k, s in statuses.items() if s == "failed"]
        assert len(failed) == 2  # subword x lam0 x {wd}
        for k in failed:
            assert "boom" in report["cells"][k]["error"]


class TestPlotCurves:
    def test_combined_csv_schema(self, tmp_path):
        res = train(tiny_config(), tmp_path / "runA")
        plot_curves([tmp_path / "runA" / "curve.csv"], tmp_path / "all.csv")
        lines = (tmp_path / "all.csv").read_text().splitlines()
        assert lines[0] == "run," + ",".join(CURVE_COLUMNS)
        assert len(lines) == 1 + len(res.curve)

    def test_runs_named_by_path_below_common_parent(self, tmp_path):
        rows = [CurveRow(0, 1.0, 2.0, 0.5, 5e-4)]
        files = [tmp_path / "abl" / cell / "seed0" / "curve.csv" for cell in ("cellA", "cellB")]
        for f in files:
            f.parent.mkdir(parents=True)
            write_curve(rows, f)
        plot_curves(files, tmp_path / "all.csv")
        names = [line.split(",")[0] for line in (tmp_path / "all.csv").read_text().splitlines()[1:]]
        assert names == ["cellA/seed0", "cellB/seed0"]

    def test_png_without_matplotlib_names_plot_extra(self, tmp_path, monkeypatch):
        write_curve([CurveRow(0, 1.0, 2.0, 0.5, 5e-4)], tmp_path / "curve.csv")
        monkeypatch.setitem(sys.modules, "matplotlib", None)
        with pytest.raises(ImportError, match="'plot' extra"):
            plot_curves([tmp_path / "curve.csv"], tmp_path / "all.csv", tmp_path / "all.png")
        assert not (tmp_path / "all.png").exists()

    def test_png_rendered_when_requested(self, tmp_path):
        # matplotlib is the optional "plot" extra; the missing-extra error
        # is test_png_without_matplotlib_names_plot_extra's case
        pytest.importorskip("matplotlib")
        train(tiny_config(), tmp_path / "runA")
        plot_curves([tmp_path / "runA" / "curve.csv"], tmp_path / "all.csv", tmp_path / "all.png")
        assert (tmp_path / "all.png").stat().st_size > 0


class TestParamNorm:
    def test_param_l2_positive_and_split(self, tmp_path):
        res = train(tiny_config(), tmp_path / "run")
        decayed = param_l2(res.experiment.model)
        exempt = param_l2(res.experiment.model, exempt=True)
        assert decayed > 0
        assert exempt >= 0
        total_sq = sum(
            float(np.sum(t.data**2)) for _, t in res.experiment.model.named_params()
        )
        np.testing.assert_allclose(decayed**2 + exempt**2, total_sq, rtol=1e-10)
