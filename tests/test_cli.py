import json
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

from sercap.cli import build_parser, main
from sercap.config import ExperimentConfig

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
from sercap.harness import CurveRow, write_curve


def write_tiny_config(path: Path, **extra) -> Path:
    lines = [
        "model.d_model=16",
        "model.layers=1",
        "model.heads=2",
        "model.d_ff=32",
        "model.d_enc=8",
        "model.d_sent=16",
        "model.sent_heads=2",
        "corpus.n_train=8",
        "corpus.n_val=4",
        "corpus.n_test=4",
        "optim.epochs=2",
        "experiment.batch_size=4",
    ]
    lines += [f"{k}={v}" for k, v in extra.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


class TestSynthData:
    def test_writes_three_splits(self, tmp_path):
        rc = main([
            "synth-data", "--out", str(tmp_path / "data"),
            "--n-train", "6", "--n-val", "3", "--n-test", "3", "--d-enc", "8",
        ])
        assert rc == 0
        for split in ("train", "val", "test"):
            assert (tmp_path / "data" / f"{split}_features.bin").exists()
            assert (tmp_path / "data" / f"{split}_captions.jsonl").exists()
        raw = (tmp_path / "data" / "train_features.bin").read_bytes()
        assert raw[:4] == b"SCFB"
        version, n, t, d = struct.unpack("<IIII", raw[4:20])
        assert (n, t, d) == (6, 31, 8)
        stats = json.loads((tmp_path / "data" / "stats.json").read_text())
        assert stats["train"]["n_clips"] == 6


class TestParserDefaults:
    def test_defaults_equal_config_defaults(self):
        cfg = ExperimentConfig()
        c = cfg.corpus
        parser = build_parser()
        synth = parser.parse_args(["synth-data", "--out", "x"])
        assert (synth.seed, synth.grammar_seed, synth.n_train, synth.n_val, synth.n_test,
                synth.noise_sigma, synth.frames, synth.d_enc) == \
            (c.seed, c.grammar_seed, c.n_train, c.n_val, c.n_test, c.noise_sigma, c.frames,
             cfg.model.d_enc)
        ev = parser.parse_args(["evaluate", "--candidates", "c", "--references", "r", "--out", "o"])
        assert (ev.vocab_size, ev.d_sent, ev.encoder_seed) == \
            (cfg.subword_vocab_size, cfg.model.d_sent, cfg.model.sent_seed)


class TestTrainDecode:
    def test_train_then_decode(self, tmp_path):
        cfg = write_tiny_config(tmp_path / "run.cfg")
        rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert rc == 0
        assert (tmp_path / "run" / "best.ckpt").exists()
        assert (tmp_path / "run" / "last.ckpt").exists()
        assert (tmp_path / "run" / "curve.csv").exists()
        assert (tmp_path / "run" / "manifest.json").exists()

        rc = main([
            "synth-data", "--out", str(tmp_path / "data"),
            "--n-train", "2", "--n-val", "2", "--n-test", "2", "--d-enc", "8",
        ])
        assert rc == 0
        out = tmp_path / "decoded.txt"
        rc = main([
            "decode", "--checkpoint", str(tmp_path / "run" / "best.ckpt"),
            "--features", str(tmp_path / "data" / "test_features.bin"),
            "--out", str(out),
        ])
        assert rc == 0
        captions = out.read_text().splitlines()
        assert len(captions) == 2
        sidecar = json.loads(out.with_suffix(".txt.json").read_text())
        assert len(sidecar) == 2
        assert all("log_prob" in rec and "caption" in rec for rec in sidecar)
        assert all(rec["log_prob"] <= 0 for rec in sidecar)

    def test_decode_respects_length_flags(self, tmp_path):
        cfg = write_tiny_config(tmp_path / "run.cfg")
        main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
        main([
            "synth-data", "--out", str(tmp_path / "data"),
            "--n-train", "2", "--n-val", "2", "--n-test", "2", "--d-enc", "8",
        ])
        out = tmp_path / "short.txt"
        rc = main([
            "decode", "--checkpoint", str(tmp_path / "run" / "best.ckpt"),
            "--features", str(tmp_path / "data" / "test_features.bin"),
            "--out", str(out), "--set", "decode.min_len=2", "--set", "decode.max_len=4",
        ])
        assert rc == 0
        sidecar = json.loads(out.with_suffix(".txt.json").read_text())
        for rec in sidecar:
            emitted = len(rec["tokens"]) - 2  # minus bos/eos
            assert 2 <= emitted <= 4


class TestEvaluate:
    def _write_inputs(self, tmp_path):
        (tmp_path / "cands.txt").write_text("a dog barks\nthe rain patters\n")
        with (tmp_path / "refs.jsonl").open("w") as fh:
            fh.write(json.dumps({"references": ["a dog barks loudly", "a puppy yaps"]}) + "\n")
            fh.write(json.dumps({"references": ["the rain falls", "a heavy rain pours"]}) + "\n")

    def test_report_json(self, tmp_path):
        self._write_inputs(tmp_path)
        out = tmp_path / "report.json"
        rc = main([
            "evaluate", "--candidates", str(tmp_path / "cands.txt"),
            "--references", str(tmp_path / "refs.jsonl"), "--out", str(out),
            "--d-sent", "32",
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["cider_d"] is not None
        assert report["spider"] is None  # no SPICE file supplied
        assert report["fense"] is not None
        for key in ("cider_d", "sbert", "fense"):
            assert round(report[key], 6) == report[key]

    def test_spice_file_enables_spider(self, tmp_path):
        self._write_inputs(tmp_path)
        (tmp_path / "spice.json").write_text(json.dumps([0.2, 0.4]))
        out = tmp_path / "report.json"
        rc = main([
            "evaluate", "--candidates", str(tmp_path / "cands.txt"),
            "--references", str(tmp_path / "refs.jsonl"), "--out", str(out),
            "--spice-scores", str(tmp_path / "spice.json"), "--d-sent", "32",
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["spice"] == pytest.approx(0.3, abs=1e-6)
        assert report["spider"] == pytest.approx((report["cider_d"] + 0.3) / 2, abs=1e-6)

    def test_item_score_ignores_other_candidates(self, tmp_path):
        self._write_inputs(tmp_path)
        per_item = []
        for other in ("the rain patters", "a violin hums beside humming kettles"):
            (tmp_path / "cands.txt").write_text(f"a dog barks\n{other}\n")
            out = tmp_path / "report.json"
            rc = main([
                "evaluate", "--candidates", str(tmp_path / "cands.txt"),
                "--references", str(tmp_path / "refs.jsonl"), "--out", str(out),
                "--d-sent", "32",
            ])
            assert rc == 0
            per_item.append(json.loads(out.read_text())["per_item"])
        for key in ("sbert", "fense"):
            assert per_item[0][key][0] == per_item[1][key][0], key
        assert per_item[0]["sbert"][1] != per_item[1]["sbert"][1]

    def test_misaligned_inputs_fail(self, tmp_path):
        (tmp_path / "cands.txt").write_text("a dog barks\n")
        with (tmp_path / "refs.jsonl").open("w") as fh:
            fh.write(json.dumps({"references": ["a"]}) + "\n")
            fh.write(json.dumps({"references": ["b"]}) + "\n")
        rc = main([
            "evaluate", "--candidates", str(tmp_path / "cands.txt"),
            "--references", str(tmp_path / "refs.jsonl"),
            "--out", str(tmp_path / "r.json"),
        ])
        assert rc == 1


class TestGradcheckCommand:
    def test_passes_with_default_ops(self, capsys):
        rc = main(["gradcheck", "--seeds", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "max relative error" in out


class TestPlotCommand:
    def test_merges_curves(self, tmp_path):
        cfg = write_tiny_config(tmp_path / "run.cfg")
        main(["train", "--config", str(cfg), "--out", str(tmp_path / "runA")])
        rc = main([
            "plot", "--curves", str(tmp_path / "runA" / "curve.csv"),
            "--out-csv", str(tmp_path / "all.csv"),
        ])
        assert rc == 0
        assert (tmp_path / "all.csv").read_text().startswith("run,epoch,")

    def test_png_without_matplotlib_fails(self, tmp_path, monkeypatch, capsys):
        write_curve([CurveRow(0, 1.0, 2.0, 0.5, 5e-4)], tmp_path / "curve.csv")
        monkeypatch.setitem(sys.modules, "matplotlib", None)
        rc = main([
            "plot", "--curves", str(tmp_path / "curve.csv"),
            "--out-csv", str(tmp_path / "all.csv"), "--out-png", str(tmp_path / "all.png"),
        ])
        assert rc != 0
        captured = capsys.readouterr()
        assert "'plot' extra" in captured.err
        assert "wrote" not in captured.out


class TestAblateCommand:
    def test_tiny_grid(self, tmp_path):
        cfg = write_tiny_config(tmp_path / "run.cfg", **{"optim.epochs": 1})
        rc = main([
            "ablate", "--config", str(cfg), "--out", str(tmp_path / "abl"),
            "--set", "experiment.n_seeds=1",
        ])
        assert rc == 0
        report = json.loads((tmp_path / "abl" / "ablation.json").read_text())
        assert len(report["cells"]) == 8


class TestSetOverrides:
    def test_overfit_preset_smoke(self, tmp_path):
        rc = main([
            "train", "--config", str(CONFIGS / "overfit.cfg"), "--out", str(tmp_path / "run"),
            "--set", "optim.epochs=1",
        ])
        assert rc == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["optim.epochs"] == 1 and manifest["model.d_model"] == 96
        assert (tmp_path / "run" / "best.ckpt").exists()

    def test_set_overrides_config_file(self, tmp_path):
        cfg = write_tiny_config(tmp_path / "run.cfg")
        rc = main([
            "train", "--config", str(cfg), "--out", str(tmp_path / "run"),
            "--set", "optim.epochs=1", "--set", "experiment.seed=3",
        ])
        assert rc == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["optim.epochs"] == 1 and manifest["experiment.seed"] == 3

    @pytest.mark.parametrize("setting, named", [
        ("model.width=12", "model.width"),
        ("optim.epochs", "optim.epochs"),
        ("optim.epochs=many", "optim.epochs"),
    ])
    def test_bad_setting_fails_naming_key(self, tmp_path, capsys, setting, named):
        rc = main(["train", "--out", str(tmp_path / "run"), "--set", setting])
        assert rc != 0
        assert named in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_decode_accepts_only_decode_keys(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path / "run.cfg")
        main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
        main([
            "synth-data", "--out", str(tmp_path / "data"),
            "--n-train", "2", "--n-val", "2", "--n-test", "2", "--d-enc", "8",
        ])
        capsys.readouterr()
        out = tmp_path / "decoded.txt"
        rc = main([
            "decode", "--checkpoint", str(tmp_path / "run" / "best.ckpt"),
            "--features", str(tmp_path / "data" / "test_features.bin"),
            "--out", str(out), "--set", "model.d_model=8",
        ])
        assert rc != 0
        assert "model.d_model" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("via", ["file", "set"])
    def test_zero_epochs_rejected(self, tmp_path, capsys, via):
        if via == "file":
            cfg = write_tiny_config(tmp_path / "run.cfg", **{"optim.epochs": 0})
            argv = ["--config", str(cfg)]
        else:
            argv = ["--config", str(write_tiny_config(tmp_path / "run.cfg")), "--set", "optim.epochs=0"]
        rc = main(["train", "--out", str(tmp_path / "run"), *argv])
        assert rc != 0
        assert "epochs must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
