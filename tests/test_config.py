import json
from pathlib import Path

import pytest

from sercap.config import (
    ExperimentConfig,
    clone,
    from_manifest,
    parse_config,
    save_manifest,
    to_manifest,
    write_config,
)


def test_defaults_match_training_recipe():
    cfg = ExperimentConfig()
    assert cfg.model.d_model == 256
    assert cfg.model.decoder_layers == 6 and cfg.model.heads == 4
    assert cfg.loss.label_smoothing == 0.1 and cfg.loss.ser_weight == 100.0
    assert cfg.optim.lr0 == 5e-4 and cfg.optim.epochs == 100
    assert cfg.decode.beam_size == 2 and cfg.decode.min_len == 3 and cfg.decode.max_len == 30
    assert cfg.corpus.n_train == 512 and cfg.corpus.n_val == 64 and cfg.corpus.n_test == 64
    assert cfg.n_seeds == 5


def test_parse_short_key_names(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "# comment line\n"
        "model.d_model=128\n"
        "loss.lambda=10\n"
        "optim.wd=2\n"
        "decode.beam=4\n"
        "experiment.tokenizer=subword\n"
    )
    cfg = parse_config(p)
    assert cfg.model.d_model == 128
    assert cfg.loss.ser_weight == 10.0
    assert cfg.optim.weight_decay == 2.0
    assert cfg.decode.beam_size == 4
    assert cfg.tokenizer == "subword"


def test_unknown_key_rejected(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("model.width=12\n")
    with pytest.raises(ValueError):
        parse_config(p)


def test_malformed_line_rejected(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("model.d_model 128\n")
    with pytest.raises(ValueError):
        parse_config(p)


def test_invalid_value_rejected_by_dataclass(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("loss.label_smoothing=1.5\n")
    with pytest.raises(ValueError):
        parse_config(p)


def test_write_parse_roundtrip(tmp_path):
    cfg = ExperimentConfig()
    cfg.model.d_model = 64
    cfg.loss.ser_weight = 0.0
    cfg.optim.weight_decay = 2.0
    cfg.tokenizer = "subword"
    p = tmp_path / "run.cfg"
    write_config(cfg, p)
    loaded = parse_config(p)
    assert to_manifest(loaded) == to_manifest(cfg)


def test_manifest_roundtrip():
    cfg = ExperimentConfig()
    cfg.model.vocab_size = 99
    cfg.optim.weight_decay = 2.0
    back = from_manifest(to_manifest(cfg))
    assert to_manifest(back) == to_manifest(cfg)
    assert back.model.vocab_size == 99


def test_manifest_records_every_default(tmp_path):
    # identical configs produce byte-identical manifests
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    save_manifest(ExperimentConfig(), p1)
    save_manifest(ExperimentConfig(), p2)
    assert p1.read_bytes() == p2.read_bytes()
    manifest = json.loads(p1.read_text())
    assert manifest["optim.eps"] == 1e-8
    assert manifest["loss.lambda"] == 100.0


def test_clone_replaces_sections():
    base = ExperimentConfig()
    out = clone(base, loss={"ser_weight": 0.0}, optim={"weight_decay": 2.0}, seed=3)
    assert out.loss.ser_weight == 0.0
    assert out.optim.weight_decay == 2.0
    assert out.seed == 3
    # base untouched
    assert base.loss.ser_weight == 100.0 and base.seed == 0


def test_decode_max_len_cannot_exceed_model(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("decode.max_len=40\nmodel.max_len=30\n")
    with pytest.raises(ValueError):
        parse_config(p)



@pytest.mark.parametrize("path", sorted((Path(__file__).resolve().parents[1] / "configs").glob("*")),
                         ids=lambda p: p.name)
def test_every_shipped_config_parses(path):
    parse_config(path)


def test_overrides_apply_after_file_lines(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("optim.wd=2\nloss.lambda=10\n")
    cfg = parse_config(p, ["optim.wd=0.5", "experiment.seed=4"])
    assert cfg.optim.weight_decay == 0.5
    assert cfg.loss.ser_weight == 10.0
    assert cfg.seed == 4
