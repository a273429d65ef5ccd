import os
import re
from dataclasses import fields

import pytest

from conftest import fixture_path
from tagmt.config import KEYS, MODEL_SECTIONS, PATH, ExperimentConfig, load_experiment_config
from tagmt.errors import ConfigError
from tagmt.mt.decode import DECODE_METHODS, translate_corpus
from tagmt.mt.model import ModelConfig
from tagmt.tagging import BACKENDS, make_detector, select_tags


def test_load_toy_config():
    config = load_experiment_config(fixture_path("toy.cfg"))
    assert config.seed == 13
    assert config.task_label == "toy-disambiguation"
    assert config.tagging_backend == "file"
    assert config.top_k == 10
    assert config.translator.model_dim == 32
    assert config.translator.seed == 13
    assert config.synthesizer.seed == 13
    assert config.decode_method == "greedy"
    for key, path in config.paths.items():
        assert os.path.isabs(path), key
    config.validate()


def test_seed_override_propagates():
    config = load_experiment_config(fixture_path("toy.cfg"))
    config.with_seed(99)
    assert config.seed == 99
    assert config.translator.seed == 99
    assert config.synthesizer.seed == 99


def write_cfg(tmp_path, body):
    path = tmp_path / "exp.cfg"
    path.write_text(body, encoding="utf-8")
    return path


def test_unknown_section_rejected(tmp_path):
    path = write_cfg(tmp_path, "[mystery]\nx = 1\n")
    with pytest.raises(ConfigError):
        load_experiment_config(path)


def test_unknown_key_rejected(tmp_path):
    path = write_cfg(tmp_path, "[tagging]\nbackends = stub\n")
    with pytest.raises(ConfigError):
        load_experiment_config(path)


def test_model_section_seed_rejected(tmp_path):
    path = write_cfg(tmp_path, "[translator]\nseed = 5\n")
    with pytest.raises(ConfigError):
        load_experiment_config(path)


def test_bad_value_type_rejected(tmp_path):
    path = write_cfg(tmp_path, "[translator]\nlayers = two\n")
    with pytest.raises(ConfigError):
        load_experiment_config(path)


@pytest.mark.parametrize("key", ["beam_width", "max_len"])
def test_decode_int_error_names_section_and_key(tmp_path, key):
    path = write_cfg(tmp_path, f"[decode]\n{key} = x\n")
    with pytest.raises(ConfigError, match=rf"^\[decode\] {key} expects int, got 'x'$"):
        load_experiment_config(path)


@pytest.mark.parametrize("value", ["0", "1", "-3"])
def test_decode_max_len_below_two_rejected(tmp_path, value):
    path = write_cfg(tmp_path, f"[decode]\nmax_len = {value}\n")
    config = load_experiment_config(path)
    with pytest.raises(ConfigError, match=rf"^\[decode\] max_len must be >= 2, got {value}$"):
        config.validate()


@pytest.mark.parametrize(
    "body, message, owner",
    [
        ("[tagging]\nbackend = foo\n", r"\[tagging\] backend must be 'stub' or 'file', got 'foo'",
         lambda: make_detector("foo")),
        ("[tagging]\nbackend = file\n", r"\[tagging\] backend 'file' needs a detections file",
         lambda: make_detector("file")),
        ("[tagging]\nk = 0\n", r"\[tagging\] k must be >= 1, got 0", lambda: select_tags([], k=0)),
        ("[decode]\nmethod = x\n", r"\[decode\] method must be 'greedy' or 'beam', got 'x'",
         lambda: translate_corpus(None, ["a"], decode="x")),
        ("[decode]\nbeam_width = 0\n", r"\[decode\] beam_width must be >= 1, got 0",
         lambda: translate_corpus(None, ["a"], decode="greedy", beam_width=0)),
        ("[decode]\nmax_len = 1\n", r"\[decode\] max_len must be >= 2, got 1",
         lambda: translate_corpus(None, ["a"], max_len=1)),
        ("[translator]\nlayers = 0\n", r"\[translator\] layers must be >= 1, got 0",
         lambda: ModelConfig(layers=0).validate()),
        ("[synthesizer]\nbatch_size = 0\n", r"\[synthesizer\] batch_size must be >= 1, got 0",
         lambda: ModelConfig(batch_size=0).validate()),
    ],
    ids=["tagging-backend", "tagging-backend-file", "tagging-k", "decode-method",
         "decode-beam_width", "decode-max_len", "translator-layers", "synthesizer-batch_size"],
)
def test_validation_error_names_section_and_key(tmp_path, body, message, owner):
    """The config reports the owning module's check, prefixed with its section."""
    config = load_experiment_config(write_cfg(tmp_path, body))
    with pytest.raises(ConfigError, match=rf"^{message}$"):
        config.validate()
    with pytest.raises(ConfigError, match=rf"^{message.split(' ', 1)[1]}$"):
        owner()


def test_missing_file():
    with pytest.raises(ConfigError):
        load_experiment_config("/nonexistent/exp.cfg")


def test_validate_checks_paths(tmp_path):
    path = write_cfg(tmp_path, "[paths]\ntrain_corpus = missing.tsv\n")
    config = load_experiment_config(path)
    with pytest.raises(ConfigError):
        config.validate()


def test_file_backend_needs_detections(tmp_path):
    path = write_cfg(tmp_path, "[tagging]\nbackend = file\n")
    config = load_experiment_config(path)
    with pytest.raises(ConfigError):
        config.validate()


def test_relative_paths_resolve_against_config_dir(tmp_path):
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "x.tsv").write_text("", encoding="utf-8")
    path = write_cfg(tmp_path, "[paths]\ntrain_corpus = data/x.tsv\n")
    config = load_experiment_config(path)
    assert config.paths["train_corpus"] == str(tmp_path / "data" / "x.tsv")


def test_readme_lists_every_config_key_with_its_default():
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme, encoding="utf-8") as handle:
        rows = re.findall(r"^\| ((?:`\[\w+\]` ?)+) \| `(\w+)` \| ([^|]+) \|", handle.read(), re.M)
    listed = {
        (section, key): default.strip()
        for sections, key, default in rows
        for section in re.findall(r"\[(\w+)\]", sections)
    }
    assert sorted(listed) == sorted(KEYS)
    experiment_defaults = {f.name: f.default for f in fields(ExperimentConfig)}
    model_defaults = {f.name: f.default for f in fields(ModelConfig)}
    for (section, key), (attribute, kind) in KEYS.items():
        if kind is PATH:
            continue
        defaults = model_defaults if section in MODEL_SECTIONS else experiment_defaults
        value = re.fullmatch(r"`([^`]*)`", listed[section, key])
        if defaults[attribute] in (None, ""):
            assert value is None, (section, key)
        else:
            assert value is not None and kind(value[1]) == defaults[attribute], (section, key)


@pytest.mark.parametrize(
    "row, choices", [("`[tagging]` | `backend`", BACKENDS), ("`[decode]` | `method`", DECODE_METHODS)]
)
def test_readme_key_table_names_the_owners_choices(row, choices):
    """The choices README's key table gives are the owning module's constant.
    (That the table names exactly the keys of KEYS is checked above.)"""
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme, encoding="utf-8") as handle:
        meaning = re.search(rf"^\| {re.escape(row)} \| [^|]+ \| ([^|]+) \|", handle.read(), re.M)[1]
    assert tuple(re.findall(r"`(\w+)`", meaning)) == choices
