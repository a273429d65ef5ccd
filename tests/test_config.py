import os
import re
import tempfile
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixture_path
from tagmt.config import KEYS, MODEL_SECTIONS, PATH, ExperimentConfig, load_experiment_config
from tagmt.errors import ConfigError
from tagmt.mt.decode import translate_corpus
from tagmt.mt.model import ModelConfig, param_layout
from tagmt.tagging import select_tags


def test_load_toy_config():
    config = load_experiment_config(fixture_path("toy.cfg"))
    assert config.seed == 13
    assert config.task_label == "toy-disambiguation"
    assert os.path.samefile(config.paths["detections"], fixture_path("disambig", "detections.tsv"))
    assert config.top_k == 10
    assert config.translator.model_dim == 32
    assert config.translator.seed == 13
    assert config.synthesizer.seed == 13
    assert config.beam_width == 1  # greedy search
    for key, path in config.paths.items():
        assert os.path.isabs(path), key
    config.validate()


def test_default_config_seeds_both_models_with_the_experiment_seed():
    config = ExperimentConfig()
    assert config.translator.seed == config.synthesizer.seed == config.seed == 13


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


def test_translator_synth_fit_threshold_is_unknown(tmp_path):
    """Only the synthesizer checks its held-out fit, so only [synthesizer] sets its threshold."""
    path = write_cfg(tmp_path, "[translator]\nsynth_fit_threshold = 0.5\n")
    with pytest.raises(ConfigError, match=r"^unknown key 'synth_fit_threshold' in \[translator\]$"):
        load_experiment_config(path)
    path = write_cfg(tmp_path, "[synthesizer]\nsynth_fit_threshold = 0.5\n")
    assert load_experiment_config(path).synthesizer.synth_fit_threshold == 0.5
    assert len(KEYS) == 41


def test_model_section_seed_rejected(tmp_path):
    path = write_cfg(tmp_path, "[translator]\nseed = 5\n")
    with pytest.raises(ConfigError):
        load_experiment_config(path)


def test_bad_value_type_rejected(tmp_path):
    path = write_cfg(tmp_path, "[translator]\nlayers = two\n")
    with pytest.raises(ConfigError):
        load_experiment_config(path)


@pytest.mark.parametrize("key", ["beam_width"])
def test_decode_int_error_names_section_and_key(tmp_path, key):
    path = write_cfg(tmp_path, f"[decode]\n{key} = x\n")
    with pytest.raises(ConfigError, match=rf"^\[decode\] {key} expects int, got 'x'$"):
        load_experiment_config(path)


@pytest.mark.parametrize(
    "section, key, kind, raw",
    [
        ("translator", "layers", "int", "1_000"),
        ("decode", "beam_width", "int", "\uff13"),  # full-width 3
        ("synthesizer", "dropout", "float", "0.1_5"),
        ("translator", "learning_rate", "float", "\u0661e-3"),  # Arabic-Indic 1
    ],
)
def test_number_forms_int_and_float_accept_are_rejected(tmp_path, section, key, kind, raw):
    """int() and float() take underscores and non-ASCII digits; a config
    number is plain ASCII."""
    path = write_cfg(tmp_path, f"[{section}]\n{key} = {raw}\n")
    message = f"[{section}] {key} expects {kind}, got {raw!r}"
    with pytest.raises(ConfigError, match=rf"^{re.escape(message)}$"):
        load_experiment_config(path)


@pytest.mark.parametrize(
    "body, message, owner",
    [
        ("[tagging]\nk = 0\n", r"\[tagging\] k must be >= 1, got 0", lambda: select_tags([], k=0)),
        ("[decode]\nbeam_width = 0\n", r"\[decode\] beam_width must be >= 1, got 0",
         lambda: translate_corpus(None, ["a"], beam_width=0)),
        ("[translator]\nlayers = 0\n", r"\[translator\] layers must be >= 1, got 0",
         lambda: ModelConfig(layers=0).validate()),
        ("[synthesizer]\nbatch_size = 0\n", r"\[synthesizer\] batch_size must be >= 1, got 0",
         lambda: ModelConfig(batch_size=0).validate()),
        ("[paths]\nbitext_source = extra.src\n", r"\[paths\] bitext_target is needed with bitext_source",
         None),
    ],
    ids=["tagging-k", "decode-beam_width", "translator-layers", "synthesizer-batch_size",
         "paths-bitext_source"],
)
def test_validation_error_names_section_and_key(tmp_path, body, message, owner):
    """The config reports the owning module's check, prefixed with its section
    (owner None: the config's own check)."""
    config = load_experiment_config(write_cfg(tmp_path, body))
    with pytest.raises(ConfigError, match=rf"^{message}$"):
        config.validate()
    if owner is not None:
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


def test_leading_byte_order_mark_is_ignored(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_bytes("\ufeff[experiment]\nseed = 7\n".encode("utf-8"))
    assert load_experiment_config(path).seed == 7
    path.write_bytes("\ufeff\ufeff[experiment]\nseed = 7\n".encode("utf-8"))
    with pytest.raises(ConfigError, match=r"line 1: text before the first \[section\] header$"):
        load_experiment_config(path)


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


# what an int or float key may be handed: huge and negative ints, non-finite
# and extreme floats, a negative zero, nothing at all and non-ASCII digits
HOSTILE_VALUES = st.one_of(
    st.integers(min_value=2**31).map(str),
    st.integers(max_value=-1).map(str),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "-0.0", "0", "1e308", "-1e308", "1e309", "5e-324", "", " "]),
    st.text(st.characters(categories=["Nd"]), min_size=1, max_size=4),
)


def _with_value(body, section, key, value):
    """body, an INI text, with `key = value` first in its [section], in place
    of the key's own line there."""
    lines, current = [], None
    for line in body.splitlines():
        if line.startswith("["):
            current = line
        elif current == f"[{section}]" and line.startswith(f"{key} = "):
            continue
        lines.append(line)
        if line == f"[{section}]":
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=2000)
@given(
    key=st.sampled_from(sorted(key for key, (_, kind) in KEYS.items() if kind is not PATH)),
    value=HOSTILE_VALUES,
)
def test_hostile_value_is_a_config_or_memory_error_or_loads(key, value):
    """Any hostile value of any non-path key, written into toy.cfg, is
    rejected as a ConfigError, or its model found too large for memory, or
    accepted, and quickly: loading, validating and laying out the section's
    parameters (not allocating them) never raise anything else or hang."""
    section, name = key
    with open(fixture_path("toy.cfg"), encoding="utf-8") as toy:
        body = toy.read().replace("disambig/", fixture_path("disambig") + "/")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "hostile.cfg")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(_with_value(body, section, name, value))
        try:
            config = load_experiment_config(path).validate()
            if section in MODEL_SECTIONS:
                param_layout(getattr(config, section), 64)
        except (ConfigError, MemoryError):
            pass
