"""Experiment configuration: one INI file with a section per pipeline stage.

Every settable key is one row of `KEYS`, mapping (section, key) to the
attribute it sets and the type its value is parsed as. [experiment],
[tagging] and [decode] keys set ExperimentConfig attributes, [paths] keys
(`PATH_KEYS`) fill `paths`, and [translator]/[synthesizer] keys set the
ModelConfig fields of the same name, typed by the field defaults. One loop
parses every section, so every bad value is reported the same way:
``[section] key expects int, got 'x'``, and a file that cannot be parsed is
named with its line. Each value is checked by the module that uses it
(`tagging`, `mt.decode`, `ModelConfig`), whose ConfigError starts with the
key; `in_section` prefixes the ``[section]``.

Relative paths are resolved against the config file's directory, so a config
can travel with its fixtures. A single [experiment] seed governs every
stochastic stage; per-model seed keys are rejected to keep that guarantee.
"""

import configparser
import os
from dataclasses import dataclass, field, fields

from .errors import ConfigError
from .mt.decode import check_decode
from .mt.model import ModelConfig
from .tagging import check_backend, check_k

PATH_KEYS = (
    "train_corpus",
    "valid_corpus",
    "test_corpus",
    "bitext_source",
    "bitext_target",
    "detections",
    "tag_vocabulary",
    "output_dir",
)

MODEL_SECTIONS = ("translator", "synthesizer")

PATH = "path"  # value type: a path relative to the config file's directory

# (section, key) -> (attribute, value type)
KEYS = {
    ("experiment", "seed"): ("seed", int),
    ("experiment", "task"): ("task_label", str),
    ("experiment", "corpus_name"): ("corpus_name", str),
    **{("paths", key): (key, PATH) for key in PATH_KEYS},
    ("tagging", "backend"): ("tagging_backend", str),
    ("tagging", "k"): ("top_k", int),
    ("decode", "method"): ("decode_method", str),
    ("decode", "beam_width"): ("beam_width", int),
    ("decode", "max_len"): ("decode_max_len", int),
    **{
        (section, f.name): (f.name, type(f.default))
        for section in MODEL_SECTIONS
        for f in fields(ModelConfig)
        if f.name != "seed"
    },
}

SECTIONS = {section for section, _ in KEYS}


def in_section(section, check, *args):
    """Run an owner's `check(*args)`; its ConfigError gets the ``[section] `` prefix."""
    try:
        return check(*args)
    except ConfigError as err:
        raise ConfigError(f"[{section}] {err}") from None


@dataclass
class ExperimentConfig:
    seed: int = 13
    task_label: str = "toy"
    corpus_name: str = ""
    paths: dict = field(default_factory=dict)
    tagging_backend: str = "stub"
    top_k: int = 10
    translator: ModelConfig = field(default_factory=ModelConfig)
    synthesizer: ModelConfig = field(default_factory=ModelConfig)
    decode_method: str = "greedy"
    beam_width: int = 4
    decode_max_len: int | None = None

    def validate(self):
        in_section("tagging", check_backend, self.tagging_backend, self.paths.get("detections"))
        in_section("tagging", check_k, self.top_k)
        in_section("decode", check_decode, self.decode_method, self.beam_width, self.decode_max_len)
        for key, path in self.paths.items():
            if key != "output_dir" and not os.path.exists(path):
                raise ConfigError(f"[paths] {key} does not exist: {path}")
        for section in MODEL_SECTIONS:
            in_section(section, getattr(self, section).validate)
        return self

    def with_seed(self, seed):
        self.seed = int(seed)
        self.translator = self.translator.override(seed=self.seed)
        self.synthesizer = self.synthesizer.override(seed=self.seed)
        return self


def _read_ini(path):
    """Parse an INI file, turning every way it can be unreadable into a
    ConfigError that names the file and, where known, the line."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err.strerror}") from None
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(data.decode("utf-8"))
    except UnicodeDecodeError as err:
        line, problem = data.count(b"\n", 0, err.start) + 1, "not valid UTF-8"
    except configparser.DuplicateOptionError as err:
        line, problem = err.lineno, f"duplicate key {err.option!r} in [{err.section}]"
    except configparser.DuplicateSectionError as err:
        line, problem = err.lineno, f"duplicate section [{err.section}]"
    except configparser.MissingSectionHeaderError as err:
        line, problem = err.lineno, "text before the first [section] header"
    except configparser.ParsingError as err:
        line, problem = err.errors[0][0], "expected '[section]' or 'key = value'"
    else:
        return parser
    raise ConfigError(f"config file {path} line {line}: {problem}")


def _parse_value(section, key, kind, raw, base_dir):
    raw = raw.strip()
    if kind is PATH:
        return os.path.normpath(os.path.join(base_dir, raw))
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} expects {kind.__name__}, got {raw!r}") from None


def load_experiment_config(path):
    parser = _read_ini(path)
    unknown = set(parser.sections()) - SECTIONS
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    base_dir = os.path.dirname(os.path.abspath(path))

    values = {section: {} for section in SECTIONS}
    for section in parser.sections():
        for key, raw in parser.items(section):
            if section in MODEL_SECTIONS and key == "seed":
                raise ConfigError(
                    f"[{section}] may not set seed; the [experiment] seed governs every stage"
                )
            if (section, key) not in KEYS:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            attribute, kind = KEYS[section, key]
            values[section][attribute] = _parse_value(section, key, kind, raw, base_dir)

    models = {section: ModelConfig(**values.pop(section)) for section in MODEL_SECTIONS}
    paths = values.pop("paths")
    scalars = {attr: value for group in values.values() for attr, value in group.items()}
    config = ExperimentConfig(paths=paths, **models, **scalars)
    return config.with_seed(config.seed)
