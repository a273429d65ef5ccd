"""Experiment configuration: one INI file with a section per pipeline stage.

Relative paths are resolved against the config file's directory, so a config
can travel with its fixtures. A single [experiment] seed governs every
stochastic stage; per-model seed keys are rejected to keep that guarantee.
"""

import configparser
import os
from dataclasses import dataclass, field, fields

from .errors import ConfigError
from .mt.model import ModelConfig

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

_MODEL_FIELD_TYPES = {f.name: type(f.default) for f in fields(ModelConfig)}


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
        if self.tagging_backend not in ("stub", "file"):
            raise ConfigError(
                f"tagging backend must be 'stub' or 'file', got {self.tagging_backend!r}"
            )
        if self.top_k < 1:
            raise ConfigError(f"tagging k must be >= 1, got {self.top_k}")
        if self.decode_method not in ("greedy", "beam"):
            raise ConfigError(
                f"decode method must be 'greedy' or 'beam', got {self.decode_method!r}"
            )
        if self.beam_width < 1:
            raise ConfigError(f"beam_width must be >= 1, got {self.beam_width}")
        if self.decode_max_len is not None and self.decode_max_len < 2:
            raise ConfigError(f"[decode] max_len must be >= 2, got {self.decode_max_len}")
        if self.tagging_backend == "file" and "detections" not in self.paths:
            raise ConfigError("tagging backend 'file' needs a detections path")
        for key, path in self.paths.items():
            if key == "output_dir":
                continue
            if not os.path.exists(path):
                raise ConfigError(f"configured path {key} does not exist: {path}")
        self.translator.validate()
        self.synthesizer.validate()
        return self

    def with_seed(self, seed):
        self.seed = int(seed)
        self.translator = self.translator.override(seed=self.seed)
        self.synthesizer = self.synthesizer.override(seed=self.seed)
        return self


def _parse_model_section(parser, section, seed):
    overrides = {}
    if parser.has_section(section):
        for key, raw in parser.items(section):
            if key == "seed":
                raise ConfigError(
                    f"[{section}] may not set seed; the [experiment] seed "
                    f"governs every stage"
                )
            if key not in _MODEL_FIELD_TYPES:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            kind = _MODEL_FIELD_TYPES[key]
            try:
                overrides[key] = kind(raw)
            except ValueError:
                raise ConfigError(
                    f"[{section}] {key} expects {kind.__name__}, got {raw!r}"
                ) from None
    return ModelConfig().override(seed=seed, **overrides)


def load_experiment_config(path):
    parser = configparser.ConfigParser(interpolation=None)
    read = parser.read(path, encoding="utf-8")
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    base_dir = os.path.dirname(os.path.abspath(path))

    seed = 13
    task_label = "toy"
    corpus_name = ""
    if parser.has_section("experiment"):
        for key, raw in parser.items("experiment"):
            if key == "seed":
                try:
                    seed = int(raw)
                except ValueError:
                    raise ConfigError(f"[experiment] seed must be an integer, got {raw!r}") from None
            elif key == "task":
                task_label = raw.strip()
            elif key == "corpus_name":
                corpus_name = raw.strip()
            else:
                raise ConfigError(f"unknown key {key!r} in [experiment]")

    paths = {}
    if parser.has_section("paths"):
        for key, raw in parser.items("paths"):
            if key not in PATH_KEYS:
                raise ConfigError(f"unknown key {key!r} in [paths]")
            paths[key] = os.path.normpath(os.path.join(base_dir, raw.strip()))

    backend = "stub"
    top_k = 10
    if parser.has_section("tagging"):
        for key, raw in parser.items("tagging"):
            if key == "backend":
                backend = raw.strip()
            elif key == "k":
                try:
                    top_k = int(raw)
                except ValueError:
                    raise ConfigError(f"[tagging] k must be an integer, got {raw!r}") from None
            else:
                raise ConfigError(f"unknown key {key!r} in [tagging]")

    decode_method = "greedy"
    decode_ints = {"beam_width": 4, "max_len": None}
    if parser.has_section("decode"):
        for key, raw in parser.items("decode"):
            if key == "method":
                decode_method = raw.strip()
            elif key in decode_ints:
                try:
                    decode_ints[key] = int(raw)
                except ValueError:
                    raise ConfigError(f"[decode] {key} expects int, got {raw!r}") from None
            else:
                raise ConfigError(f"unknown key {key!r} in [decode]")

    known_sections = {"experiment", "paths", "tagging", "translator", "synthesizer", "decode"}
    unknown = set(parser.sections()) - known_sections
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")

    return ExperimentConfig(
        seed=seed,
        task_label=task_label,
        corpus_name=corpus_name,
        paths=paths,
        tagging_backend=backend,
        top_k=top_k,
        translator=_parse_model_section(parser, "translator", seed),
        synthesizer=_parse_model_section(parser, "synthesizer", seed),
        decode_method=decode_method,
        beam_width=decode_ints["beam_width"],
        decode_max_len=decode_ints["max_len"],
    )
