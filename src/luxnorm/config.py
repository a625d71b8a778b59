"""Run configuration: defaults, JSON config files, CLI overrides."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields
from pathlib import Path

from luxnorm.align import ScoringScheme
from luxnorm.errors import ConfigError, decode_text, undecodable_line
from luxnorm.normalize import PipelineConfig

# config keys that name input files and must exist once validated
INPUT_FILE_KEYS = ("dictionary", "lexicon", "eval_original", "eval_gold", "suite", "predictions")


@dataclass
class RunConfig:
    """Everything a full experiment run needs, recorded into its report."""

    seed: int = 42
    dictionary: Path | None = None
    lexicon: Path | None = None
    eval_original: Path | None = None
    eval_gold: Path | None = None
    suite: Path | None = None
    predictions: Path | None = None
    output_dir: Path = Path("luxnorm-out")
    normalizer: str = "pipeline"  # pipeline | identity | cmd:<command line>
    weights: tuple[float, float, float, float] = PipelineConfig.weights
    match_bonus: float = ScoringScheme.match_bonus
    mismatch_penalty: float = ScoringScheme.mismatch_penalty
    gap_penalty: float = ScoringScheme.gap_penalty
    ngram_n: int = PipelineConfig.ngram_n
    topk: int = PipelineConfig.topk
    max_edit_distance: int = PipelineConfig.max_edit_distance
    workers: int = 1

    def pipeline_config(self) -> PipelineConfig:
        return PipelineConfig(self.weights, self.max_edit_distance, self.ngram_n, self.topk)

    def scheme(self) -> ScoringScheme:
        return ScoringScheme(self.match_bonus, self.mismatch_penalty, self.gap_penalty)

    def to_dict(self) -> dict:
        snapshot = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, Path):
                value = str(value)
            elif isinstance(value, tuple):
                value = list(value)
            snapshot[spec.name] = value
        return snapshot


def load_config_file(path: str | Path) -> dict:
    """Read a JSON config file, rejecting unknown keys."""
    path = Path(path)
    try:
        raw = json.loads(decode_text(path.read_bytes()))
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        message = f"line {undecodable_line(exc)}: {exc.reason}"
        raise ConfigError(f"config file {path} is not valid UTF-8: {message}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    defaults = {spec.name: spec.default for spec in fields(RunConfig)}
    for key, value in raw.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {key!r} in {path}")
        expected = _file_value_kind(defaults[key], value)
        if expected is not None:
            raise ConfigError(f"config key {key!r} in {path} must be {expected}, got {value!r}")
    return raw


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _file_value_kind(default, value) -> str | None:
    """None when a config-file value has the type of its field's default,
    else the kind of value the field takes."""
    if isinstance(default, tuple):
        ok = isinstance(value, list) and len(value) == len(default) and all(map(_is_number, value))
        return None if ok else f"a list of {len(default)} numbers"
    if isinstance(default, int):
        return None if _is_number(value) and isinstance(value, int) else "an integer"
    if isinstance(default, float):
        return None if _is_number(value) else "a number"
    return None if isinstance(value, str) or (default is None and value is None) else "a string"


def build_config(overrides: dict, config_file: str | Path | None = None) -> RunConfig:
    """Merge defaults, config-file values, and CLI overrides (flags win).

    Validation errors name the offending key.
    """
    values: dict = {}
    if config_file is not None:
        values.update(load_config_file(config_file))
    for key, value in overrides.items():
        if value is not None:
            values.update({key: value})
    for key in INPUT_FILE_KEYS:
        if values.get(key) is not None:
            values[key] = Path(values[key])
    if "output_dir" in values:
        values["output_dir"] = Path(values["output_dir"])
    if "weights" in values:
        try:
            values["weights"] = tuple(float(w) for w in values["weights"])
        except (TypeError, ValueError):
            raise ConfigError("weights must be four finite non-negative numbers") from None
    config = RunConfig(**values)
    for key in INPUT_FILE_KEYS:
        value = getattr(config, key)
        if value is not None and not value.exists():
            raise ConfigError(f"{key}: no such file: {value}")
    if config.workers < 1:
        raise ConfigError("workers must be >= 1")
    if config.seed < 0 or config.seed > 2**64 - 1:
        raise ConfigError("seed must fit in 64 bits")
    try:
        config.scheme()
        config.pipeline_config()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return config


def effective_workers(requested: int) -> int:
    """Apply the LUXNORM_THREADS cap to a requested worker count."""
    cap = os.environ.get("LUXNORM_THREADS")
    if cap is None:
        return max(1, requested)
    try:
        cap_value = int(cap)
    except ValueError:
        raise ConfigError(f"LUXNORM_THREADS is not an integer: {cap!r}") from None
    return max(1, min(requested, cap_value))
