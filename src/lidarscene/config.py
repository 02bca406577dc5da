"""key=value configuration files with a published schema.

UTF-8 text, one ``key = value`` pair per line, ``#`` comments. Unknown
keys are rejected; absent keys take their defaults. Each field of the
dataclass a section builds (``SECTIONS``) is the key ``section.field``, with
the field's own default and a parser taken from the default's type; the
exceptions are written once, below.
"""

from __future__ import annotations

import dataclasses
import math

from .extraction import DEFAULT_CLUSTER_PARAMS, ClusterParams
from .layout import naming, read_text, text_lines
from .meshing import DEFAULT_TESSELLATION
from .raycast import RaydropParams
from .scorenet import ModelConfig, NoiseSchedule, SamplerConfig, TrainConfig
from .sensor import SensorSpec


class ConfigError(ValueError):
    pass


def _widths(text):
    return tuple(int(w) for w in text.split(","))


#: section -> the dataclass its keys build.
SECTIONS = {
    "sensor": SensorSpec,
    "schedule": NoiseSchedule,
    "sampler": SamplerConfig,
    "model": ModelConfig,
    "train": TrainConfig,
    "raydrop": RaydropParams,
}
_NOT_KEYS = {"model.dtype", "train.phase"}  # set in code only
#: SensorSpec holds radians; the file keeps degrees under ``<field>_deg``.
_IN_DEGREES = {"sensor.pitch_max", "sensor.pitch_min"}


def _fields(section):
    """(field, key) of every field of the section's dataclass that is a key."""
    for f in dataclasses.fields(SECTIONS[section]):
        key = f"{section}.{f.name}"
        if key in _IN_DEGREES:
            yield f, key + "_deg"
        elif key not in _NOT_KEYS:
            yield f, key


def _schema():
    schema = {}
    for section in SECTIONS:
        for f, key in _fields(section):
            if key.endswith("_deg"):
                schema[key] = (float, math.degrees(f.default))
            else:
                schema[key] = (_widths if isinstance(f.default, tuple) else type(f.default), f.default)
    # Settings of functions rather than dataclasses.
    schema["render.tessellation"] = (int, DEFAULT_TESSELLATION)
    for name, (eps, min_pts) in DEFAULT_CLUSTER_PARAMS.items():
        schema[f"cluster.{name}.eps"] = (float, eps)
        schema[f"cluster.{name}.min_pts"] = (int, min_pts)
    return schema


#: key -> (parser, default). The single source of truth for valid keys.
SCHEMA = _schema()


class Config:
    """Validated key=value settings; ``build(section)`` makes a section's dataclass."""

    def __init__(self, values=None):
        self.values = {key: default for key, (_, default) in SCHEMA.items()}
        for key, val in (values or {}).items():
            if key not in SCHEMA:
                raise ConfigError(f"unknown config key {key!r}")
            self.values[key] = val

    def __getitem__(self, key):
        return self.values[key]

    def build(self, section, **overrides):
        """The section's dataclass from its keys, with ``overrides`` on top."""
        kwargs = {
            f.name: math.radians(self[key]) if key.endswith("_deg") else self[key]
            for f, key in _fields(section)
        }
        return SECTIONS[section](**{**kwargs, **overrides})

    def cluster_params(self) -> dict:
        """Label name -> ClusterParams, for ``extraction.extract_layout``."""
        return {
            name: ClusterParams(self[f"cluster.{name}.eps"], self[f"cluster.{name}.min_pts"])
            for name in DEFAULT_CLUSTER_PARAMS
        }


def parse_config(text: str) -> Config:
    values = {}
    for ln, line in text_lines(text):
        with naming(f"line {ln}", ConfigError):
            if "=" not in line:
                raise ConfigError(f"expected key=value, got {line!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if key not in SCHEMA:
                raise ConfigError(f"unknown config key {key!r}")
            parser, _ = SCHEMA[key]
            try:
                values[key] = parser(val)
            except ValueError:
                raise ConfigError(f"bad value {val!r} for {key}") from None
    return Config(values)


def load_config(path) -> Config:
    if path is None:
        return Config()
    text = read_text(path, ConfigError)
    with naming(path, ConfigError):
        return parse_config(text)
