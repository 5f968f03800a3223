"""Flat ``key = value`` run configuration.

One option per line, ``#`` starts a comment, no sections or nesting.  Keys
mirror the physics parameters plus the two-photon sweep window; every
frequency is a linear frequency in MHz.  Unknown or duplicate keys are
rejected with the offending line number so typos cannot silently fall back
to defaults.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import get_type_hints

from .errors import ConfigError
from .model import PhysicsParams
from .sweep import DEFAULT_SWEEP_POINTS, DEFAULT_SWEEP_START, DEFAULT_SWEEP_STOP, SweepSpec

_PARAM_FIELDS = [f.name for f in dataclasses.fields(PhysicsParams)]


@dataclass(frozen=True)
class RunConfig(PhysicsParams):
    """Physics parameters plus the two-photon sweep window."""

    start: float = DEFAULT_SWEEP_START
    stop: float = DEFAULT_SWEEP_STOP
    n_points: int = DEFAULT_SWEEP_POINTS

    def __post_init__(self):
        super().__post_init__()
        if not self.start < self.stop:
            raise ConfigError("sweep window needs start < stop")
        SweepSpec.check_n_points(self.n_points)

    def params(self) -> PhysicsParams:
        values = {name: getattr(self, name) for name in _PARAM_FIELDS}
        return PhysicsParams(**values)

    @classmethod
    def keys(cls) -> tuple[str, ...]:
        return tuple(f.name for f in dataclasses.fields(cls))

    @classmethod
    def _int_keys(cls) -> set[str]:
        return {name for name, kind in get_type_hints(cls).items() if kind is int}

    @classmethod
    def from_text(cls, text: str, source: str = "<config>") -> "RunConfig":
        known = set(cls.keys())
        int_keys = cls._int_keys()
        values: dict[str, float | int] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in known:
                raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
            try:
                values[key] = int(value) if key in int_keys else float(value)
            except ValueError as exc:
                raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {value!r}") from exc
        try:
            return cls(**values)
        except ConfigError as exc:
            raise ConfigError(f"{source}: {exc}") from exc

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_text(text, source=str(path))

    def to_text(self) -> str:
        """The text :meth:`from_text` reads back into an equal config, NumPy
        scalars written as the Python numbers they equal."""
        int_keys = self._int_keys()
        lines = []
        for name in self.keys():
            value = (int if name in int_keys else float)(getattr(self, name))
            lines.append(f"{name} = {value!r}")
        return "\n".join(lines) + "\n"
