"""Flat key=value experiment configuration.

Dotted keys, one per line (`psi.family=log_drift`), chosen over nested
formats for diff-friendliness.  Parsing and printing round-trip exactly:
parse(print(config)) == config.

Grammar:
    line    := comment | blank | entry
    comment := '#' ...
    entry   := key '=' value      (whitespace around key/value stripped)
    key     := dotted identifier
Values are kept verbatim as strings; typed accessors coerce on read.
`KEYS` is every key a run reads: `SHARED_KEYS`, which every subcommand
takes, and `SUBCOMMAND_KEYS`, the keys each subcommand's handler reads.
The CLI refuses a key its subcommand does not take.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .approx import (
    ConstantRatio,
    DimensionParams,
    LogDrift,
    MaxWithHalf,
    PowerDrift,
    PsiFunction,
    Tabulated,
)
from .errors import ValidationError
from .lattice import WeightPair
from .rate import RateFunction, clamp_rate

# keys every subcommand takes: the run's own and the dimensions (cfg.dims())
SHARED_KEYS = frozenset({"subcommand", "seed", "threads", "out", "dims.m", "dims.n"})

# the keys of the cfg.weights(), cfg.psi() and cfg.rate() builders beyond the dimensions
_WEIGHTS = frozenset({"weights.alpha", "weights.beta"})
_PSI = frozenset({"psi.family", "psi.params", "psi.t0", "psi.knots", "psi.reduce"})
_RATE = _PSI | {"rate.source", "rate.value", "rate.gamma", "rate.gamma_prime", "rate.eta"}

# the keys each subcommand's handler reads besides the shared ones, its builders' included
SUBCOMMAND_KEYS = {
    "classify": _PSI | {"series.horizons"},
    "dani": _PSI | {"dani.s_max", "dani.s_step"},
    "check": _WEIGHTS | _PSI | {"A", "check.T", "check.classic", "check.oracle"},
    "measure": _WEIGHTS | {
        "measure.kinds", "measure.r_values", "measure.r_min", "measure.r_max", "measure.r_count",
        "measure.n", "measure.s_push", "fit.freeze_lambda",
    },
    "orbit": _WEIGHTS | _RATE | {
        "A", "ensemble",
        "orbit.mode", "orbit.k_min", "orbit.k_max", "orbit.a", "orbit.variant", "orbit.C_r",
    },
    "disjoint": _WEIGHTS | {"disjoint.r", "disjoint.samples"},
    "crossval": _WEIGHTS | _PSI | {"ensemble", "crossval.S", "crossval.s_step"},
}

# every key a run reads; the CLI refuses any other, and any key the
# subcommand does not read, so a misspelt or misplaced key is not silently
# dropped
KEYS = SHARED_KEYS.union(*SUBCOMMAND_KEYS.values())

DEFAULTS = {
    "seed": "0",
    "threads": "1",
    "out": "out",
    "dims.m": "1",
    "dims.n": "1",
}


@dataclass
class ExperimentConfig:
    entries: dict = field(default_factory=dict)

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        entries = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValidationError(f"config line {lineno}: expected key=value, got {raw!r}")
            key, value = line.split("=", 1)
            key = key.strip()
            if not key:
                raise ValidationError(f"config line {lineno}: empty key")
            entries[key] = value.strip()
        return cls(entries)

    def to_text(self) -> str:
        return "".join(f"{k}={self.entries[k]}\n" for k in sorted(self.entries))

    def __eq__(self, other):
        return isinstance(other, ExperimentConfig) and self.entries == other.entries

    # -- typed accessors -----------------------------------------------------

    def get(self, key: str, default=None):
        if key in self.entries:
            return self.entries[key]
        if default is not None:
            return default
        return DEFAULTS.get(key)

    def require(self, key: str) -> str:
        val = self.get(key)
        if val is None:
            raise ValidationError(f"missing config key {key!r}")
        return val

    def get_int(self, key: str, default=None) -> int:
        val = self.get(key, None if default is None else str(default))
        if val is None:
            raise ValidationError(f"missing config key {key!r}")
        try:
            return int(val)
        except ValueError as exc:
            raise ValidationError(f"{key}={val!r} is not an integer") from exc

    def get_float(self, key: str, default=None) -> float:
        val = self.get(key, None if default is None else repr(float(default)))
        if val is None:
            raise ValidationError(f"missing config key {key!r}")
        try:
            return float(val)
        except ValueError as exc:
            raise ValidationError(f"{key}={val!r} is not a number") from exc

    def get_bool(self, key: str, default: bool = False) -> bool:
        val = self.get(key, str(default).lower())
        if val.lower() in ("1", "true", "yes", "on"):
            return True
        if val.lower() in ("0", "false", "no", "off"):
            return False
        raise ValidationError(f"{key}={val!r} is not a boolean")

    def get_floats(self, key: str, default: str | None = None):
        return self._get_list(key, default, float, "a number list")

    def get_ints(self, key: str, default: str | None = None):
        return self._get_list(key, default, int, "an integer list")

    def _get_list(self, key: str, default, parse, what: str):
        val = self.get(key, default)
        if val is None:
            raise ValidationError(f"missing config key {key!r}")
        try:
            return [parse(v) for v in val.replace(",", " ").split()]
        except ValueError as exc:
            raise ValidationError(f"{key}={val!r} is not {what}") from exc

    # -- domain object builders ----------------------------------------------

    def dims(self) -> DimensionParams:
        return DimensionParams(self.get_int("dims.m"), self.get_int("dims.n"))

    def weights(self) -> WeightPair:
        dims = self.dims()
        if "weights.alpha" in self.entries or "weights.beta" in self.entries:
            alpha = tuple(self.get_floats("weights.alpha"))
            beta = tuple(self.get_floats("weights.beta"))
            if len(alpha) != dims.m or len(beta) != dims.n:
                raise ValidationError("weight lengths must match dims.m / dims.n")
            return WeightPair(alpha=alpha, beta=beta)
        return WeightPair.unweighted(dims.m, dims.n)

    def psi(self) -> PsiFunction:
        family = self.require("psi.family")
        t0 = self.get_float("psi.t0") if "psi.t0" in self.entries else None
        params = self.get_floats("psi.params", "") if "psi.params" in self.entries else []
        if family == "constant_ratio":
            if len(params) != 1:
                raise ValidationError("constant_ratio takes psi.params=c")
            base = ConstantRatio(params[0], t0=t0 if t0 is not None else 2.0)
        elif family == "log_drift":
            if len(params) != 2:
                raise ValidationError("log_drift takes psi.params=c,a")
            base = LogDrift(params[0], params[1], t0=t0)
        elif family == "power_drift":
            if len(params) != 2:
                raise ValidationError("power_drift takes psi.params=c,a")
            base = PowerDrift(params[0], params[1], t0=t0 if t0 is not None else 2.0)
        elif family == "tabulated":
            knot_text = self.require("psi.knots")
            knots = []
            for item in knot_text.split(","):
                t_str, _, p_str = item.partition(":")
                knots.append((float(t_str), float(p_str)))
            base = Tabulated(knots)
        else:
            raise ValidationError(f"unknown psi.family {family!r}")
        if self.get_bool("psi.reduce", False):
            base = MaxWithHalf(base)
        return base

    def rate(self) -> RateFunction:
        dims = self.dims()
        source = self.get("rate.source", "psi")
        if source == "psi":
            rate = RateFunction.from_psi(self.psi(), dims)
        elif source == "constant":
            rate = RateFunction.constant(self.get_float("rate.value"), dims)
        else:
            raise ValidationError(f"unknown rate.source {source!r}")
        if "rate.gamma" in self.entries or "rate.gamma_prime" in self.entries:
            rate = clamp_rate(
                rate,
                self.get_float("rate.gamma"),
                self.get_float("rate.gamma_prime"),
                eta=self.get_float("rate.eta", 0.5),
            )
        return rate

    def matrix(self, key: str) -> np.ndarray:
        """Matrix from whitespace/comma text; rows split on ';' or newline."""
        text = self.require(key)
        rows = [r for r in text.replace("\n", ";").split(";") if r.strip()]
        data = [[float(v) for v in row.replace(",", " ").split()] for row in rows]
        widths = {len(row) for row in data}
        if len(widths) != 1:
            raise ValidationError(f"{key}: ragged matrix rows")
        return np.array(data)

