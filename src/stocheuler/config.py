"""Run configuration files (YAML) and their translation to runtime objects.

Layout mirrors the module names; every physical quantity is in torus units
(period defaults to 2*pi, time is the nondimensional advective unit).  See
README for a commented example.  SCHEMA declares each section and its keys
(a 'stopping' entry's, for that list) once: key -> (converter, default), the
default REQUIRED, a value, or None to leave the key to the default of the
constructor it feeds.
"""

from __future__ import annotations

import math

import yaml

from .analysis import GBMParams
from .dynamics import SOBOLEV_THRESHOLD, StoppingRule, TrajectoryConfig
from .ensemble import EnsembleConfig, GBMSurrogateSpec, check_sweep_args
from .errors import ConfigError, InvalidParams, UnsupportedNorm
from .noise import (ADDITIVE, FUNCTIONAL, LINEAR_MULTIPLICATIVE, NEMYTSKII,
                    NONE, NoiseModel, spectrum_sigma_fields)
from .spectral import Grid, NormRequest, make_initial_field


def _converter(convert, what: str):
    """convert, its failure reported as 'must be <what>, got <value>'."""
    def checked(value):
        try:
            return convert(value)
        except (TypeError, ValueError):
            raise ValueError(f"must be {what}, got {value!r}") from None
    return checked


def _whole(value) -> int:
    """int(value), rejecting the fractional float that int would truncate."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(value)
    return int(value)


def _real(value) -> float:
    """float(value), rejecting NaN, which no key accepts (inf is a value)."""
    if math.isnan(x := float(value)):
        raise ValueError(value)
    return x


_number = _converter(_real, "a number")
_integer = _converter(_whole, "an integer")
_numbers = _converter(lambda v: [_real(x) for x in v], "a list of numbers")
REQUIRED = object()

SCHEMA = {
    "grid": {"dim": (_integer, 2), "n": (_integer, 32),
             "length": (_number, None), "dealias_fraction": (_number, None)},
    "initial": {"name": (str, "taylor_green"), "amplitude": (_number, None),
                "seed": (_integer, None)},
    "noise": {"kind": (str, "none"), "seed": (_integer, 0),
              "alpha": (_number, 1.0), "k_modes": (_integer, 1),
              "mode_decay": (_number, 2.0), "g": (str, None)},
    "integrator": {"kind": (str, None), "T": (_number, REQUIRED),
                   "dt": (_number, REQUIRED), "alpha": (_number, None),
                   "cfl": (_number, None), "sample_every": (_integer, None)},
    "norms": {"m": (_integer, 3), "p": (_number, 2.0)},
    # per entry; m and p select the norm of a sobolev_threshold rule
    "stopping": {"kind": (str, REQUIRED), "level": (_number, REQUIRED),
                 "m": (_integer, 1), "p": (_number, 2.0)},
    "ensemble": {"n_paths": (_integer, REQUIRED),
                 "master_seed": (_integer, 0),
                 "parallel_width": (_integer, None)},
    "surrogate": dict.fromkeys(("alpha", "R", "T", "dt"), (_number, REQUIRED)),
    "bound_comparison": {**dict.fromkeys(("mu", "alpha", "R"),
                                         (_number, REQUIRED)),
                         "x0": (_number, None)},
    "sweep": {"alpha_list": (_numbers, REQUIRED), "R": (_number, REQUIRED),
              "Cbar": (_number, None)},
    "output": {"dir": (str, None)},
}


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a mapping")
    return doc


def apply_overrides(doc: dict, overrides: list[str]) -> dict:
    """Apply --set key.path=value pairs; values parse as YAML scalars."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override '{item}' is not key=value")
        key, raw = item.split("=", 1)
        node = doc
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override key '{key}' crosses a scalar")
        val = yaml.safe_load(raw)
        if isinstance(val, str):
            # YAML 1.1 leaves dotless scientific notation ("1e-3") as a
            # string; numeric overrides should not depend on that quirk
            try:
                val = float(val)
            except ValueError:
                pass
        node[parts[-1]] = val
    return doc


def _entries(doc: dict, name: str) -> list[tuple[str, dict]]:
    """(where, mapping) of each mapping in section `name`, if present."""
    sec = doc.get(name)
    if name != "stopping":
        entries = [] if sec is None else [(name, sec)]
    elif isinstance(sec, (list, type(None))):
        entries = [(f"{name}[{i}]", e) for i, e in enumerate(sec or [])]
    else:
        raise ConfigError(f"{name}: must be a list, got {sec!r}")
    for where, values in entries:
        if not isinstance(values, dict):
            raise ConfigError(f"{where}: must be a mapping, got {values!r}")
    return entries


def check_keys(doc: dict) -> None:
    """Reject an unknown section, or an unknown key in a section present."""
    checks = [("config", doc, SCHEMA)]
    checks += [(where, values, SCHEMA[name]) for name in doc if name in SCHEMA
               for where, values in _entries(doc, name)]
    for where, values, keys in checks:
        if unknown := set(values) - set(keys):
            raise ConfigError(f"{where}: unknown key(s) "
                              f"{', '.join(sorted(map(str, unknown)))}")


def _read(values: dict, where: str, schema: dict) -> dict:
    """One mapping's converted values and its absent keys' defaults."""
    out = {}
    for key, (convert, default) in schema.items():
        if key in values:
            try:
                out[key] = convert(values[key])
            except ValueError as exc:
                raise ConfigError(f"{where}: {key} {exc}") from None
        elif default is REQUIRED:
            raise ConfigError(f"{where}: missing key '{key}'")
        elif default is not None:
            out[key] = default
    return out


def _section(doc: dict, name: str, required: bool = False, **names) -> dict:
    """One section's converted keys, those in names renamed to arguments."""
    if required and doc.get(name) is None:
        raise ConfigError(f"missing config section '{name}'")
    (_, values), = _entries(doc, name) or [(name, {})]
    out = _read(values, name, SCHEMA[name])
    return {names[k] if k in names else k: v for k, v in out.items()}


def _call(where: str, make, *args, **kwargs):
    """make(*args, **kwargs), a value it rejects reported under `where`."""
    try:
        return make(*args, **kwargs)
    except (KeyError, ValueError, InvalidParams, UnsupportedNorm) as exc:
        message = exc.args[0] if exc.args else exc  # str(KeyError) quotes
        raise ConfigError(f"{where}: {message}") from exc


def build_grid(doc: dict) -> Grid:
    return _call("grid", Grid, **_section(doc, "grid", required=True))


# the noise keys each kind reads besides kind and seed
_NOISE_KEYS = {NONE: (), LINEAR_MULTIPLICATIVE: ("alpha",),
               ADDITIVE: ("k_modes", "mode_decay"),
               FUNCTIONAL: ("k_modes", "mode_decay"),
               NEMYTSKII: ("k_modes", "mode_decay", "g")}


def build_noise(doc: dict, grid: Grid) -> tuple[NoiseModel, int]:
    """The noise model and the master seed of its Brownian driver.  A key
    the chosen kind does not read is a ConfigError, as a misspelt one is."""
    sec = _section(doc, "noise")
    kind, seed = sec["kind"], sec["seed"]
    if kind not in _NOISE_KEYS:
        raise ConfigError(f"noise.kind: unknown kind '{kind}'")
    if unread := set(doc.get("noise") or ()) - {"kind", "seed",
                                                 *_NOISE_KEYS[kind]}:
        raise ConfigError(f"noise: kind '{kind}' does not read key(s) "
                          f"{', '.join(sorted(unread))}")
    if seed < 0:
        raise ConfigError(f"noise: seed must be non-negative, got {seed}")
    if kind == NONE:
        return NoiseModel(kind), seed
    if kind == LINEAR_MULTIPLICATIVE:
        return _call("noise.alpha", NoiseModel, kind, alpha=sec["alpha"]), seed

    if sec["k_modes"] == 0:
        raise ConfigError(f"noise.k_modes: kind '{kind}' with 0 modes is a "
                          f"run without noise; set noise.kind: {NONE}")

    def fields(field_seed):
        return _call("noise", spectrum_sigma_fields, grid, sec["k_modes"],
                     sec["mode_decay"], field_seed)

    # the g tag is the one value NoiseModel can reject here
    options = {"g_tag": sec["g"]} if "g" in sec else {}
    if kind == FUNCTIONAL:
        options["profiles"] = fields(seed + 1)
    return _call("noise.g", NoiseModel, kind, sigma_fields=fields(seed),
                 **options), seed


def build_stopping(doc: dict) -> tuple[StoppingRule, ...]:
    rules = []
    for where, values in _entries(doc, "stopping"):
        spec = _read(values, where, SCHEMA["stopping"])
        norm_spec = (_call(where, NormRequest, spec["m"], spec["p"])
                     if spec["kind"] == SOBOLEV_THRESHOLD else None)
        rules.append(_call(where, StoppingRule, spec["kind"], spec["level"],
                           norm_spec))
    return tuple(rules)


def build_trajectory_config(doc: dict) -> TrajectoryConfig:
    check_keys(doc)
    grid = build_grid(doc)
    model, noise_seed = build_noise(doc, grid)
    u0 = _call("initial", make_initial_field, grid,
               **_section(doc, "initial"))
    norms = _call("norms", NormRequest, **_section(doc, "norms"))
    stopping = build_stopping(doc)
    intg = _section(doc, "integrator", required=True, kind="integrator",
                    cfl="c_cfl")
    alpha = intg.pop("alpha", None)
    try:
        cfg = TrajectoryConfig(u0=u0, model=model, noise_seed=noise_seed,
                               stopping=stopping, norms=norms, **intg)
    except InvalidParams as exc:
        raise ConfigError(f"integrator: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"integrator.kind: {exc}") from exc
    if alpha is not None:
        if model.kind != LINEAR_MULTIPLICATIVE:
            raise ConfigError(f"integrator.alpha: noise kind '{model.kind}' "
                              f"has no alpha")
        if alpha != model.alpha:
            raise ConfigError(f"integrator.alpha: {alpha} differs from "
                              f"noise.alpha {model.alpha}, the run's one "
                              f"alpha")
    return cfg


def build_ensemble_config(doc: dict, output_dir: str | None = None
                          ) -> EnsembleConfig:
    """The config's ensemble; output_dir, if given, replaces output.dir."""
    check_keys(doc)
    ens = _section(doc, "ensemble", required=True)
    surrogate = trajectory = bound = None
    if "surrogate" in doc:
        surrogate = _call("surrogate", GBMSurrogateSpec,
                          **_section(doc, "surrogate"))
    else:
        trajectory = build_trajectory_config(doc)
    if "bound_comparison" in doc:
        bound = _call("bound_comparison", GBMParams,
                      **_section(doc, "bound_comparison"))
    output_dir = output_dir or _section(doc, "output").get("dir")
    return _call("ensemble", EnsembleConfig, trajectory=trajectory,
                 output_dir=output_dir, bound_comparison=bound,
                 surrogate=surrogate, **ens)


def build_sweep(doc: dict, trajectory: TrajectoryConfig | None
                ) -> dict | None:
    """The keyword arguments of survival_vs_alpha_sweep from the 'sweep'
    section, checked against the ensemble's trajectory config (None for a
    surrogate) before any path runs; None without that section."""
    if "sweep" not in doc:
        return None
    args = _section(doc, "sweep")
    _call("sweep", check_sweep_args, trajectory, **args)
    return args
