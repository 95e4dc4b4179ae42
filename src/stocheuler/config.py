"""Run configuration files (YAML) and their translation to runtime objects.

Layout mirrors the module names; every physical quantity is in torus units
(period defaults to 2*pi, time is the nondimensional advective unit).  See
README for a commented example.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import yaml

from .analysis import GBMParams
from .dynamics import (EM, SOBOLEV_THRESHOLD, StoppingRule,
                       TrajectoryConfig)
from .ensemble import EnsembleConfig, GBMSurrogateSpec, check_sweep_args
from .errors import ConfigError, InvalidParams, UnsupportedNorm
from .noise import (ADDITIVE, FUNCTIONAL, LINEAR_MULTIPLICATIVE, NEMYTSKII,
                    NoiseModel, spectrum_sigma_fields)
from .spectral import Grid, NormRequest, make_initial_field


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


@contextmanager
def _checked(where: str):
    """Report a missing key or a rejected value under `where` as a
    ConfigError."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"{where}: missing key {exc}") from exc
    except (TypeError, ValueError, InvalidParams, UnsupportedNorm) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _section(doc: dict, name: str, required: bool = True) -> dict:
    sec = doc.get(name)
    if sec is None:
        if required:
            raise ConfigError(f"missing config section '{name}'")
        return {}
    if not isinstance(sec, dict):
        raise ConfigError(f"config section '{name}' must be a mapping")
    return sec


def build_grid(doc: dict) -> Grid:
    sec = _section(doc, "grid")
    with _checked("grid"):
        return Grid(dim=int(sec.get("dim", 2)), n=int(sec.get("n", 32)),
                    length=float(sec.get("length", 2 * math.pi)),
                    dealias_fraction=float(sec.get("dealias_fraction",
                                                   2.0 / 3.0)))


def build_noise(doc: dict, grid: Grid) -> tuple[NoiseModel, int]:
    """The noise model and the master seed of its Brownian driver."""
    sec = _section(doc, "noise", required=False)
    kind = sec.get("kind", "none")
    seed = int(sec.get("seed", 0))
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if kind in ("none", None):
        return NoiseModel(ADDITIVE, sigma_fields=()), seed
    if kind == LINEAR_MULTIPLICATIVE:
        alpha = float(sec.get("alpha", 1.0))
        return NoiseModel(LINEAR_MULTIPLICATIVE, alpha=alpha), seed
    k_modes = int(sec.get("k_modes", 1))
    if k_modes < 0:
        raise ValueError(f"k_modes must be >= 0, got {k_modes}")
    decay = float(sec.get("mode_decay", 2.0))
    fields = spectrum_sigma_fields(grid, k_modes, decay, seed)
    if kind == ADDITIVE:
        model = NoiseModel(ADDITIVE, sigma_fields=fields)
    elif kind == NEMYTSKII:
        with _checked("noise.g"):
            model = NoiseModel(NEMYTSKII, sigma_fields=fields,
                               g_tag=sec.get("g", "identity"))
    elif kind == FUNCTIONAL:
        profiles = spectrum_sigma_fields(grid, k_modes, decay, seed + 1)
        model = NoiseModel(FUNCTIONAL, sigma_fields=fields,
                           profiles=profiles)
    else:
        raise ConfigError(f"noise.kind: unknown kind '{kind}'")
    return model, seed


def build_stopping(doc: dict) -> tuple[StoppingRule, ...]:
    rules = doc.get("stopping", [])
    if not isinstance(rules, list):
        raise ConfigError("'stopping' must be a list")
    out = []
    for i, spec in enumerate(rules):
        where = f"stopping[{i}]"
        if not isinstance(spec, dict):
            raise ConfigError(f"{where}: must be a mapping with 'kind' and "
                              f"'level', got {spec!r}")
        if "level" not in spec:
            raise ConfigError(f"{where}: missing key 'level'")
        try:
            level = float(spec["level"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: level must be a number, got "
                              f"{spec['level']!r}") from exc
        kind = spec.get("kind")
        with _checked(where):
            norm_spec = (NormRequest(int(spec.get("m", 1)),
                                     float(spec.get("p", 2)))
                         if kind == SOBOLEV_THRESHOLD else None)
            out.append(StoppingRule(kind, level, norm_spec))
    return tuple(out)


def build_norms(doc: dict) -> NormRequest:
    """The (m, p) of the sampled W^{m,p} norm; W^{3,2} by default."""
    norms = _section(doc, "norms", required=False)
    with _checked("norms"):
        return NormRequest(int(norms.get("m", 3)), float(norms.get("p", 2)))


def build_trajectory_config(doc: dict) -> TrajectoryConfig:
    grid = build_grid(doc)
    with _checked("noise"):
        model, noise_seed = build_noise(doc, grid)
    init = _section(doc, "initial", required=False)
    with _checked("initial"):
        try:
            u0 = make_initial_field(grid, init.get("name", "taylor_green"),
                                    float(init.get("amplitude", 1.0)),
                                    int(init.get("seed", 0)))
        except KeyError as exc:  # the message names the unknown field
            raise ValueError(exc.args[0]) from exc
    intg = _section(doc, "integrator")
    unknown = set(intg) - {"kind", "T", "dt", "alpha", "cfl", "sample_every"}
    if unknown:
        raise ConfigError(f"integrator: unknown key(s) "
                          f"{', '.join(sorted(map(str, unknown)))}")
    norms = build_norms(doc)
    stopping = build_stopping(doc)
    with _checked("integrator"):
        options = dict(
            T=float(intg["T"]), dt=float(intg["dt"]),
            integrator=intg.get("kind", EM),
            c_cfl=float(intg.get("cfl", 0.5)),
            sample_every=int(intg.get("sample_every", 1)))
    try:
        cfg = TrajectoryConfig(u0=u0, model=model, noise_seed=noise_seed,
                               stopping=stopping, norms=norms, **options)
    except InvalidParams as exc:
        raise ConfigError(f"integrator: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"integrator.kind: {exc}") from exc
    if "alpha" in intg:
        # the noise coefficient is the run's only alpha; an older config
        # may repeat it here
        with _checked("integrator.alpha"):
            if float(intg["alpha"]) != model.alpha:
                raise ValueError(f"{intg['alpha']} differs from noise.alpha "
                                 f"{model.alpha}; a transformed run damps "
                                 f"at noise.alpha")
    return cfg


def build_ensemble_config(doc: dict, output_dir: str | None = None
                          ) -> EnsembleConfig:
    ens = _section(doc, "ensemble")
    surrogate = None
    trajectory = None
    if "surrogate" in doc:
        s = _section(doc, "surrogate")
        with _checked("surrogate"):
            surrogate = GBMSurrogateSpec(alpha=float(s["alpha"]),
                                         R=float(s["R"]), T=float(s["T"]),
                                         dt=float(s["dt"]))
    else:
        trajectory = build_trajectory_config(doc)
    bound = None
    if "bound_comparison" in doc:
        b = _section(doc, "bound_comparison")
        with _checked("bound_comparison"):
            bound = GBMParams(mu=float(b["mu"]), alpha=float(b["alpha"]),
                              x0=float(b.get("x0", 1.0)), R=float(b["R"]))
    with _checked("ensemble"):
        return EnsembleConfig(
            trajectory=trajectory,
            n_paths=int(ens["n_paths"]),
            master_seed=int(ens.get("master_seed", 0)),
            parallel_width=int(ens.get("parallel_width", 1)),
            output_dir=output_dir, bound_comparison=bound,
            surrogate=surrogate)


def build_sweep(doc: dict) -> dict | None:
    """The keyword arguments of survival_vs_alpha_sweep from the 'sweep'
    section, checked before any path runs; None without that section."""
    if "sweep" not in doc:
        return None
    sw = _section(doc, "sweep")
    if "surrogate" in doc:
        raise ConfigError("sweep: needs a trajectory config, not a surrogate")
    with _checked("sweep"):
        args = dict(alpha_list=[float(a) for a in sw["alpha_list"]],
                    R=float(sw["R"]),
                    data_scaling=sw.get("scaling", "fixed"),
                    Cbar=float(sw.get("Cbar", 1.0)))
        check_sweep_args(args["alpha_list"], args["data_scaling"])
    return args
