"""Config-driven command line front end with reproducible artifacts.

This module is the single schema authority for run configs.  A config is a
YAML or JSON mapping; unknown keys are rejected anywhere in the document,
and every default lives in ``CONFIG_DEFAULTS`` below.  A JSON document is
read by ``json``, and PyYAML is imported only for a document that is not
JSON; ``NaN`` and ``Infinity`` count as not JSON, so PyYAML reads them, as
strings.  JSON is a subset of YAML 1.2, so both read the same values from
what ``json.dumps`` writes; JSON that PyYAML refuses, such as a file
indented with tabs, loads too.  Floats may be written ``1e-10`` or ``1e3``,
as YAML 1.2 and ``json.dumps`` write them; quote an ``out`` of that form.

Schema::

    potential:                # required mapping; every number in it finite
      kind:              power_law | exponential | finite_table | zero
      beta:              float >= 0                 (required)
      q:                 float > 1                  (power_law only)
      rate:              float > 0                  (exponential only)
      amplitude:         float > 0, default 1.0     (power_law, exponential)
      values:            [float >= 0, ...]          (finite_table only)
      truncation_range:  int >= 0 or null, default null
    experiments:         subset of [criteria, gfun, bounds, sample, couple],
                         or [all]; default [all]
    n_max:               int in [1, 2^20], default 64    (bounds rows)
    seed:                int in [0, 2^64), default 20260814
    rel_width:           float in (0, 1), default 1e-10  (target relative
                         width of each R_n series row in bounds; no other
                         experiment reads it)
    sample_length:       int in [1, 2^24], default 65536
    couple_length:       int in [1, 2^24], default 65536
    empirical_window:    int in [0, 12], default 10 (the exact var_n(log g)
                         column of bounds, depths 1..window; 0 disables it)
    alpha:               float in (0, 1] or null, default null
    budget:              float > 0 or null, default null (requires alpha)
    alpha_grid:          [float in (0, 1], ...] or null, default null
                         (product_blocksum quotes the largest admissible
                         alpha; alpha, when set, wins over the grid)
    out:                 str, default "runs"

Artifacts land in the output directory: ``report.json`` (verdicts and
experiment summaries), one CSV per series-producing experiment, and
``manifest.json``.  Identical configs produce byte-identical reports and
CSVs; the manifest alone carries the timestamp.  Its ``config_sha256`` is
the SHA-256 of the config file's bytes, read once and parsed as hashed,
from CPython's builtin SHA-256 module (``_sha2``, or ``_sha256`` before
3.12): ``hashlib`` would map OpenSSL's libcrypto, about 3.4 MB, into the
process, and no ``gibbs1d`` process loads it (see the exact side below).
Every float is emitted with 17 significant digits, and JSON objects are
written with sorted keys.  Non-finite floats (possible only in
diagnostic fields) appear as the JSON strings "inf", "-inf", "nan".

Exit codes: 0 on success, 1 when a requested experiment trips a kernel
guard (the message names the guard), 2 on config or usage errors.  A
criterion reporting Fails is a result, not an error, and still exits 0.
The ``report`` subcommand records per-experiment guard messages in the
report instead of aborting, so one infeasible experiment cannot sink a
sweep.

The exact experiments (``gfun``, ``sample``, ``couple`` and the measured
column of ``bounds``) settle the exact side's guards
(``potential.transfer_range``) before they import ``kernel`` or
``dynamics``, and with them NumPy, so a refused law loads neither.  NumPy is
only found at the import of this module, so that a missing NumPy fails
there, on every command.  ``numpy.random`` imports ``secrets`` for unseeded
entropy, and through ``hmac`` and ``hashlib`` OpenSSL's ``_hashlib``; every
generator here is keyed (Philox on (seed, chain_id)), so nothing is hashed.
So ``sample`` and ``couple`` import ``numpy.random`` before the first draw,
and the exact experiments import ``kernel`` (NumPy 1 loads ``numpy.random``
with ``numpy``), with ``_hashlib`` held out: ``hashlib`` and ``hmac`` take
their builtin fallbacks.  This command owns its process; a library caller
of ``dynamics`` keeps its own ``hashlib``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import sys
import time
from pathlib import Path
from typing import Optional

try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:  # built without the builtin digests: hashlib maps OpenSSL's libcrypto instead
        from hashlib import sha256

from . import __version__
from ._record import record
from .criteria import Verdict, evaluate_all
from .fseq import Word
from .potential import (
    ENUMERATION_MAX_WINDOW,
    CouplingLaw,
    PairPotential,
    slope_certificate,
    tail_variation,
    transfer_range,
)
from .ratiobound import DEFAULT_REL_WIDTH, log_r_bound_envelope

if importlib.util.find_spec("numpy") is None:  # the exact side imports it
    raise ModuleNotFoundError("No module named 'numpy'", name="numpy")

EXPERIMENTS = ("criteria", "gfun", "bounds", "sample", "couple")

CONFIG_DEFAULTS = {
    "experiments": ["all"],
    "n_max": 64,
    "seed": 20260814,
    "rel_width": DEFAULT_REL_WIDTH,
    "sample_length": 65536,
    "couple_length": 65536,
    "empirical_window": 10,
    "alpha": None,
    "budget": None,
    "alpha_grid": None,
    "out": "runs",
}

# config keys passed to evaluate_all as keywords when they differ from the default
_CRITERIA_KNOBS = ("alpha", "budget", "alpha_grid")

_POTENTIAL_KEYS = {"kind", "beta", "q", "rate", "amplitude", "values", "truncation_range"}
_KIND_REQUIRED = {
    "power_law": {"q"},
    "exponential": {"rate"},
    "finite_table": {"values"},
    "zero": set(),
}
_KIND_OPTIONAL = {
    "power_law": {"amplitude"},
    "exponential": {"amplitude"},
    "finite_table": set(),
    "zero": set(),
}


class ConfigError(ValueError):
    """A config document violates the schema above."""


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _as_number(doc: dict, key: str, where: str) -> float:
    v = doc[key]
    _expect(isinstance(v, (int, float)) and not isinstance(v, bool), f"{where}.{key} must be a number")
    return float(v)


def _as_int(doc: dict, key: str, where: str) -> int:
    v = doc[key]
    _expect(isinstance(v, int) and not isinstance(v, bool), f"{where}.{key} must be an integer")
    return v


@record
class RunConfig:
    """A validated run description; ``parse_config`` is the only constructor
    that should be trusted with user input."""

    kind: str
    beta: float
    q: Optional[float]
    rate: Optional[float]
    amplitude: float
    values: tuple
    truncation_range: Optional[int]
    experiments: tuple
    n_max: int
    seed: int
    rel_width: float
    sample_length: int
    couple_length: int
    empirical_window: int
    alpha: Optional[float]
    budget: Optional[float]
    alpha_grid: Optional[tuple]
    out: str

    def build_potential(self) -> PairPotential:
        try:
            if self.kind == "power_law":
                law = CouplingLaw.power_law(self.q, self.amplitude)
            elif self.kind == "exponential":
                law = CouplingLaw.exponential(self.rate, self.amplitude)
            elif self.kind == "finite_table":
                law = CouplingLaw.finite_table(self.values)
            else:
                law = CouplingLaw.zero()
            return PairPotential(
                beta=self.beta, coupling=law, truncation_range=self.truncation_range
            )
        except ValueError as exc:
            raise ConfigError(f"potential: {exc}") from exc

    def as_doc(self) -> dict:
        """The schema document this config round-trips through."""

        def doc(keys) -> dict:
            values = {k: getattr(self, k) for k in keys}
            return {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}

        kind = self.kind
        pot_keys = {"kind", "beta", "truncation_range"} | _KIND_REQUIRED[kind] | _KIND_OPTIONAL[kind]
        return {"potential": doc(pot_keys), **doc(CONFIG_DEFAULTS)}


def parse_config(doc: dict) -> RunConfig:
    _expect(isinstance(doc, dict), "config must be a mapping")
    allowed = set(CONFIG_DEFAULTS) | {"potential"}
    unknown = set(doc) - allowed
    _expect(not unknown, f"unknown config keys: {sorted(unknown)}")
    _expect("potential" in doc, "config needs a 'potential' section")

    pot = doc["potential"]
    _expect(isinstance(pot, dict), "potential must be a mapping")
    unknown = set(pot) - _POTENTIAL_KEYS
    _expect(not unknown, f"unknown potential keys: {sorted(unknown)}")
    _expect("kind" in pot, "potential needs a 'kind'")
    kind = pot["kind"]
    _expect(kind in _KIND_REQUIRED, f"potential.kind must be one of {sorted(_KIND_REQUIRED)}")
    _expect("beta" in pot, "potential needs a 'beta'")
    beta = _as_number(pot, "beta", "potential")
    _expect(beta >= 0.0 and math.isfinite(beta), "potential.beta must be finite and >= 0")

    given = set(pot) - {"kind", "beta", "truncation_range"}
    required = _KIND_REQUIRED[kind]
    legal = required | _KIND_OPTIONAL[kind]
    _expect(required <= given, f"potential.kind={kind} requires {sorted(required - given)}")
    _expect(given <= legal, f"potential.kind={kind} does not take {sorted(given - legal)}")

    q = rate = None
    amplitude = 1.0
    values: tuple = ()
    if kind == "power_law":
        q = _as_number(pot, "q", "potential")
        _expect(q > 1.0 and math.isfinite(q), "potential.q must exceed 1 and be finite")
    if kind == "exponential":
        rate = _as_number(pot, "rate", "potential")
        _expect(rate > 0.0 and math.isfinite(rate), "potential.rate must be positive and finite")
    if "amplitude" in pot:
        amplitude = _as_number(pot, "amplitude", "potential")
        _expect(amplitude > 0.0 and math.isfinite(amplitude), "potential.amplitude must be positive")
    if kind == "finite_table":
        raw = pot["values"]
        _expect(
            isinstance(raw, list)
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in raw),
            "potential.values must be a list of numbers",
        )
        values = tuple(float(v) for v in raw)
        _expect(all(map(math.isfinite, values)), "potential.values must be finite")

    truncation_range = pot.get("truncation_range")
    if truncation_range is not None:
        truncation_range = _as_int(pot, "truncation_range", "potential")
        _expect(truncation_range >= 0, "potential.truncation_range must be >= 0")

    merged = dict(CONFIG_DEFAULTS)
    merged.update({k: v for k, v in doc.items() if k != "potential"})

    exps = merged["experiments"]
    _expect(
        isinstance(exps, list) and exps and all(isinstance(e, str) for e in exps),
        "experiments must be a nonempty list of names",
    )
    bad = [e for e in exps if e not in EXPERIMENTS + ("all",)]
    _expect(not bad, f"unknown experiments: {bad}")
    experiments = EXPERIMENTS if "all" in exps else tuple(dict.fromkeys(exps))

    n_max = _as_int(merged, "n_max", "config")
    _expect(1 <= n_max <= 1 << 20, "n_max must lie in [1, 2^20]")
    seed = _as_int(merged, "seed", "config")
    _expect(0 <= seed < 1 << 64, "seed must fit in 64 bits")
    rel_width = _as_number(merged, "rel_width", "config")
    _expect(0.0 < rel_width < 1.0, "rel_width must lie in (0, 1)")
    sample_length = _as_int(merged, "sample_length", "config")
    _expect(1 <= sample_length <= 1 << 24, "sample_length must lie in [1, 2^24]")
    couple_length = _as_int(merged, "couple_length", "config")
    _expect(1 <= couple_length <= 1 << 24, "couple_length must lie in [1, 2^24]")
    empirical_window = _as_int(merged, "empirical_window", "config")
    _expect(
        0 <= empirical_window <= ENUMERATION_MAX_WINDOW,
        f"empirical_window must lie in [0, {ENUMERATION_MAX_WINDOW}]",
    )

    alpha = merged["alpha"]
    if alpha is not None:
        alpha = _as_number(merged, "alpha", "config")
        _expect(0.0 < alpha <= 1.0, "alpha must lie in (0, 1]")
    budget = merged["budget"]
    if budget is not None:
        budget = _as_number(merged, "budget", "config")
        _expect(budget > 0.0 and math.isfinite(budget), "budget must be positive and finite")
        _expect(alpha is not None, "budget requires alpha")
    grid = merged["alpha_grid"]
    if grid is not None:
        _expect(
            isinstance(grid, list)
            and grid
            and all(
                isinstance(a, (int, float)) and not isinstance(a, bool) and 0.0 < a <= 1.0
                for a in grid
            ),
            "alpha_grid must be a nonempty list of numbers in (0, 1]",
        )
        grid = tuple(float(a) for a in grid)
    out = merged["out"]
    _expect(isinstance(out, str) and out, "out must be a nonempty string")

    return RunConfig(
        kind=kind,
        beta=beta,
        q=q,
        rate=rate,
        amplitude=amplitude,
        values=values,
        truncation_range=truncation_range,
        experiments=experiments,
        n_max=n_max,
        seed=seed,
        rel_width=rel_width,
        sample_length=sample_length,
        couple_length=couple_length,
        empirical_window=empirical_window,
        alpha=alpha,
        budget=budget,
        alpha_grid=grid,
        out=out,
    )


def _read_config(path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _load_yaml(data: bytes):
    """Parse a config that is not JSON.  PyYAML is imported here only: its
    import costs about 17 ms, most of it regex compiles, in every process."""
    import re

    import yaml

    class Loader(yaml.SafeLoader):
        """Safe YAML 1.1 loading that also reads YAML 1.2 floats such as ``1e-10``:
        tried after the 1.1 resolvers, it leaves what they type, and quoted scalars."""

    exponent_float = re.compile(r"^[-+]?[0-9]+(?:\.[0-9]*)?[eE][-+]?[0-9]+$")
    Loader.add_implicit_resolver("tag:yaml.org,2002:float", exponent_float, list("-+0123456789"))
    try:
        return yaml.load(data, Loader=Loader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    except ValueError as exc:  # a scalar no Python value holds, such as an int past the digit limit
        raise ConfigError(f"config value cannot be read: {exc}") from exc


def _parse_document(data: bytes):
    try:
        return json.loads(data, parse_constant=_refuse_constant)
    except ValueError:  # not JSON, not UTF-8/16/32, or NaN/Infinity: PyYAML decides
        return _load_yaml(data)


def load_config(source) -> RunConfig:
    """Read and validate a run config, given its path or its bytes."""
    return parse_config(_parse_document(source if isinstance(source, bytes) else _read_config(source)))


# --- deterministic emission ---


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def _json_text(value, indent: int = 0) -> str:
    pad = "  " * indent
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt_float(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        body = ",\n".join(pad + "  " + _json_text(v, indent + 1) for v in value)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {_json_text(v, indent + 1)}"
            for k, v in sorted(value.items())
        )
        return "{\n" + body + "\n" + pad + "}"
    raise TypeError(f"cannot emit {type(value).__name__} deterministically")


def write_json(path, value) -> None:
    Path(path).write_text(_json_text(value) + "\n")


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


# --- experiment runners ---


def _verdict_doc(v: Verdict) -> dict:
    return {
        "criterion": v.criterion,
        "outcome": v.outcome,
        "margin": None if v.margin is None else {"lo": v.margin.lo, "hi": v.margin.hi},
        "certificate": v.certificate,
        "conclusion_strength": v.conclusion_strength,
    }


def _run_criteria(cfg: RunConfig, p: PairPotential) -> dict:
    knobs = {k: getattr(cfg, k) for k in _CRITERIA_KNOBS if getattr(cfg, k) != CONFIG_DEFAULTS[k]}
    report = evaluate_all(p, **knobs)
    return {
        "strongest_conclusion": report.strongest,
        "knobs": report.knobs,
        "verdicts": [_verdict_doc(v) for v in report.verdicts],
    }


def _past_string(letters) -> str:
    return "".join("+" if s > 0 else "-" for s in letters)


def _import_without_openssl(name: str):
    """Import module ``name`` (relative to this package when it starts with a
    dot) with OpenSSL's ``_hashlib`` held out, as the module docstring says.
    The block lasts for the import only, and a process that already holds
    ``_hashlib`` keeps it."""
    if "_hashlib" in sys.modules:
        return importlib.import_module(name, __package__)
    sys.modules["_hashlib"] = None
    try:
        return importlib.import_module(name, __package__)
    finally:
        del sys.modules["_hashlib"]


def _exact_g(p: PairPotential):
    """The exact Markov conditional g of ``p``; the exact side's guards are
    settled before ``kernel``, and with it NumPy, loads."""
    transfer_range(p)
    return _import_without_openssl(".kernel").g_exact_markov(p)


def _run_gfun(cfg: RunConfig, p: PairPotential, out: Path) -> dict:
    import csv

    g = _exact_g(p)
    table = g.table
    path = out / "gfun.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["past", "prob_minus", "prob_plus"])
        for state, minus, plus in zip(g.states, table[0].tolist(), table[1].tolist()):
            w.writerow([_past_string(state), _cell(minus), _cell(plus)])
    law = g.state_law()
    return {
        "csv": path.name,
        "dependency_depth": g.dependency_depth,
        "states": table.shape[1],
        "eigenvalue": g.eigenvalue,
        "perron_residual": g.residual,
        "stationary_prob_plus": float(sum(law * table[1])),
    }


def _run_bounds(cfg: RunConfig, p: PairPotential, out: Path) -> dict:
    import csv

    from .rows import g_variation_bound  # the R_n rows and tail tables: only bounds loads them

    envelope = log_r_bound_envelope(p)
    slope, _ = slope_certificate(p)

    empirical: dict = {}
    empirical_note = None
    if cfg.empirical_window > 0:
        try:
            g = _exact_g(p)
            empirical = {n: g.log_variation(n) for n in range(1, min(cfg.n_max, cfg.empirical_window) + 1)}
        except (ValueError, ArithmeticError) as exc:  # a guard of the exact side: the certified rows stay
            empirical_note = str(exc)
    else:
        empirical_note = "disabled (empirical_window = 0)"

    path = out / "bounds.csv"
    capped = []  # relative widths of the R_n rows stopped at the term cap
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(
            [
                "n",
                "tail_variation_lo",
                "tail_variation_hi",
                "log_r_bound_lo",
                "log_r_bound_hi",
                "empirical_log_r",
            ]
        )
        for n in range(1, cfg.n_max + 1):
            tv = tail_variation(p, n)
            gb = g_variation_bound(p, n, cfg.rel_width)
            rb = gb.bound
            if gb.rn.capped:
                capped.append(gb.rn.enclosure.rel_width())
            w.writerow(
                [n, _cell(tv.lo), _cell(tv.hi), _cell(rb.lo), _cell(rb.hi), _cell(empirical.get(n))]
            )
    doc = {
        "csv": path.name,
        "rows": cfg.n_max,
        "slope": {"lo": slope.lo, "hi": slope.hi},
        "zero_beyond": p.finite_range,
        "envelope": None
        if envelope is None
        else {"coefficient": envelope.coefficient, "exponent": envelope.exponent, "start": envelope.start},
        "empirical_window": cfg.empirical_window,
    }
    if empirical_note is not None:
        doc["empirical_note"] = empirical_note
    if capped:
        print(
            f"bounds: {len(capped)} of {cfg.n_max} R_n rows stopped at the term cap, "
            f"widest relative width {max(capped):.3g} (target {cfg.rel_width:g})",
            file=sys.stderr,
        )
    return doc


def _run_sample(cfg: RunConfig, p: PairPotential, out: Path) -> dict:
    g = _exact_g(p)
    from .dynamics import chain_blocks, write_chain_blocks

    # the samplers' generator, which dynamics loads at the first draw; imported after dynamics
    # rather than before it, the benchmark's range-6 report peaked about 0.6 MB lower
    _import_without_openssl("numpy.random")

    depth = max(g.dependency_depth, 1)
    past = Word.constant(-depth, depth, 1)
    N = cfg.sample_length
    path = out / "sample.csv"
    plus = write_chain_blocks(path, chain_blocks(g, past, N, cfg.seed), N)
    return {
        "csv": path.name,
        "sites": N,
        "seed": cfg.seed,
        "past": _past_string(past.letters),
        "g_source": "exact_markov",
        "frequency_plus": plus / N,
        "frequency_minus": (N - plus) / N,
    }


def _run_couple(cfg: RunConfig, p: PairPotential, out: Path) -> dict:
    g = _exact_g(p)
    from .dynamics import coupling_blocks, write_coupling_blocks

    _import_without_openssl("numpy.random")

    depth = max(g.dependency_depth, 1)
    past_a = Word.constant(-depth, depth, 1)
    past_b = Word.constant(-depth, depth, -1)
    N = cfg.couple_length
    path = out / "couple.csv"
    deciles, total, first = write_coupling_blocks(path, coupling_blocks(g, past_a, past_b, N, cfg.seed), N)
    return {
        "csv": path.name,
        "sites": N,
        "seed": cfg.seed,
        "past_a": _past_string(past_a.letters),
        "past_b": _past_string(past_b.letters),
        "decile_disagreement": deciles,
        "total_disagreement": total,
        "first_coalescence": first,
    }


_RUNNERS = {
    "criteria": lambda cfg, p, out: _run_criteria(cfg, p),
    "gfun": _run_gfun,
    "bounds": _run_bounds,
    "sample": _run_sample,
    "couple": _run_couple,
}


def _potential_doc(p: PairPotential, cfg: RunConfig) -> dict:
    return {
        "kind": cfg.kind,
        "beta": cfg.beta,
        "finite_range": p.finite_range,
        "truncation_range": cfg.truncation_range,
    }


def _utc_now() -> str:
    """The time now, as ``datetime.now(timezone.utc).isoformat()`` writes it
    (microseconds only when nonzero), from ``time``: importing ``datetime``
    costs every process about 0.37 MB."""
    seconds, micro = divmod(time.time_ns() // 1000, 1_000_000)
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds))
    return f"{stamp}.{micro:06d}+00:00" if micro else f"{stamp}+00:00"


def run(cfg: RunConfig, out_dir, command: str = "report", config_digest: Optional[str] = None):
    """Run the configured experiments and write report, CSVs, and manifest.

    Returns ``(report_doc, errors)`` where ``errors`` maps experiment names
    to guard messages.  The report itself is deterministic; the manifest
    carries the wall-clock stamp.
    """
    p = cfg.build_potential()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results: dict = {}
    errors: dict = {}
    for name in cfg.experiments:
        try:
            results[name] = _RUNNERS[name](cfg, p, out)
        except (ValueError, ArithmeticError) as exc:
            results[name] = {"error": str(exc)}
            errors[name] = str(exc)
    report = {
        "config": cfg.as_doc(),
        "potential": _potential_doc(p, cfg),
        "results": results,
    }
    write_json(out / "report.json", report)
    written = ["report.json"] + [doc["csv"] for doc in results.values() if "csv" in doc]
    manifest = {
        "command": command,
        "config_sha256": config_digest,
        "created_utc": _utc_now(),
        "experiments": list(cfg.experiments),
        "n_max": cfg.n_max,
        "outputs": sorted(written),
        "rel_width": cfg.rel_width,
        "seed": cfg.seed,
        "version": __version__,
    }
    write_json(out / "manifest.json", manifest)
    return report, errors


def _print_criteria(doc: dict) -> None:
    for v in doc["verdicts"]:
        margin = v["margin"]
        shown = "" if margin is None else f"  margin [{margin['lo']:.6g}, {margin['hi']:.6g}]"
        print(f"{v['criterion']:<18} {v['outcome']:<13} {v['conclusion_strength']}{shown}")
    strongest = doc["strongest_conclusion"]
    print(f"strongest conclusion: {strongest if strongest else 'Inconclusive'}")


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, metavar="PATH", help="YAML or JSON run config")
    common.add_argument("--out", metavar="DIR", help="output directory (default: config 'out')")
    common.add_argument("--seed", type=int, metavar="N", help="override config seed")
    common.add_argument(
        "--cutoff-rel-width",
        type=float,
        metavar="W",
        dest="rel_width",
        help="override the target relative width of each R_n row in bounds",
    )
    common.add_argument("--n-max", type=int, metavar="N", dest="n_max", help="override bounds rows")

    parser = argparse.ArgumentParser(
        prog="gibbs1d",
        description="Uniqueness criteria, rigorous ratio bounds, and coupling "
        "experiments for one-dimensional lattice Gibbs states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("check", parents=[common], help="run every uniqueness criterion")
    sub.add_parser("gfun", parents=[common], help="tabulate the exact conditional law")
    sub.add_parser("bounds", parents=[common], help="tail-variation and log-ratio bound series")
    sub.add_parser("sample", parents=[common], help="sample one chain from the exact law")
    sub.add_parser("couple", parents=[common], help="maximal coupling from opposite pasts")
    sub.add_parser("report", parents=[common], help="run the config's experiment list")
    args = parser.parse_args(argv)

    try:
        data = _read_config(args.config)
        cfg = load_config(data)
        overrides = {
            k: getattr(args, k) for k in ("seed", "rel_width", "n_max") if getattr(args, k) is not None
        }
        if args.command != "report":
            overrides["experiments"] = ["criteria" if args.command == "check" else args.command]
        cfg = parse_config({**cfg.as_doc(), **overrides})
        out_dir = args.out if args.out is not None else cfg.out
        report, errors = run(cfg, out_dir, command=args.command, config_digest=sha256(data).hexdigest())
    except ConfigError as exc:  # from the config, or the model it describes
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "check" and "error" not in report["results"]["criteria"]:
        _print_criteria(report["results"]["criteria"])
    for name in cfg.experiments:
        doc = report["results"][name]
        if "csv" in doc:
            print(f"{name}: wrote {Path(out_dir) / doc['csv']}")
    print(f"report: {Path(out_dir) / 'report.json'}")

    if errors and args.command != "report":
        for name, msg in errors.items():
            print(f"{name} failed: {msg}", file=sys.stderr)
        return 1
    if errors:
        for name, msg in errors.items():
            print(f"note: {name} not evaluated: {msg}")
    return 0
