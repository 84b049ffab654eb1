"""Config schema, deterministic artifacts, and exit codes of the front end."""

import ast
import json
import os
import pkgutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import artifact
from artifact import cli
from artifact.cli import (
    CONFIG_DEFAULTS,
    EXPERIMENTS,
    ConfigError,
    RunConfig,
    load_config,
    main,
    parse_config,
    run,
    write_json,
)

REPO = Path(__file__).resolve().parents[1]
SRC = Path(artifact.__file__).resolve().parents[1]


def base_doc(**overrides):
    doc = {"potential": {"kind": "zero", "beta": 1.0}}
    doc.update(overrides)
    return doc


def power_doc(q=2.0, beta=0.3, **overrides):
    doc = {"potential": {"kind": "power_law", "beta": beta, "q": q}}
    doc.update(overrides)
    return doc


def small_doc(**overrides):
    """Cheap full-pipeline config: finite range, short chains."""
    doc = {
        "potential": {"kind": "finite_table", "beta": 0.5, "values": [1.0]},
        "sample_length": 200,
        "couple_length": 200,
        "n_max": 8,
        "empirical_window": 6,
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return path


# -- schema validation ---------------------------------------------------------------


def test_defaults_fill_in():
    cfg = parse_config(base_doc())
    assert cfg.kind == "zero"
    assert cfg.beta == 1.0
    assert cfg.experiments == EXPERIMENTS
    assert cfg.n_max == CONFIG_DEFAULTS["n_max"]
    assert cfg.seed == CONFIG_DEFAULTS["seed"]
    assert cfg.rel_width == CONFIG_DEFAULTS["rel_width"]
    assert cfg.alpha is None and cfg.budget is None and cfg.alpha_grid is None
    assert cfg.out == "runs"


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown config keys.*bogus"):
        parse_config(base_doc(bogus=1))


def test_unknown_potential_key_rejected():
    doc = {"potential": {"kind": "zero", "beta": 1.0, "spin": 3}}
    with pytest.raises(ConfigError, match="unknown potential keys.*spin"):
        parse_config(doc)


def test_potential_section_required():
    with pytest.raises(ConfigError, match="potential"):
        parse_config({"n_max": 4})
    with pytest.raises(ConfigError, match="mapping"):
        parse_config({"potential": [1, 2]})
    with pytest.raises(ConfigError, match="mapping"):
        parse_config(["not", "a", "dict"])


def test_kind_and_beta_required():
    with pytest.raises(ConfigError, match="kind"):
        parse_config({"potential": {"beta": 1.0}})
    with pytest.raises(ConfigError, match="kind must be one of"):
        parse_config({"potential": {"kind": "gaussian", "beta": 1.0}})
    with pytest.raises(ConfigError, match="beta"):
        parse_config({"potential": {"kind": "zero"}})
    with pytest.raises(ConfigError, match="beta"):
        parse_config({"potential": {"kind": "zero", "beta": -0.5}})


def test_kind_specific_required_keys():
    with pytest.raises(ConfigError, match=r"kind=power_law requires \['q'\]"):
        parse_config({"potential": {"kind": "power_law", "beta": 1.0}})
    with pytest.raises(ConfigError, match=r"kind=exponential requires \['rate'\]"):
        parse_config({"potential": {"kind": "exponential", "beta": 1.0}})
    with pytest.raises(ConfigError, match=r"kind=finite_table requires \['values'\]"):
        parse_config({"potential": {"kind": "finite_table", "beta": 1.0}})


def test_kind_specific_forbidden_keys():
    with pytest.raises(ConfigError, match=r"kind=zero does not take \['q'\]"):
        parse_config({"potential": {"kind": "zero", "beta": 1.0, "q": 2.0}})
    with pytest.raises(ConfigError, match=r"does not take \['amplitude'\]"):
        parse_config(
            {"potential": {"kind": "finite_table", "beta": 1.0, "values": [1.0], "amplitude": 2.0}}
        )
    with pytest.raises(ConfigError, match=r"does not take \['rate'\]"):
        parse_config({"potential": {"kind": "power_law", "beta": 1.0, "q": 2.0, "rate": 1.0}})


def test_potential_parameter_ranges():
    with pytest.raises(ConfigError, match="q must exceed 1"):
        parse_config({"potential": {"kind": "power_law", "beta": 1.0, "q": 1.0}})
    with pytest.raises(ConfigError, match="rate must be positive"):
        parse_config({"potential": {"kind": "exponential", "beta": 1.0, "rate": 0.0}})
    with pytest.raises(ConfigError, match="amplitude must be positive"):
        parse_config(
            {"potential": {"kind": "power_law", "beta": 1.0, "q": 2.0, "amplitude": -1.0}}
        )
    with pytest.raises(ConfigError, match="values must be a list of numbers"):
        parse_config({"potential": {"kind": "finite_table", "beta": 1.0, "values": [1.0, True]}})
    with pytest.raises(ConfigError, match="truncation_range"):
        parse_config({"potential": {"kind": "zero", "beta": 1.0, "truncation_range": -1}})
    with pytest.raises(ConfigError, match="truncation_range"):
        parse_config({"potential": {"kind": "zero", "beta": 1.0, "truncation_range": 2.5}})


def test_booleans_are_not_numbers():
    with pytest.raises(ConfigError, match="beta must be a number"):
        parse_config({"potential": {"kind": "zero", "beta": True}})
    with pytest.raises(ConfigError, match="n_max must be an integer"):
        parse_config(base_doc(n_max=True))


def test_experiments_all_expands_in_order():
    cfg = parse_config(base_doc(experiments=["all"]))
    assert cfg.experiments == EXPERIMENTS
    cfg = parse_config(base_doc(experiments=["sample", "bounds", "all"]))
    assert cfg.experiments == EXPERIMENTS


def test_experiments_deduplicate_preserving_order():
    cfg = parse_config(base_doc(experiments=["couple", "gfun", "couple"]))
    assert cfg.experiments == ("couple", "gfun")


def test_experiments_rejections():
    with pytest.raises(ConfigError, match="nonempty list"):
        parse_config(base_doc(experiments=[]))
    with pytest.raises(ConfigError, match="nonempty list"):
        parse_config(base_doc(experiments="criteria"))
    with pytest.raises(ConfigError, match=r"unknown experiments: \['spectra'\]"):
        parse_config(base_doc(experiments=["criteria", "spectra"]))


def test_scalar_ranges():
    for bad in ({"n_max": 0}, {"n_max": (1 << 20) + 1}):
        with pytest.raises(ConfigError, match="n_max"):
            parse_config(base_doc(**bad))
    for bad in ({"seed": -1}, {"seed": 1 << 64}):
        with pytest.raises(ConfigError, match="seed"):
            parse_config(base_doc(**bad))
    for bad in ({"rel_width": 0.0}, {"rel_width": 1.0}):
        with pytest.raises(ConfigError, match="rel_width"):
            parse_config(base_doc(**bad))
    for bad in ({"sample_length": 0}, {"couple_length": (1 << 24) + 1}):
        with pytest.raises(ConfigError, match="length"):
            parse_config(base_doc(**bad))
    for bad in ({"empirical_window": -1}, {"empirical_window": 17}, {"empirical_window": 40}):
        with pytest.raises(ConfigError, match=r"empirical_window must lie in \[0, 16\]"):
            parse_config(base_doc(**bad))
    assert parse_config(base_doc(empirical_window=16)).empirical_window == 16
    with pytest.raises(ConfigError, match="alpha must lie"):
        parse_config(base_doc(alpha=1.5))
    with pytest.raises(ConfigError, match="out must be a nonempty string"):
        parse_config(base_doc(out=""))


def test_infinite_block_lambda_is_a_config_error(tmp_path, capsys):
    # block_lambda was once a config key and is no longer: a config that sets it is refused as unknown
    path = tmp_path / "run.yaml"
    path.write_text("potential: {kind: power_law, beta: 0.3, q: 2.0}\nblock_lambda: .inf\n")
    assert main(["check", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error: unknown config keys: ['block_lambda']")
    assert not (tmp_path / "out").exists()


def test_budget_requires_alpha():
    with pytest.raises(ConfigError, match="budget requires alpha"):
        parse_config(base_doc(budget=2.0))
    cfg = parse_config(base_doc(alpha=0.5, budget=2.0))
    assert cfg.alpha == 0.5 and cfg.budget == 2.0
    with pytest.raises(ConfigError, match="budget must be positive"):
        parse_config(base_doc(alpha=0.5, budget=0.0))


def test_alpha_grid_validation():
    cfg = parse_config(base_doc(alpha_grid=[0.6, 0.8, 1.0]))
    assert cfg.alpha_grid == (0.6, 0.8, 1.0)
    for bad in ([], [0.0], [1.2], [0.5, True], "0.5"):
        with pytest.raises(ConfigError, match="alpha_grid"):
            parse_config(base_doc(alpha_grid=bad))


# -- round trips ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "doc",
    [
        base_doc(),
        power_doc(q=2.5, beta=0.2),
        power_doc(q=2.0, beta=0.3, alpha=0.6, budget=3.0, seed=11),
        {"potential": {"kind": "exponential", "beta": 0.7, "rate": 0.4, "amplitude": 2.0}},
        {
            "potential": {
                "kind": "finite_table",
                "beta": 1.2,
                "values": [1.0, 0.5],
                "truncation_range": 1,
            },
            "experiments": ["gfun", "criteria"],
            "n_max": 9,
        },
    ],
)
def test_config_document_round_trip(doc):
    cfg = parse_config(doc)
    assert parse_config(cfg.as_doc()) == cfg


def test_load_config_reads_yaml(tmp_path):
    path = write_config(tmp_path, power_doc(seed=5))
    cfg = load_config(path)
    assert cfg.kind == "power_law" and cfg.seed == 5


@pytest.mark.parametrize(
    "text, rel_width",
    [
        ("rel_width: 1e-10", 1e-10),
        ("rel_width: 5E-1", 0.5),
        ("rel_width: 2.5e-8", 2.5e-8),
        ("rel_width: +1e-3", 1e-3),
        ("rel_width: 1.0e-10", 1e-10),  # the YAML 1.1 form, unchanged
        ('{"potential": {"kind": "zero", "beta": 1e0}, "rel_width": 1e-05}', 1e-05),  # json.dumps
    ],
)
def test_load_config_reads_exponent_floats(tmp_path, text, rel_width):
    path = tmp_path / "run.yaml"
    path.write_text(text if text.startswith("{") else "potential: {kind: zero, beta: 1e0}\n" + text + "\n")
    cfg = load_config(path)
    assert cfg.rel_width == rel_width and cfg.beta == 1.0


def test_load_config_keeps_quoted_exponents_strings(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("potential: {kind: zero, beta: 1.0}\nout: '1e3'\n")
    assert load_config(path).out == "1e3"
    path.write_text("potential: {kind: zero, beta: 1.0}\nrel_width: '1e-10'\n")
    with pytest.raises(ConfigError, match="config.rel_width must be a number"):
        load_config(path)


def test_load_config_error_paths(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "absent.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("potential: [unclosed\n")
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_config(bad)


# -- loading: JSON by json, every other document by PyYAML ----------------------------


@pytest.mark.parametrize("name", ["inverse_square", "nearest_neighbour"])
def test_demo_yaml_configs_read_as_their_json_rendering(name):
    path = REPO / "demos" / "configs" / f"{name}.yaml"
    rendered = json.dumps(cli._load_yaml(path.read_bytes())).encode()
    assert load_config(path) == load_config(rendered)


# json.dumps writes a character past the BMP as a surrogate pair, which PyYAML does not join
bmp_text = st.text(st.characters(max_codepoint=0xFFFF, exclude_categories=("Cs",)), max_size=12)
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    bmp_text,
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(bmp_text, inner, max_size=4),
    max_leaves=8,
)
schema_documents = st.fixed_dictionaries(
    {"potential": st.fixed_dictionaries(
        {"kind": st.sampled_from(["power_law", "exponential", "finite_table", "zero", "other"])},
        optional={k: json_values for k in ("beta", "q", "rate", "amplitude", "values", "truncation_range")},
    )},
    optional={k: json_values for k in CONFIG_DEFAULTS},
)


@settings(max_examples=200, deadline=None)
@given(
    schema_documents,
    st.sampled_from([None, 0, 1, 2]),
    st.sampled_from([None, (",", ":")]),
    st.booleans(),
)
def test_json_documents_parse_as_pyyaml_parses_them(doc, indent, separators, sort_keys):
    data = json.dumps(doc, indent=indent, separators=separators, sort_keys=sort_keys).encode()
    parsed = cli._parse_document(data)
    # repr tells 1 from 1.0 and True, and -0.0 from 0.0
    assert repr(parsed) == repr(cli._load_yaml(data)) == repr(json.loads(data))


def write_bytes(tmp_path, data):
    path = tmp_path / "run.json"
    path.write_bytes(data)
    return path


ZERO_LAW = b'{"potential": {"kind": "zero", "beta": 1.0}'


@pytest.mark.parametrize(
    "text, message",
    [
        # not JSON numbers: PyYAML reads them, as strings, as it always has
        (b'{"potential": {"kind": "zero", "beta": NaN}}', "potential.beta must be a number"),
        (ZERO_LAW + b', "rel_width": Infinity}', "config.rel_width must be a number"),
        (ZERO_LAW + b', "rel_width": -Infinity}', "config.rel_width must be a number"),
        # a JSON number past the double range is inf in both readers
        (b'{"potential": {"kind": "zero", "beta": 1e400}}', "potential.beta must be finite and >= 0"),
    ],
)
def test_nonfinite_numbers_are_refused_as_before(tmp_path, text, message):
    assert repr(cli._parse_document(text)) == repr(cli._load_yaml(text))
    with pytest.raises(ConfigError, match=message):
        load_config(write_bytes(tmp_path, text))


@pytest.mark.parametrize(
    "text, field, value",
    [
        (b'{"potential": {"kind": "zero", "beta": 1E+2}}', "beta", 100.0),
        (ZERO_LAW + b', "alpha": 0.5, "budget": 1e1, "rel_width": 2.5E-8}', "rel_width", 2.5e-8),
        (ZERO_LAW + b', "seed": 1, "seed": 2}', "seed", 2),  # a repeated key: the last wins in both
        (b"\xef\xbb\xbf" + ZERO_LAW + b', "seed": 3}', "seed", 3),  # a UTF-8 byte-order mark
        (ZERO_LAW + b', "out": "\\u00e9t\\u00e9"}', "out", "été"),
    ],
)
def test_json_and_pyyaml_read_the_same_values(tmp_path, text, field, value):
    assert repr(cli._parse_document(text)) == repr(cli._load_yaml(text))
    cfg = load_config(write_bytes(tmp_path, text))
    assert repr(getattr(cfg, field)) == repr(value)


def test_a_tab_indented_json_config_loads(tmp_path):
    # PyYAML refuses tabs as indentation; JSON allows them as whitespace
    data = json.dumps(power_doc(seed=5), indent="\t").encode()
    with pytest.raises(ConfigError, match="not valid YAML"):
        cli._load_yaml(data)
    cfg = load_config(write_bytes(tmp_path, data))
    assert cfg == parse_config(power_doc(seed=5))


def test_config_bytes_decode_by_their_own_encoding(tmp_path, capsys):
    # json detects UTF-16 and UTF-32; what neither reader can decode is a config error, not a traceback
    assert load_config(write_bytes(tmp_path, json.dumps(base_doc()).encode("utf-16"))) == parse_config(base_doc())
    path = write_bytes(tmp_path, b'potential: {kind: zero, beta: 1.0}\nout: "\xff"\n')
    assert main(["check", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: config is not valid YAML: unacceptable character")


@pytest.mark.parametrize("template", ['{{"potential": {{"kind": "zero", "beta": 1.0}}, "seed": {}}}\n',
                                      "potential: {{kind: zero, beta: 1.0}}\nseed: {}\n"], ids=["json", "yaml"])
def test_an_integer_past_the_digit_limit_is_a_config_error(tmp_path, capsys, template):
    # 5 000 digits pass the interpreter's integer-string limit (4 300), in json and in PyYAML alike
    path = write_bytes(tmp_path, template.format("1" * 5000).encode())
    assert main(["check", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ") and "Traceback" not in captured.err + captured.out
    assert not (tmp_path / "out").exists()


def test_json_joins_an_escaped_surrogate_pair(tmp_path):
    # json.dumps writes U+1F600 as the escaped pair D83D DE00; PyYAML leaves two lone surrogates
    data = json.dumps(base_doc(out="\U0001F600")).encode()
    assert load_config(write_bytes(tmp_path, data)).out == "\U0001F600"
    assert cli._load_yaml(data)["out"] == "\ud83d\ude00"


def test_config_bytes_are_parsed_and_hashed_once(tmp_path, monkeypatch):
    from hashlib import sha256

    path = write_config(tmp_path, small_doc(experiments=["criteria"], out=str(tmp_path / "out")))
    reads = []
    for method in ("read_bytes", "read_text"):
        def counted(self, *args, _read=getattr(Path, method), **kwargs):
            reads.append(self)
            return _read(self, *args, **kwargs)

        monkeypatch.setattr(Path, method, counted)
    assert main(["report", "--config", str(path)]) == 0
    assert reads == [path]
    monkeypatch.undo()
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config_sha256"] == sha256(path.read_bytes()).hexdigest()


def test_build_potential_wraps_model_errors():
    # building RunConfig directly skips parse_config, so the model guard is the last line
    cfg = parse_config(power_doc(q=1.5))
    with pytest.raises(ConfigError) as err:
        RunConfig(**{**vars(cfg), "beta": -1.0}).build_potential()
    assert "potential:" in str(err.value)


# -- deterministic emission ----------------------------------------------------------


def test_float_emission_round_trips_17g(tmp_path):
    values = [0.1, 1 / 3, 2.0 ** -40, 7.860045324603604e-07, 123456.789]
    path = tmp_path / "floats.json"
    write_json(path, values)
    back = json.loads(path.read_text())
    assert back == values


def test_nonfinite_floats_become_strings(tmp_path):
    path = tmp_path / "edge.json"
    write_json(path, {"a": float("inf"), "b": float("-inf"), "c": float("nan")})
    assert json.loads(path.read_text()) == {"a": "inf", "b": "-inf", "c": "nan"}


def test_json_keys_emitted_sorted(tmp_path):
    path = tmp_path / "sorted.json"
    write_json(path, {"zeta": 1, "alpha": {"b": 2, "a": 3}})
    text = path.read_text()
    assert text.index('"alpha"') < text.index('"zeta"')
    assert text.index('"a"') < text.index('"b"')


def test_identical_configs_produce_identical_bytes(tmp_path):
    cfg = parse_config(small_doc())
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run(cfg, out_a, command="report", config_digest="d" * 64)
    run(cfg, out_b, command="report", config_digest="d" * 64)
    names = ["report.json", "gfun.csv", "bounds.csv", "sample.csv", "couple.csv"]
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    ma = json.loads((out_a / "manifest.json").read_text())
    mb = json.loads((out_b / "manifest.json").read_text())
    ma.pop("created_utc")
    mb.pop("created_utc")
    assert ma == mb


def test_timestamp_only_in_manifest(tmp_path):
    cfg = parse_config(small_doc())
    run(cfg, tmp_path, command="report", config_digest=None)
    assert "created_utc" not in (tmp_path / "report.json").read_text()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert "created_utc" in manifest


# runs gibbs1d's entry point, then says whether it loaded datetime, and reads the stamp with it
STAMP_AND_LIST = """
import json, sys
from artifact.cli import main
rc = main(sys.argv[1:])
loaded = "datetime" in sys.modules
from datetime import datetime
stamp = json.load(open(sys.argv[-1] + "/manifest.json"))["created_utc"]
print(loaded, stamp, datetime.fromisoformat(stamp).utcoffset().total_seconds())
sys.exit(rc)
"""


def test_manifest_stamp_is_iso_utc_without_datetime(tmp_path):
    # the stamp is written from time, in the format of datetime.isoformat: a run never imports datetime
    path = tmp_path / "run.json"
    path.write_text(json.dumps(power_doc(experiments=["criteria"])))
    proc = python(STAMP_AND_LIST, "report", "--config", str(path), "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    loaded, stamp, offset = proc.stdout.splitlines()[-1].split()
    assert loaded == "False" and stamp.endswith("+00:00") and float(offset) == 0.0


def test_manifest_contents(tmp_path):
    cfg = parse_config(small_doc(experiments=["gfun", "criteria"], seed=3))
    run(cfg, tmp_path, command="report", config_digest="abc123")
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "report"
    assert manifest["config_sha256"] == "abc123"
    assert manifest["experiments"] == ["gfun", "criteria"]
    assert manifest["outputs"] == ["gfun.csv", "report.json"]
    assert manifest["seed"] == 3
    assert manifest["n_max"] == 8
    from artifact import __version__

    assert manifest["version"] == __version__


def test_report_config_section_reparses(tmp_path):
    cfg = parse_config(small_doc(alpha=0.75))
    report, errors = run(cfg, tmp_path, command="report")
    assert errors == {}
    assert parse_config(report["config"]) == cfg
    reread = json.loads((tmp_path / "report.json").read_text())
    assert parse_config(reread["config"]) == cfg


# -- experiment payloads -------------------------------------------------------------


def test_zero_potential_gfun_row(tmp_path):
    cfg = parse_config(base_doc(experiments=["gfun"]))
    report, errors = run(cfg, tmp_path)
    assert errors == {}
    doc = report["results"]["gfun"]
    assert doc["states"] == 1
    assert doc["dependency_depth"] == 0
    assert doc["stationary_prob_plus"] == 0.5
    lines = (tmp_path / "gfun.csv").read_text().splitlines()
    assert lines[0] == "past,prob_minus,prob_plus"
    assert lines[1] == ",0.5,0.5"


def test_nearest_neighbour_gfun_rows(tmp_path):
    cfg = parse_config(small_doc(experiments=["gfun"]))
    report, _ = run(cfg, tmp_path)
    doc = report["results"]["gfun"]
    assert doc["states"] == 2
    lines = (tmp_path / "gfun.csv").read_text().splitlines()
    assert lines[0] == "past,prob_minus,prob_plus"
    assert {row.split(",")[0] for row in lines[1:]} == {"-", "+"}
    for row in lines[1:]:
        _, pm, pp = row.split(",")
        assert float(pm) + float(pp) == pytest.approx(1.0, abs=1e-12)


def test_criteria_payload_headline_case(tmp_path):
    cfg = parse_config(power_doc(q=2.0, beta=0.3, experiments=["criteria"]))
    report, errors = run(cfg, tmp_path)
    assert errors == {}
    doc = report["results"]["criteria"]
    outcomes = {v["criterion"]: v["outcome"] for v in doc["verdicts"]}
    assert outcomes["variation_slope"] == "Holds"
    assert outcomes["product_blocksum"] == "Holds"
    assert outcomes["ruelle"] == "Fails"
    assert outcomes["berbee"] == "Fails"
    assert doc["strongest_conclusion"] == "unique Gibbs + Bernoulli"
    assert doc["knobs"] == {}


def test_criteria_alpha_knob_recorded(tmp_path):
    cfg = parse_config(power_doc(q=2.0, beta=0.3, experiments=["criteria"], alpha=0.75))
    report, _ = run(cfg, tmp_path)
    doc = report["results"]["criteria"]
    assert doc["knobs"] == {"alpha": 0.75}
    by_name = {v["criterion"]: v for v in doc["verdicts"]}
    assert by_name["product_blocksum"]["outcome"] == "Inconclusive"


def test_criteria_alpha_grid_keeps_best(tmp_path):
    cfg = parse_config(
        power_doc(q=2.0, beta=0.3, experiments=["criteria"], alpha_grid=[0.75, 0.6])
    )
    report, _ = run(cfg, tmp_path)
    doc = report["results"]["criteria"]
    assert doc["knobs"] == {"alpha_grid": [0.75, 0.6]}
    by_name = {v["criterion"]: v for v in doc["verdicts"]}
    assert by_name["product_blocksum"]["outcome"] == "Holds"


@pytest.mark.parametrize(
    "knobs",
    [
        {"alpha": 0.75, "budget": 3.0},
        {"alpha_grid": [0.6, 0.8, 1.0]},
        {"alpha": 0.6, "alpha_grid": [0.55, 0.7]},
    ],
)
def test_check_runs_each_knobbed_criterion_once(tmp_path, monkeypatch, knobs):
    import artifact.cli as cli
    import artifact.criteria as criteria

    names = ("check_product_blocksum", "check_scaled_limsup", "check_jop_blocksum")
    calls = dict.fromkeys(names, 0)
    for name in names:
        check = getattr(criteria, name)

        def counted(*args, _name=name, _check=check, **kwargs):
            calls[_name] += 1
            return _check(*args, **kwargs)

        monkeypatch.setattr(criteria, name, counted)
        monkeypatch.setattr(cli, name, counted, raising=False)
    doc = power_doc(q=3.0, beta=0.3, out=str(tmp_path / "out"), **knobs)
    assert main(["check", "--config", str(write_config(tmp_path, doc))]) == 0
    assert calls == dict.fromkeys(names, 1)


def test_alpha_wins_over_alpha_grid_in_the_report(tmp_path):
    doc = power_doc(q=2.0, beta=0.3, experiments=["criteria"], alpha=0.75, alpha_grid=[0.6])
    report, _ = run(parse_config(doc), tmp_path)
    criteria_doc = report["results"]["criteria"]
    assert criteria_doc["knobs"] == {"alpha": 0.75}
    by_name = {v["criterion"]: v for v in criteria_doc["verdicts"]}
    assert by_name["product_blocksum"]["outcome"] == "Inconclusive"


def test_bounds_rows_follow_n_max(tmp_path):
    cfg = parse_config(small_doc(experiments=["bounds"], n_max=5))
    report, _ = run(cfg, tmp_path)
    lines = (tmp_path / "bounds.csv").read_text().splitlines()
    assert lines[0].startswith("n,tail_variation_lo")
    assert len(lines) == 6
    assert report["results"]["bounds"]["rows"] == 5
    assert report["results"]["bounds"]["zero_beyond"] == 1


def test_sample_and_couple_payloads(tmp_path):
    cfg = parse_config(small_doc(experiments=["sample", "couple"]))
    report, errors = run(cfg, tmp_path)
    assert errors == {}
    sample = report["results"]["sample"]
    assert sample["sites"] == 200
    assert sample["past"] == "+"
    assert sample["frequency_plus"] + sample["frequency_minus"] == pytest.approx(1.0)
    couple = report["results"]["couple"]
    assert couple["past_a"] == "+" and couple["past_b"] == "-"
    assert len(couple["decile_disagreement"]) == 10
    assert (tmp_path / "sample.csv").read_text().splitlines()[0] == "site,letter"


def test_guard_error_recorded_not_raised(tmp_path):
    # untruncated power law has no finite-range conditional law to sample
    cfg = parse_config(power_doc(q=2.0, beta=0.3, experiments=["sample", "criteria"]))
    report, errors = run(cfg, tmp_path)
    assert set(errors) == {"sample"}
    assert "error" in report["results"]["sample"]
    assert report["results"]["criteria"]["strongest_conclusion"] is not None


# -- command line --------------------------------------------------------------------


def test_main_report_success(tmp_path, capsys):
    path = write_config(tmp_path, small_doc(out=str(tmp_path / "out")))
    assert main(["report", "--config", str(path)]) == 0
    captured = capsys.readouterr()
    assert "report.json" in captured.out
    assert (tmp_path / "out" / "report.json").exists()
    assert (tmp_path / "out" / "manifest.json").exists()


def test_main_check_prints_verdicts(tmp_path, capsys):
    path = write_config(tmp_path, power_doc(q=2.0, beta=0.3, out=str(tmp_path / "out")))
    assert main(["check", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "strongest conclusion: unique Gibbs + Bernoulli" in out
    assert "dobrushin" in out and "scaled_limsup" in out


def test_main_fails_verdict_still_exits_zero(tmp_path, capsys):
    path = write_config(tmp_path, power_doc(q=1.5, beta=0.3, out=str(tmp_path / "out")))
    assert main(["check", "--config", str(path)]) == 0
    assert "strongest conclusion: Inconclusive" in capsys.readouterr().out


def test_main_config_error_exits_two(tmp_path, capsys):
    path = write_config(tmp_path, base_doc(bogus=1))
    assert main(["check", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["check", "--config", str(tmp_path / "missing.yaml")]) == 2


def test_main_negative_table_entry_is_a_config_error(tmp_path, capsys):
    doc = {"potential": {"kind": "finite_table", "beta": 1.0, "values": [-0.5]}, "out": str(tmp_path / "out")}
    assert main(["check", "--config", str(write_config(tmp_path, doc))]) == 2
    captured = capsys.readouterr()
    assert "config error: potential: table entries must be nonnegative" in captured.err
    assert "Traceback" not in captured.err and not (tmp_path / "out").exists()


@pytest.mark.parametrize("potential", [
    {"kind": "finite_table", "beta": 0.3, "values": [1.0, float("nan")]},
    {"kind": "finite_table", "beta": 0.3, "values": [float("inf")]},
    {"kind": "power_law", "beta": 0.3, "q": float("inf")},
    {"kind": "exponential", "beta": 0.3, "rate": float("inf")},
], ids=["table-nan", "table-inf", "q-inf", "rate-inf"])
def test_main_non_finite_coupling_is_a_config_error(tmp_path, capsys, potential):
    # YAML reads .nan and .inf as floats: none of them may reach the criteria
    doc = {"potential": potential, "out": str(tmp_path / "out")}
    path = write_config(tmp_path, doc)
    assert ".nan" in path.read_text() or ".inf" in path.read_text()
    assert main(["check", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err and "finite" in captured.err
    assert "Traceback" not in captured.err and not (tmp_path / "out").exists()


def test_main_check_encloses_an_overflowing_weighted_total(tmp_path, capsys):
    # sum_j j J(j) = 3e308 passes the largest double: enclosed up to +inf, not a guard
    doc = {"potential": {"kind": "finite_table", "beta": 1.0, "values": [1e308, 1e308]}, "out": str(tmp_path / "out")}
    assert main(["check", "--config", str(write_config(tmp_path, doc))]) == 0
    assert "criteria failed" not in capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    verdicts = {v["criterion"]: v for v in report["results"]["criteria"]["verdicts"]}
    assert verdicts["ruelle"]["outcome"] == "Holds" and "inf]" in verdicts["ruelle"]["certificate"]
    # the tail T(1) = 2e308 is enclosed up to +inf too, and berbee names the overflow
    assert verdicts["berbee"]["outcome"] == "Holds" and verdicts["berbee"]["margin"] is None
    assert "enclosure overflows the double range" in verdicts["berbee"]["certificate"]


def test_bounds_names_an_overflowing_tail(tmp_path, capsys):
    doc = {"potential": {"kind": "finite_table", "beta": 1.0, "values": [1e308, 1e308]},
           "empirical_window": 0, "n_max": 4, "out": str(tmp_path / "out")}
    assert main(["bounds", "--config", str(write_config(tmp_path, doc))]) == 1
    assert capsys.readouterr().err == "bounds failed: a coupling tail leaves the double range\n"


@pytest.mark.parametrize("command, message", [
    ("bounds", "bounds failed: a sum of coupling tails leaves the double range\n"),
    ("report", "note: bounds not evaluated: a sum of coupling tails leaves the double range\n"),
], ids=["bounds", "report"])
def test_bounds_names_an_overflowing_sum_of_tails(tmp_path, capsys, command, message):
    # every tail is finite (T(1) = 1.64e308), but S_k = T(1) + ... + T(k+1) overflows from k = 1
    doc = {"potential": {"kind": "power_law", "beta": 1.0, "q": 2.0, "amplitude": 1e308},
           "experiments": ["bounds"], "n_max": 4, "out": str(tmp_path / "out")}
    assert main([command, "--config", str(write_config(tmp_path, doc))]) == (1 if command == "bounds" else 0)
    captured = capsys.readouterr()
    assert message in captured.out + captured.err and "NaN" not in captured.out + captured.err


@pytest.mark.parametrize("beta", [1.0, 10.0])
def test_check_quotes_strengths_past_the_double_range(tmp_path, capsys, beta):
    # c = beta * 1e308 is exact, but 4c (and, at beta 10, c itself) has no double:
    # certificates quote such rationals by their enclosure [largest double, inf]
    doc = {"potential": {"kind": "power_law", "beta": beta, "q": 2.0, "amplitude": 1e308}, "out": str(tmp_path / "out")}
    assert main(["check", "--config", str(write_config(tmp_path, doc))]) == 0
    assert capsys.readouterr().err == ""
    verdicts = json.loads((tmp_path / "out" / "report.json").read_text())["results"]["criteria"]["verdicts"]
    assert len(verdicts) == 9 and all("not evaluated" not in v["certificate"] for v in verdicts[1:])
    berbee = verdicts[3]
    assert berbee["outcome"] == "Fails" and "4c = [1.797693135e+308, inf] > 1" in berbee["certificate"]


def test_a_transfer_matrix_past_the_eigensolver_is_named_by_its_perron_vector(tmp_path):
    # the transfer matrix is primitive by its structure, so no overflowing
    # power of it decides that: the eigensolver's failure is the one named
    doc = {"potential": {"kind": "power_law", "beta": 600.0, "q": 2.0, "truncation_range": 3}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError, match="Perron"):
            artifact.g_exact_markov(parse_config(doc).build_potential())
    path = write_config(tmp_path, doc)
    proc = python(CHECK_AND_LIST, "gfun", "--config", str(path), "--out", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert "gfun failed: Perron vector not strictly positive" in proc.stderr
    assert "primitive" not in proc.stderr and "RuntimeWarning" not in proc.stderr


def test_main_guard_error_exits_one(tmp_path, capsys):
    path = write_config(tmp_path, power_doc(q=2.0, beta=0.3, out=str(tmp_path / "out")))
    assert main(["sample", "--config", str(path)]) == 1
    assert "sample failed" in capsys.readouterr().err


def test_main_check_guard_error_prints_the_message(tmp_path, capsys, monkeypatch):
    # a guarded criteria error has no verdicts to print: check reports the
    # guard and exits 1 instead of failing on the missing verdict list
    def refuse(p, **knobs):
        raise ValueError("criteria guard: refused")

    monkeypatch.setattr("artifact.cli.evaluate_all", refuse)
    path = write_config(tmp_path, small_doc(out=str(tmp_path / "out")))
    assert main(["check", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert "criteria failed: criteria guard: refused" in captured.err
    assert "Traceback" not in captured.err + captured.out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["results"]["criteria"] == {"error": "criteria guard: refused"}


def test_main_report_keeps_going_past_guards(tmp_path, capsys):
    doc = power_doc(
        q=2.0, beta=0.3, experiments=["criteria", "sample"], out=str(tmp_path / "out")
    )
    path = write_config(tmp_path, doc)
    assert main(["report", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "note: sample not evaluated" in out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["results"]["criteria"]["strongest_conclusion"]


def test_main_subcommand_restricts_experiments(tmp_path):
    path = write_config(tmp_path, small_doc(out=str(tmp_path / "out")))
    assert main(["gfun", "--config", str(path)]) == 0
    out = tmp_path / "out"
    assert (out / "gfun.csv").exists()
    assert not (out / "sample.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["experiments"] == ["gfun"]
    assert manifest["command"] == "gfun"


def test_main_overrides_reach_artifacts(tmp_path):
    path = write_config(tmp_path, small_doc())
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    base = ["bounds", "--config", str(path)]
    assert main(base + ["--out", str(out_a), "--n-max", "3"]) == 0
    assert main(base + ["--out", str(out_b), "--n-max", "4", "--cutoff-rel-width", "1e-6"]) == 0
    assert len((out_a / "bounds.csv").read_text().splitlines()) == 4
    assert len((out_b / "bounds.csv").read_text().splitlines()) == 5
    assert json.loads((out_b / "manifest.json").read_text())["rel_width"] == 1e-6


@pytest.mark.parametrize("law", [{"kind": "power_law", "beta": 0.3, "q": 2.0},
                                 {"kind": "exponential", "beta": 0.5, "rate": 0.5}])
def test_check_results_do_not_depend_on_rel_width(tmp_path, law):
    # rel_width is the target width of the R_n rows in bounds; no criterion reads it
    results = []
    for width in (1e-3, 1e-12):
        out = tmp_path / f"w{width}"
        path = write_config(tmp_path, {"potential": law, "rel_width": width, "out": str(out)}, f"w{width}.yaml")
        assert main(["check", "--config", str(path)]) == 0
        results.append(json.loads((out / "report.json").read_text())["results"])
    assert results[0] == results[1]


def test_main_seed_override_changes_samples(tmp_path):
    path = write_config(tmp_path, small_doc())
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["sample", "--config", str(path), "--out", str(out_a), "--seed", "1"]) == 0
    assert main(["sample", "--config", str(path), "--out", str(out_b), "--seed", "2"]) == 0
    assert (out_a / "sample.csv").read_bytes() != (out_b / "sample.csv").read_bytes()
    assert json.loads((out_a / "manifest.json").read_text())["seed"] == 1


def test_main_bad_override_exits_two(tmp_path, capsys):
    path = write_config(tmp_path, small_doc())
    assert main(["sample", "--config", str(path), "--seed", "-1"]) == 2
    assert main(["bounds", "--config", str(path), "--n-max", "0"]) == 2
    assert main(["bounds", "--config", str(path), "--cutoff-rel-width", "2.0"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--seed", "-1"], "seed must fit in 64 bits"),
        (["--seed", str(1 << 64)], "seed must fit in 64 bits"),
        (["--n-max", "0"], "n_max must lie in [1, 2^20]"),
        (["--n-max", str((1 << 20) + 1)], "n_max must lie in [1, 2^20]"),
        (["--cutoff-rel-width", "0"], "rel_width must lie in (0, 1)"),
        (["--cutoff-rel-width", "1"], "rel_width must lie in (0, 1)"),
        (["--cutoff-rel-width", "nan"], "rel_width must lie in (0, 1)"),
    ],
)
def test_bad_override_names_the_schema_rule(tmp_path, capsys, flags, message):
    path = write_config(tmp_path, small_doc(out=str(tmp_path / "out")))
    assert main(["check", "--config", str(path), *flags]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_invalid_config_file_fails_before_the_overrides_apply(tmp_path, capsys):
    # the file is validated on its own first: an override of the bad key
    # does not rescue it
    path = write_config(tmp_path, small_doc(n_max=0))
    assert main(["check", "--config", str(path), "--n-max", "4"]) == 2
    assert capsys.readouterr().err == "config error: n_max must lie in [1, 2^20]\n"


def test_config_digest_matches_file_bytes(tmp_path):
    import hashlib

    path = write_config(tmp_path, small_doc(experiments=["gfun"], out=str(tmp_path / "out")))
    assert main(["gfun", "--config", str(path)]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()


# -- start-up: what a process loads -----------------------------------------------

# runs gibbs1d's entry point, then names the heavy modules the run loaded
CHECK_AND_LIST = """
import sys
from artifact.cli import main
rc = main(sys.argv[1:])
print(sorted(m for m in ("numpy._core", "artifact.dynamics", "dataclasses", "inspect") if m in sys.modules))
sys.exit(rc)
"""


def python(code, *args):
    """A fresh interpreter that imports the package under test."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=300
    )


# what check never loads: NumPy, the exact side, the R_n rows and tail tables and
# the csv module, besides dataclasses and inspect
STRICT_CHECK_AND_LIST = CHECK_AND_LIST.replace(
    '"numpy._core", "artifact.dynamics",',
    '"numpy._core", "artifact.dynamics", "artifact.kernel", "artifact.rows", "csv",',
)


@pytest.mark.parametrize("config", ["inverse_square", "nearest_neighbour", "zero"])
def test_check_runs_without_numpy_or_the_sampler(tmp_path, config):
    if config == "zero":
        path = write_config(tmp_path, base_doc())
    else:
        path = REPO / "demos" / "configs" / f"{config}.yaml"
    proc = python(STRICT_CHECK_AND_LIST, "check", "--config", str(path), "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert "strongest conclusion: unique Gibbs + Bernoulli" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "[]"


# laws whose criteria need more than closed forms, the Dobrushin sum of a finite range
# within DOBRUSHIN_MAX_RANGE among them
SCALAR_CHECK_LAWS = {
    "q3": {"kind": "power_law", "beta": 0.5, "q": 3.0},
    "exponential": {"kind": "exponential", "beta": 0.5, "rate": 0.5},
    "truncated exponential": {"kind": "exponential", "beta": 0.5, "rate": 0.5, "truncation_range": 8},
    "nearest neighbour": {"kind": "finite_table", "beta": 1.0, "values": [1.0]},
    "truncated q2 R12": {"kind": "power_law", "beta": 0.3, "q": 2.0, "truncation_range": 12},
    "truncated q2 R1000": {"kind": "power_law", "beta": 0.3, "q": 2.0, "truncation_range": 1000},
}


@pytest.mark.parametrize("name", sorted(SCALAR_CHECK_LAWS))
def test_check_is_scalar_on_every_law(tmp_path, name):
    # the Dobrushin sum is enumerated in criteria: no law loads the exact kernels
    path = write_config(tmp_path, {"potential": SCALAR_CHECK_LAWS[name]})
    proc = python(STRICT_CHECK_AND_LIST, "check", "--config", str(path), "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


# the longrange_bounds laws of the benchmark: R_n rows, tail tables and no exact kernel
BOUNDS_LAWS = {
    "inverse_square": {"kind": "power_law", "beta": 0.3, "q": 2.0},
    "q3": {"kind": "power_law", "beta": 0.5, "q": 3.0},
    "q1.5": {"kind": "power_law", "beta": 0.3, "q": 1.5},
    "exponential": {"kind": "exponential", "beta": 0.5, "rate": 0.5},
}
REPORT_AND_LIST = CHECK_AND_LIST.replace('"artifact.dynamics", "dataclasses", "inspect"', '"artifact.kernel"')


@pytest.mark.parametrize("name", sorted(BOUNDS_LAWS))
def test_bounds_report_runs_without_numpy_or_the_kernels(tmp_path, name):
    path = write_config(tmp_path, {"potential": BOUNDS_LAWS[name], "experiments": ["criteria", "bounds"], "n_max": 3})
    proc = python(REPORT_AND_LIST, "report", "--config", str(path), "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert "error" not in report["results"]["bounds"]
    assert report["results"]["bounds"]["empirical_note"].startswith("exact kernels need a finite-range")
    assert proc.stdout.splitlines()[-1] == "[]"


def test_report_all_loads_every_module_of_the_package(tmp_path):
    # the package is what the commands run: one report of every experiment on a
    # finite-range law loads each module but __main__
    code = """
import sys
from artifact.cli import main
rc = main(sys.argv[2:])
print(sorted(m for m in sys.argv[1].split() if f"artifact.{m}" not in sys.modules))
sys.exit(rc)
"""
    modules = " ".join(m.name for m in pkgutil.iter_modules(artifact.__path__) if m.name != "__main__")
    doc = {"potential": {"kind": "power_law", "beta": 0.3, "q": 2.0, "truncation_range": 6}, "experiments": ["all"],
           "n_max": 4, "sample_length": 5000, "couple_length": 5000}
    path = write_config(tmp_path, doc)
    proc = python(code, modules, "report", "--config", str(path), "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_the_package_imports_nothing_from_the_tests():
    # the package stands alone: no module of it imports a module that lives
    # beside the tests, such as their diagnostics and oracles
    beside = {path.stem for path in Path(__file__).parent.glob("*.py")}
    assert {"diagnostics", "oracles"} <= beside
    for path in sorted(Path(artifact.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            assert not beside & {name.split(".")[0] for name in names}, (path.name, names)


@pytest.mark.parametrize("command", ["check", "report"])
@pytest.mark.parametrize("name", sorted(BOUNDS_LAWS))
def test_runs_without_samplers_leave_openssl_out(tmp_path, name, command):
    from hashlib import sha256

    # the config digest comes from the builtin SHA-256 module, not hashlib's OpenSSL
    code = CHECK_AND_LIST.replace('"numpy._core", "artifact.dynamics", "dataclasses", "inspect"', '"_hashlib",')
    path = write_config(tmp_path, {"potential": BOUNDS_LAWS[name], "experiments": ["criteria", "bounds"], "n_max": 3})
    proc = python(code, command, "--config", str(path), "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config_sha256"] == sha256(path.read_bytes()).hexdigest()


OPENSSL_AND_LIST = CHECK_AND_LIST.replace('"numpy._core", "artifact.dynamics", "dataclasses", "inspect"', '"_hashlib",')

# the exact laws of the benchmark's finite_range_exact and the CI's range-10 law
EXACT_LAWS = {
    "nearest_neighbour": {"kind": "finite_table", "beta": 1.0, "values": [1.0]},
    "truncated q2 R6": {"kind": "power_law", "beta": 0.3, "q": 2.0, "truncation_range": 6},
    "truncated q1.2 R10": {"kind": "power_law", "beta": 0.3, "q": 1.2, "truncation_range": 10},
}


@pytest.mark.parametrize("name", sorted(EXACT_LAWS))
def test_exact_reports_leave_openssl_out(tmp_path, name):
    # numpy.random loads with the sampler, with _hashlib held out; the keyed Philox
    # stream is the same as in a process that holds OpenSSL
    doc = {"potential": EXACT_LAWS[name], "n_max": 4, "sample_length": 5000, "couple_length": 5000}
    path = write_config(tmp_path, doc)
    for out, preload, listed in (("held_out", "", "[]"), ("preloaded", "import _hashlib\n", "['_hashlib']")):
        proc = python(preload + OPENSSL_AND_LIST, "report", "--config", str(path), "--out", str(tmp_path / out))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == listed
    for f in ("sample.csv", "couple.csv", "report.json"):
        assert (tmp_path / "held_out" / f).read_bytes() == (tmp_path / "preloaded" / f).read_bytes(), f


@pytest.mark.parametrize("preload", ["", "import _hashlib\n"])
def test_the_openssl_block_lasts_for_the_import_only(tmp_path, preload):
    import hashlib
    import hmac

    code = "import sys\n" + preload + """
from artifact.cli import main
before = sys.modules.get("_hashlib")
rc = main(sys.argv[1:])
# no None entry is left behind, and a module loaded before is the same object after
assert ("_hashlib" in sys.modules) == (before is not None) and sys.modules.get("_hashlib") is before
import _hashlib, hashlib, hmac
print(hashlib.sha256(b"gibbs").hexdigest(), hmac.new(b"k", b"m", "sha256").hexdigest())
sys.exit(rc)
"""
    path = write_config(tmp_path, small_doc(experiments=["sample", "couple"]))
    proc = python(code, "report", "--config", str(path), "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    digests = [hashlib.sha256(b"gibbs").hexdigest(), hmac.new(b"k", b"m", "sha256").hexdigest()]
    assert proc.stdout.splitlines()[-1].split() == digests


def test_a_library_caller_that_never_samples_leaves_numpy_random_out():
    # dynamics loads numpy.random, and with it OpenSSL, only at the first draw
    code = """
import sys
from artifact.dynamics import cesaro_estimate
from artifact.fseq import Word
from artifact.potential import CouplingLaw, PairPotential
p = PairPotential(beta=0.3, coupling=CouplingLaw.power_law(2.0, 1.0), truncation_range=6)
assert 0.0 < cesaro_estimate(p, Word(0, (1,)), 8, Word.constant(-6, 20, 1)) < 1.0
print(sorted(m for m in ("numpy.random", "_hashlib") if m in sys.modules))
"""
    proc = python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


LOAD_AND_LIST = CHECK_AND_LIST.replace('"numpy._core", "artifact.dynamics", "dataclasses", "inspect"', '"yaml",')


@pytest.mark.parametrize("command", ["check", "report"])
@pytest.mark.parametrize("name", sorted(BOUNDS_LAWS))
def test_json_configs_leave_pyyaml_out(tmp_path, name, command):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"potential": BOUNDS_LAWS[name], "experiments": ["criteria", "bounds"], "n_max": 3}))
    proc = python(LOAD_AND_LIST, command, "--config", str(path), "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_yaml_configs_load_pyyaml(tmp_path):
    path = REPO / "demos" / "configs" / "inverse_square.yaml"
    proc = python(LOAD_AND_LIST, "check", "--config", str(path), "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "['yaml']"


def test_rows_at_the_term_cap_are_reported_on_stderr(tmp_path, capsys, monkeypatch):
    from artifact import rows

    path = write_config(tmp_path, power_doc(n_max=3, out=str(tmp_path / "out")))
    assert main(["bounds", "--config", str(path)]) == 0
    assert capsys.readouterr().err == ""
    before = (tmp_path / "out" / "report.json").read_bytes()
    monkeypatch.setattr(rows, "_MAX_TERMS", 50)
    assert main(["bounds", "--config", str(path)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("bounds: 3 of 3 R_n rows stopped at the term cap, widest relative width")
    assert (tmp_path / "out" / "report.json").read_bytes() == before
    assert "cap" not in (tmp_path / "out" / "manifest.json").read_text()


def test_exact_experiments_name_an_overflowing_coupling(tmp_path, capsys):
    import warnings

    doc = {"potential": {"kind": "finite_table", "beta": 1.0, "values": [1e308, 1e308]},
           "experiments": ["gfun", "bounds", "sample", "couple"], "out": str(tmp_path / "out")}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no NumPy overflow warnings on the way
        assert main(["report", "--config", str(write_config(tmp_path, doc))]) == 0
    results = json.loads((tmp_path / "out" / "report.json").read_text())["results"]
    # bounds notes that its exact column walks the same weights, then stops at the tail table
    assert {name: doc["error"] for name, doc in results.items()} == {
        **dict.fromkeys(["gfun", "sample", "couple"], "coupling leaves the double range"),
        "bounds": "a coupling tail leaves the double range",
    }


@pytest.mark.parametrize("command", ["bounds", "report"])
def test_bounds_records_a_vanishing_conditional_law(tmp_path, command):
    import warnings

    doc = {"potential": {"kind": "finite_table", "beta": 1.0, "values": [300, 200, 100]},
           "experiments": ["bounds"], "n_max": 4, "out": str(tmp_path / "out")}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no NumPy divide warnings on the way
        assert main([command, "--config", str(write_config(tmp_path, doc))]) == 0
    bounds = json.loads((tmp_path / "out" / "report.json").read_text())["results"]["bounds"]
    # the guard of the exact column is a note: the certified rows stay, beside an empty column
    assert "error" not in bounds
    assert bounds["empirical_note"] == "Perron vector not strictly positive"
    rows = (tmp_path / "out" / "bounds.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["1", "2", "3", "4"]
    assert all(row.endswith(",") for row in rows)
    assert rows[0].split(",")[1:3] == ["599.99999999999943", "600.00000000000057"]


def test_a_refused_exact_law_loads_no_exact_side(tmp_path):
    # the transfer guard is settled before the exact side is imported
    code = CHECK_AND_LIST.replace('"dataclasses", "inspect"', '"artifact.kernel"')
    law = {"kind": "power_law", "beta": 0.3, "q": 2.0, "truncation_range": 17}
    path = write_config(tmp_path, {"potential": law, "n_max": 3})
    proc = python(code, "report", "--config", str(path), "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    results = json.loads((tmp_path / "out" / "report.json").read_text())["results"]
    guard = "transfer guard: R <= 16"
    assert {name: doc.get("error") for name, doc in results.items()} == {
        **dict.fromkeys(["criteria", "bounds"]), **dict.fromkeys(["gfun", "sample", "couple"], guard)}
    assert results["bounds"]["empirical_note"] == guard


def test_report_with_samples_loads_numpy_and_the_sampler(tmp_path):
    path = write_config(tmp_path, small_doc(experiments=["sample"]))
    proc = python(CHECK_AND_LIST, "report", "--config", str(path), "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    # NumPy imports inspect itself (numpy._core.overrides); dataclasses stays out
    assert proc.stdout.splitlines()[-1] == str(["artifact.dynamics", "inspect", "numpy._core"])


HIDE_NUMPY = {
    "meta-path blocker": """
class Blocker:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
sys.meta_path.insert(0, Blocker())
""",
    "no spec": "sys.modules['numpy'] = None\n",
}


@pytest.mark.parametrize("how", sorted(HIDE_NUMPY))
def test_missing_numpy_fails_at_import(how):
    code = "import sys\n" + HIDE_NUMPY[how] + """
try:
    import artifact.cli
except ModuleNotFoundError as exc:
    print(exc.name)
"""
    proc = python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "numpy"


def test_the_certified_half_leaves_numpy_out():
    code = """
import sys
import artifact.criteria, artifact.ratiobound, artifact.rows
assert "numpy" not in sys.modules, "NumPy imported"
"""
    proc = python(code)
    assert proc.returncode == 0, proc.stderr


def test_constants_match_numpy():
    code = """
import numpy as np
from artifact import criteria, potential
assert criteria._EULER_GAMMA == criteria._pad(float(np.euler_gamma))
"""
    proc = python(code)
    assert proc.returncode == 0, proc.stderr


def test_public_names_resolve_on_first_access():
    code = """
import sys
import artifact
assert [m for m in sys.modules if m.startswith("artifact.")] == [], "import artifact loaded a submodule"
for name in artifact.__all__:
    exec(f"from artifact import {name}")
    assert name in dir(artifact), name
"""
    proc = python(code)
    assert proc.returncode == 0, proc.stderr
