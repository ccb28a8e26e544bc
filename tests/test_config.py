"""INI configuration parsing: defaults, strictness, channel grammar."""

import numpy as np
import pytest

from dirac1d import (ConfigError, Dirac1DError, execute, parse_config,
                     write_outputs)
from dirac1d.config import _SCHEMA
from dirac1d.hamiltonian import OPERATOR_SCHEMES

MINIMAL = """\
[grid]
x_min = -5.0
x_max = 5.0
n_points = 64

[mass]
family = constant
"""


def write(tmp_path, text, name="run.ini"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_minimal_config_gets_documented_defaults(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL))
    assert cfg["solver"]["scheme"] == "central_wilson"
    assert cfg["solver"]["wilson_r"] == 1.0
    assert cfg["solver"]["tol"] == 1e-9
    assert cfg["solver"]["max_pairs"] == 12
    assert cfg["grid"]["boundary"] == "dirichlet"
    assert cfg["mass"]["m0"] == 1.0
    assert all(cfg["potential"][c] == "zero"
               for c in ("v_t", "v_sp", "v_s", "v_p"))
    assert cfg["diagnostics"]["identity_tol"] == "auto"
    assert cfg["output"]["formats"] == "csv"
    # the raw echo carries the defaults too, so a config can be rebuilt
    assert cfg.raw["solver"]["wilson_r"] == "1.0"


def test_coarse_grid_rejected_at_parse_time(tmp_path):
    bad = MINIMAL.replace("n_points = 64", "n_points = 4")
    with pytest.raises(Dirac1DError, match="at least 8"):
        parse_config(write(tmp_path, bad))


def test_unknown_key_suggests_nearest(tmp_path):
    text = MINIMAL + "\n[solver]\nwilsonr = 1.0\n"
    with pytest.raises(ConfigError, match="wilsonr") as err:
        parse_config(write(tmp_path, text))
    assert "wilson_r" in str(err.value)


def test_unknown_section_suggests_nearest(tmp_path):
    text = MINIMAL + "\n[masss]\nfamily = constant\n"
    with pytest.raises(ConfigError, match="masss") as err:
        parse_config(write(tmp_path, text))
    assert "mass" in str(err.value)


def test_missing_required_keys_listed_together(tmp_path):
    text = "[mass]\nfamily = constant\n"
    with pytest.raises(ConfigError) as err:
        parse_config(write(tmp_path, text))
    msg = str(err.value)
    for missing in ("grid.x_min", "grid.x_max", "grid.n_points"):
        assert missing in msg


def test_invalid_choice_value(tmp_path):
    bad = MINIMAL + "\n[solver]\nscheme = upwind\n"
    with pytest.raises(ConfigError, match="upwind"):
        parse_config(write(tmp_path, bad))
    bad = MINIMAL.replace("family = constant", "family = constnt")
    with pytest.raises(ConfigError, match="constant"):
        parse_config(write(tmp_path, bad))


def test_unparseable_number(tmp_path):
    bad = MINIMAL.replace("x_min = -5.0", "x_min = left")
    with pytest.raises(ConfigError, match="x_min"):
        parse_config(write(tmp_path, bad))


def test_channel_grammar(tmp_path):
    text = MINIMAL + """
[potential]
v_t = constant:0.5j
v_sp = linear:2.0
v_s = abs:1.5
v_p = quadratic:-0.25
"""
    cfg = parse_config(write(tmp_path, text))
    grid = cfg.build_grid()
    pot = cfg.build_potential(grid, cfg.build_mass_profile())
    x = grid.nodes
    assert np.allclose(pot.v_t.values, 0.5j)
    assert np.allclose(pot.v_sp.values, 2.0 * x)
    assert np.allclose(pot.v_s.values, 1.5 * np.abs(x))
    assert np.allclose(pot.v_p.values, -0.25 * x * x)


def test_pt_channel_builds_mass_induced_potential(tmp_path):
    text = MINIMAL.replace("family = constant",
                           "family = quadratic_even\nalpha = 0.3") + """
[potential]
v_t = pt_from_mass
"""
    cfg = parse_config(write(tmp_path, text))
    assert cfg.pt_channels() == ["v_t"]
    grid = cfg.build_grid()
    pot = cfg.build_potential(grid, cfg.build_mass_profile())
    x = grid.nodes
    assert np.allclose(pot.v_t.values, 0.3j * x / (1.0 + 0.3 * x * x))


def test_pt_channel_restricted_to_time_component(tmp_path):
    text = MINIMAL + "\n[potential]\nv_s = pt_from_mass\n"
    with pytest.raises(ConfigError, match="v_t"):
        parse_config(write(tmp_path, text))


def test_unknown_channel_spec(tmp_path):
    text = MINIMAL + "\n[potential]\nv_s = gaussian:1.0\n"
    with pytest.raises(ConfigError, match="gaussian"):
        parse_config(write(tmp_path, text))


def test_tabulated_channel_roundtrip(tmp_path):
    vals = np.linspace(-1.0, 1.0, 64)
    imag = 0.1 * np.ones(64)
    np.savetxt(tmp_path / "chan.txt", np.column_stack([vals, imag]))
    text = MINIMAL + "\n[potential]\nv_t = file:chan.txt\n"
    cfg = parse_config(write(tmp_path, text))
    pot = cfg.build_potential(cfg.build_grid(), cfg.build_mass_profile())
    assert np.allclose(pot.v_t.values, vals + 0.1j, atol=1e-12)


def test_tabulated_channel_size_mismatch(tmp_path):
    np.savetxt(tmp_path / "short.txt", np.arange(10.0))
    text = MINIMAL + "\n[potential]\nv_s = file:short.txt\n"
    with pytest.raises(ConfigError, match="shape"):
        parse_config(write(tmp_path, text))


def test_tabulated_channel_missing_file(tmp_path):
    text = MINIMAL + "\n[potential]\nv_s = file:nope.txt\n"
    with pytest.raises(ConfigError, match="not found"):
        parse_config(write(tmp_path, text))


def test_tabulated_channel_that_is_not_numbers(tmp_path):
    (tmp_path / "bad.txt").write_text("abc def\n")
    text = MINIMAL + "\n[potential]\nv_s = file:bad.txt\n"
    with pytest.raises(ConfigError, match=r"potential\.v_s: cannot read file bad\.txt"):
        parse_config(write(tmp_path, text))


@pytest.mark.parametrize("spec", ["constant:nan", "constant:-inf", "linear:nan+1j",
                                  "file:nan.txt"])
def test_non_finite_channel_rejected_at_parse_time(tmp_path, spec):
    values = np.zeros(64)
    values[7] = np.nan
    np.savetxt(tmp_path / "nan.txt", values)
    text = MINIMAL + f"\n[potential]\nv_p = {spec}\n"
    with pytest.raises(ConfigError, match=r"potential\.v_p: .* not finite"):
        parse_config(write(tmp_path, text))


def test_window_and_pairs_parsing(tmp_path):
    text = MINIMAL + """
[diagnostics]
window = -2.0:2.0
balance_pairs = 1:0, 3:2
"""
    cfg = parse_config(write(tmp_path, text))
    assert cfg["diagnostics"]["window"] == (-2.0, 2.0)
    assert cfg["diagnostics"]["balance_pairs"] == ((1, 0), (3, 2))


def test_window_validation(tmp_path):
    bad = MINIMAL + "\n[diagnostics]\nwindow = 2.0:-2.0\n"
    with pytest.raises(ConfigError, match="window"):
        parse_config(write(tmp_path, bad))
    outside = MINIMAL + "\n[diagnostics]\nwindow = -2.0:9.0\n"
    with pytest.raises(ConfigError, match="domain"):
        parse_config(write(tmp_path, outside))
    malformed = MINIMAL + "\n[diagnostics]\nbalance_pairs = 1-0\n"
    with pytest.raises(ConfigError, match="pair"):
        parse_config(write(tmp_path, malformed))


def test_window_collapsing_onto_one_node_is_rejected(tmp_path):
    # h = 1/6: both ends of the window are nearest to node 30 (x = 0), which
    # balance_identity used to refuse pair by pair at run time
    grid = MINIMAL.replace("n_points = 64", "n_points = 61")
    narrow = grid + "\n[diagnostics]\nwindow = -0.01:0.01\n"
    with pytest.raises(ConfigError) as err:
        parse_config(write(tmp_path, narrow))
    assert "[-0.01, 0.01]" in str(err.value) and "node 30" in str(err.value)
    # a window as narrow that spans two nodes still parses
    two_nodes = grid + "\n[diagnostics]\nwindow = -0.1:0.1\n"
    assert parse_config(write(tmp_path, two_nodes))["diagnostics"]["window"] == (
        -0.1, 0.1)


def test_scheme_choices_are_the_operator_schemes(tmp_path):
    for scheme in OPERATOR_SCHEMES:
        text = MINIMAL + f"\n[solver]\nscheme = {scheme}\n"
        assert parse_config(write(tmp_path, text))["solver"]["scheme"] == scheme
    assert _SCHEMA["solver"]["scheme"][0] == "choice:" + "|".join(OPERATOR_SCHEMES)


def test_central_scheme_is_a_config_error(tmp_path):
    # central was central_wilson with wilson_r = 0, the same operator
    text = MINIMAL + "\n[solver]\nscheme = central\n"
    with pytest.raises(ConfigError, match="solver.scheme"):
        parse_config(write(tmp_path, text))


def test_solver_bounds(tmp_path):
    bad = MINIMAL + "\n[solver]\ntol = -1e-9\n"
    with pytest.raises(ConfigError, match="tol"):
        parse_config(write(tmp_path, bad))
    bad = MINIMAL + "\n[solver]\nmax_pairs = 0\n"
    with pytest.raises(ConfigError, match="max_pairs"):
        parse_config(write(tmp_path, bad))
    bad = MINIMAL + "\n[solver]\nwilson_r = -1.0\n"
    with pytest.raises(ConfigError, match="wilson_r"):
        parse_config(write(tmp_path, bad))


@pytest.mark.parametrize("key, value", [
    ("pt_tol", "-1e-12"), ("reality_tol", "-1"), ("identity_tol", "-1e-6"),
    ("balance_lowest", "-2"),
])
def test_negative_diagnostics_bounds_rejected(tmp_path, key, value):
    cfg = parse_config(write(tmp_path, MINIMAL))
    with pytest.raises(ConfigError, match=rf"diagnostics\.{key} must be non-negative"):
        cfg.replace({f"diagnostics.{key}": value})
    assert cfg.replace({f"diagnostics.{key}": "0"})["diagnostics"][key] == 0


def test_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        parse_config("/nonexistent/run.ini")


def test_a_byte_order_mark_is_dropped_and_other_encodings_refused(tmp_path):
    # editors on Windows often start a UTF-8 file with the mark EF BB BF
    text = MINIMAL + "\n; the scalar potential 0.5·|x|\n[potential]\nv_s = abs:0.5\n"
    plain = parse_config(write(tmp_path, text))
    marked = tmp_path / "bom.ini"
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    cfg = parse_config(marked)
    assert (cfg.values, cfg.raw) == (plain.values, plain.raw)
    latin = tmp_path / "latin.ini"
    latin.write_bytes(text.encode("latin-1"))
    with pytest.raises(ConfigError, match=f"config file {str(latin)!r} is not "
                                          "UTF-8 text"):
        parse_config(latin)


def test_report_json_echoes_effective_config(tmp_path):
    import json
    text = MINIMAL + "\n[diagnostics]\nbalance_pairs = 1:0\nwindow = -1.0:1.0\n"
    cfg = parse_config(write(tmp_path, text))
    write_outputs(execute(cfg, "check-pt"), tmp_path / "out", "json")
    echo = json.loads((tmp_path / "out" / "report.json").read_text())["config"]
    assert echo["grid"]["n_points"] == 64
    assert echo["diagnostics"]["balance_pairs"] == [[1, 0]]
    assert echo["diagnostics"]["window"] == [-1.0, 1.0]
    assert echo["solver"]["tol"] == 1e-9  # defaults are echoed too


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section, key", [
    ("solver", "tol"), ("solver", "wilson_r"), ("diagnostics", "pt_tol"),
    ("diagnostics", "identity_tol"), ("grid", "x_max"),
])
def test_non_finite_float_rejected_at_parse_time(tmp_path, section, key, value):
    cfg = parse_config(write(tmp_path, MINIMAL))
    with pytest.raises(ConfigError, match=rf"{section}\.{key}: .* not a finite"):
        cfg.replace({f"{section}.{key}": value})


def test_replace_revalidates_like_a_config_file(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL))
    new = cfg.replace({"solver.tol": "1e-6", "output.formats": "json"})
    assert new["solver"]["tol"] == 1e-6 and new["output"]["formats"] == "json"
    assert cfg["solver"]["tol"] == 1e-9  # the original is left as it was
    with pytest.raises(ConfigError, match="solver.tol must be positive"):
        cfg.replace({"solver.tol": "0"})
    with pytest.raises(ConfigError, match="unknown key 'tols'"):
        cfg.replace({"solver.tols": "1e-6"})
