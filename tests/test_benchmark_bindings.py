"""The benchmark tracer's view of the package.

perfbench/tracing.py wraps dirac1d functions by (module, attribute) and
reads a few attributes of what they return.  A refactor that removes or
renames one of those breaks trace mode, which otherwise only the slow
benchmark self-test would notice; one that calls a layer through another
module's binding leaves that layer's span out, and its per-layer numbers
read zero.
"""

import importlib
import importlib.util
import textwrap
from pathlib import Path

import dirac1d.cli as cli
from conftest import pt_operator
from dirac1d import solve_spectrum

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_binding_exists():
    tracing = load_tracing()
    missing = [f"{module}.{attr}" for module, attr, _ in tracing.WRAPPED
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_captures_read_what_the_layers_return():
    tracing = load_tracing()
    op = pt_operator(40)
    result = solve_spectrum(op, max_pairs=4)
    span = tracing.Span(0, 0, "test", None)
    tracing.CAPTURES["hamiltonian.assemble"](span, (), op)
    tracing.CAPTURES["solver.eig"](span, (op,), result)
    assert span.attrs["_matrix"] is op.matrix
    assert span.attrs["matrix_dim"] == 2 * 38
    assert span.attrs["pairs_kept"] == 4


def test_a_traced_diagnose_reaches_every_layer(tmp_path):
    tracing = load_tracing()
    ini = tmp_path / "run.ini"
    ini.write_text(textwrap.dedent("""\
        [grid]
        x_min = -6.0
        x_max = 6.0
        n_points = 60

        [mass]
        family = quadratic_even
        m0 = 1.0
        alpha = 0.1

        [potential]
        v_t = pt_from_mass
        """))
    tracer = tracing.Tracer()
    traced, plain = tmp_path / "traced", tmp_path / "plain"
    with tracer.operation(0):
        assert cli.main(["diagnose", str(ini), "--out", str(traced),
                         "--format", "both"]) == 0
    # diagnose never shoots; every other layer must have opened a span
    spans = {span.name for span in tracer.spans}
    assert {name for _, _, name in tracing.WRAPPED} - spans == {"solver.shoot"}

    assert cli.main(["diagnose", str(ini), "--out", str(plain),
                     "--format", "both"]) == 0
    names = sorted(p.name for p in plain.iterdir())
    assert len(names) == 5 and sorted(p.name for p in traced.iterdir()) == names
    for name in names:
        assert (traced / name).read_bytes() == (plain / name).read_bytes(), name
