"""The benchmark tracer's view of the package.

perfbench/tracing.py wraps dirac1d functions by (module, attribute) and
reads a few attributes of what they return.  A refactor that removes or
renames one of those breaks trace mode, which otherwise only the slow
benchmark self-test would notice.
"""

import importlib
import importlib.util
from pathlib import Path

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
