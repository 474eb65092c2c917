"""The package's public surface: what README documents and what the benchmark tracer wraps."""

import ast
import pickle
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import kljn
import kljn.errors

ROOT = Path(__file__).resolve().parents[1]


def library_use_section():
    """README's "Library use" section, up to the next heading of its level."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]


def test_all_has_no_duplicates_and_every_name_is_bound():
    assert len(set(kljn.__all__)) == len(kljn.__all__)
    assert [name for name in kljn.__all__ if not hasattr(kljn, name)] == []


def test_library_use_imports_are_exported():
    imported = []
    for block in re.findall(r"```python\n(.*?)```", library_use_section(), re.S):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "kljn":
                imported += [alias.name for alias in node.names]
    assert imported, "the Library use section imports nothing from kljn"
    assert sorted(set(imported) - set(kljn.__all__)) == []


def test_every_export_is_documented_in_library_use():
    section = library_use_section()
    assert [name for name in kljn.__all__ if not re.search(rf"\b{name}\b", section)] == []


def test_every_traced_boundary_is_bound(monkeypatch):
    # the benchmark's tracer replaces each (owner, attribute) in owner.__dict__
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    import spans

    unbound = [
        f"{owner.__name__}.{attribute}"
        for owner, attribute, _, _ in spans.boundaries()
        if attribute not in vars(owner)
    ]
    assert unbound == []


def test_the_traced_per_bit_boundaries_keep_their_measured_contract(monkeypatch):
    # the tracer reads a draw's sample count and bytes, and the bytes of .v_e and .i_e
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    import spans

    import kljn.simulation
    import kljn.solver
    from kljn.noise import StreamSeed

    quad = kljn.ResistorQuad(1000.0, 10_000.0, 5000.0, 9000.0)
    variances = kljn.NoiseVariances(1.0, 2.0, 3.0, 4.0)
    with spans.traced(spans.SpanRecorder()) as recorder:
        draw = kljn.simulation.gaussian_block(16, 1.0, StreamSeed(0, 0))
        kljn.simulation.line_signals(kljn.LineState.LH, quad, draw, np.ones(16))
        kljn.solver.theoretical_moments(kljn.LineState.LH, quad, variances)
        StreamSeed(0, 0).generator()
    by_name = {span.name: span for span in recorder.spans}
    # one generator span inside the draw, one called directly
    assert Counter(span.name for span in recorder.spans) == {
        "noise.generator": 2,
        "noise.gaussian_block": 1,
        "circuit.line_signals": 1,
        "circuit.theoretical_moments": 1,
    }
    draw_span = by_name["noise.gaussian_block"]
    assert (draw_span.samples, draw_span.nbytes) == (16, 128)
    assert by_name["circuit.line_signals"].nbytes == 256


# The per-bit layer the benchmark tracer still wraps, and the modules that bind
# its names only for the tracer to replace
PER_BIT_LAYER = {"gaussian_block", "line_signals", "LineSignals", "theoretical_moments"}
TRACER_BINDINGS = {
    ("simulation.py", "gaussian_block"),
    ("simulation.py", "line_signals"),
    ("solver.py", "theoretical_moments"),
}


def test_no_package_code_uses_the_per_bit_layer():
    # so the layer can be deleted with its tracer bindings, and no run or solver path changes
    uses = []
    for path in sorted((ROOT / "src" / "kljn").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # a layer name's own definition, and everything inside it
        own = {
            id(inner)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in PER_BIT_LAYER
            for inner in ast.walk(node)
        }
        for node in ast.walk(tree):
            if id(node) in own:
                continue
            if isinstance(node, ast.ImportFrom):
                names = [a.name for a in node.names if (path.name, a.name) not in TRACER_BINDINGS]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            uses += [f"{path.name}:{node.lineno} {name}" for name in names if name in PER_BIT_LAYER]
    assert uses == []


# Each structure fence: a pattern that no package line may match, and the one
# module exempt from it, if any
FENCES = {
    # scalar inputs are checked by kljn.errors.require_int and require_real; a
    # bool-excluding type check, or an exact-type test such as the real rule's
    # fast pass, anywhere else is a copy of those rules
    "input-rules-only-in-errors": (
        r"isinstance\([^)]*bool|type\([^)]*\) is (not )?(float|int)\b",
        "errors.py",
    ),
    # kljn run rewrites its artifacts in place through cli._rewrite; opening a
    # path with mode "w" truncates it, which on ext4 makes the next run wait
    # for the last run's writeback
    "no-truncating-opens": (r"""open\([^()]*["']w|write_(text|bytes)\(""", None),
    # ctypes views of Philox's state and the call into numpy.random._generator's
    # exported C function sit behind NormalStreams' construction guard; a use
    # anywhere else is unguarded
    "raw-numpy-only-in-noise": (r"ctypes|\b_generator\b", "noise.py"),
}


@pytest.mark.parametrize("pattern, home", list(FENCES.values()), ids=list(FENCES))
def test_structure_fence(pattern, home):
    crossings = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted((ROOT / "src" / "kljn").glob("*.py"))
        if path.name != home
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if re.search(pattern, line)
    ]
    assert crossings == []


def error_classes():
    """Every exception class that kljn.errors defines, by name."""
    return {
        name: value
        for name, value in vars(kljn.errors).items()
        if isinstance(value, type)
        and issubclass(value, Exception)
        and value.__module__ == "kljn.errors"
    }


def test_every_error_class_is_raised_somewhere():
    # an error class that nothing raises is dead code that still reads as a promise
    defined = set(error_classes())
    raised = set()
    for path in (ROOT / "src" / "kljn").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(target, ast.Name):
                    raised.add(target.id)
    assert defined and sorted(defined - raised) == []


def test_every_error_class_pickles():
    # run_exchange sends a child's exception through a pipe by pickle, as a
    # process pool does with one that solve_variances raises
    try:
        kljn.solve_variances(kljn.ResistorQuad(5000, 1000, 1000, 2000), 1.0)
    except kljn.InfeasibleConfigError as exc:
        infeasible = exc
    for cls in error_classes().values():
        error = infeasible if cls is kljn.InfeasibleConfigError else cls("a message")
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is cls and str(copy) == str(error)
    copy = pickle.loads(pickle.dumps(infeasible))
    assert (copy.variance_name, copy.value) == ("v_hb_sq", -0.125)


def test_a_run_passes_through_every_traced_run_boundary(monkeypatch, tmp_path):
    # a boundary the tracer wraps but `kljn run` never calls reads 0 in the benchmark
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    import spans

    import kljn.cli

    config = tmp_path / "config.json"
    config.write_text(
        '{"resistors_ohm": {"r_la": 1000, "r_ha": 10000, "r_lb": 5000, "r_hb": 9000},'
        ' "v_la_variance_v2": 1.0}'
    )
    outdir = str(tmp_path / "out")
    with spans.traced(spans.SpanRecorder()) as recorder:
        argv = ["run", str(config), outdir, "--bits", "64", "--samples", "8", "--threads", "1"]
        assert kljn.cli.main(argv) == 0
    recorded = {span.name for span in recorder.spans}
    expected = {
        "cli.main",
        "cli.load_config",
        "solver.solve_variances",
        "simulation.run_exchange",
        "simulation.ber_report",
        "simulation.histogram",
        "simulation.scatter_trace",
    }
    assert sorted(expected - recorded) == []
