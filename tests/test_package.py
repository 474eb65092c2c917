"""The package's public surface: what README documents and what the benchmark tracer wraps."""

import ast
import re
from pathlib import Path

import kljn

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
