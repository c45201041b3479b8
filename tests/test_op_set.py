"""``csiqa.numerics`` holds the ops the model uses, and the benchmark's
per-layer view still finds every function it wraps.

Reference ops that only tests need live in ``tests/unfused.py``. ``bmm``
and ``gather_rows`` stay in ``numerics`` while ``perfbench/tracer.py``
wraps them; the second test keeps both lists honest. The third holds the
benchmark's op boundary to one ``adam_step`` per optimizer update, and the
fourth runs each benchmark workload once, so a change to an API it calls
fails here rather than only in a benchmark run. No linter is installed, so
an AST pass also finds any name a module imports and never uses.
"""

import ast
from pathlib import Path

import pytest

from csiqa import numerics as nm
from csiqa import pipeline as pl
from csiqa import sampling
from csiqa.data import generate_toy_dataset, read_manifest

SRC = Path(nm.__file__).parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# public numerics names no model path calls, with the reason each stays
UNCALLED = {
    "bmm": "perfbench/tracer.py counts its FLOPs",
    "gather_rows": "perfbench/tracer.py counts its rows",
}


def public_names(tree: ast.Module) -> set[str]:
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}


def numerics_references(tree: ast.Module) -> set[str]:
    """Names a module imports from ``.numerics`` or reads off its alias."""
    aliases, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module == "numerics":
                used |= {a.name for a in node.names}
            elif node.module is None:
                aliases |= {a.asname or a.name for a in node.names if a.name == "numerics"}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            used.add(node.attr)
    return used


def test_every_public_numerics_name_is_used_by_another_module():
    defined = public_names(ast.parse((SRC / "numerics.py").read_text(encoding="utf-8")))
    used = set()
    for path in SRC.glob("*.py"):
        if path.name != "numerics.py":
            used |= numerics_references(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(defined - used) == sorted(UNCALLED)
    assert set(UNCALLED) <= defined


def unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports and never reads, in import order."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    unused = {path.name: unused_imports(ast.parse(path.read_text(encoding="utf-8")))
              for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}


def test_benchmark_wrap_targets_all_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    import workloads

    originals = {name: getattr(nm, name) for name in ("adam_step", "matmul", "bmm", "affine",
                                                       "gather_rows")}
    backward = nm.GradTape.backward
    spy = tracer.Tracer()
    try:
        assert spy.install() == []
        with workloads.OpMarks():
            assert nm.adam_step is not originals["adam_step"]
    finally:
        spy.uninstall()
    assert {name: getattr(nm, name) for name in originals} == originals
    assert nm.GradTape.backward is backward


def test_benchmark_op_boundary_is_one_adam_step_per_update(monkeypatch, tmp_path, rng):
    """The benchmark ends an op at each ``adam_step`` return (``OpMarks``,
    through ``tracer.rebind``): one per ``train`` step, validation steps
    included, and one per ``pretrain_csm`` epoch."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    records = read_manifest(generate_toy_dataset(tmp_path, n_images=10, size=16, seed=0))
    cfg = pl.ModelConfig(embed_dim=16, depth=1, crop_size=8)
    with workloads.OpMarks() as marks:
        pl.train(records, cfg, pl.TrainSettings(batch=4, lr=1e-3, steps=3, val_every=2))
        assert len(marks.times) == 3
        sampling.pretrain_csm([rng.random((8, 8))], 0.25, epochs=2, lr=1e-3, width=4)
        assert len(marks.times) == 5


@pytest.mark.parametrize("name", ["TrainDesk", "PretrainCorpus", "ScoreFivecrop"])
def test_every_benchmark_workload_runs_one_op(monkeypatch, tmp_path, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    workload = getattr(workloads, name)()
    with workloads.OpMarks() as marks:
        ctx = workload.setup(0, str(tmp_path), marks)
        phase = workload.run(ctx, marks, 0.0, 1)
        problems = workload.check(ctx)
    assert (phase.attempted, phase.failed, problems) == (1, 0, [])
