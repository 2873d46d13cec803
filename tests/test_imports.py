import ast
import sys
from pathlib import Path

import acre


def test_runtime_imports_only_numpy_and_the_standard_library():
    allowed = {"numpy", *sys.stdlib_module_names}
    outside = []
    for module in sorted(Path(acre.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{module.name}: {name}" for name in names if name.split(".")[0] not in allowed]
    assert outside == []


# The public module-level names of src/acre that nothing in src/acre refers
# to, each with the reason it stays. A name that loses its last caller in
# acre fails the test below until it is deleted or given a reason here.
UNCALLED_BY_ACRE = {
    "dsp.mel_center_frequencies": "a paper component: the mel filters' centres, shown by demo 01",
    "embedding.serve": "the worker entry point, named in embedding.WORKER_CODE's string",
    "encoder.structured_patchout": "a paper component: PaSST's patchout, which no command runs on frozen encoders",
    "encoder.text_encode": "perfbench's read API",
    "retrieval.ablation_csv": "a study harness: the dataset ablation's CSV",
    "retrieval.ablation_run": "a study harness: the dataset-combination ablation",
    "retrieval.format_ablation_table": "a study harness: the dataset ablation's table",
    "retrieval.rank": "perfbench's read API",
    "retrieval.segment_length_sweep": "a study harness: the segment-length sweep",
}


def test_every_public_function_and_class_in_acre_has_a_caller_in_acre_or_a_reason():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in Path(acre.__file__).parent.glob("*.py")}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    uncalled = sorted(
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in referenced
    )
    assert uncalled == sorted(UNCALLED_BY_ACRE)
