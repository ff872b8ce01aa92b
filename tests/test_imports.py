"""Import-level guarantees: the runtime is numpy-only (scipy and hypothesis are
test oracles), the package exports exactly the names pinned here, every name
a module imports is used there, and only the class variants import the
numerical kernels."""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import ipmdro


def test_import_pulls_in_no_test_only_dependency():
    src = str(Path(ipmdro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import sys, ipmdro, ipmdro.cli; "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'hypothesis'}))"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True, timeout=60,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


# Every name the package exports; adding or removing one is an API decision.
PUBLIC_API = {
    "AlignmentReport", "BoundReport", "CriticInfimumReport", "DiscreteDistribution",
    "DroMethod", "DroResult", "DudleyBall", "Explicit", "FDivergence", "FisherBall",
    "FunctionClass", "FunctionVec", "GanBoundReport", "GanValue", "IdentityReport",
    "IpmValue", "LipschitzBall", "PenaltyValue", "RkhsBall", "SampleSpace", "SobolevBall",
    "SupNormBall", "SymmetrizeResult", "TightnessReport", "TwoSidedReport", "ZetaBall",
    "centered_theta", "check_alignment", "corollary_bound", "critic_infimum", "critic_loss",
    "discretize_structured_class", "f_divergence_catalog", "gan_bound_check",
    "gan_objective", "ipm_distance", "j_penalty", "lambda_penalty", "make_space",
    "robust_gan_sup", "symmetrize_class", "theta", "tightness_report", "two_sided_check",
    "verify_identity", "worst_case_expectation",
}


def test_public_api_is_pinned():
    """Submodules are attributes of the package too, but not exports."""
    exported = {name for name, value in vars(ipmdro).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC_API


def _unused_imports(path):
    """Names that the module at ``path`` imports but never reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_every_imported_name_is_used():
    """A deletion leaves no stale import behind.  ``__init__`` imports the
    exports, which ``test_public_api_is_pinned`` checks."""
    package = Path(ipmdro.__file__).resolve().parent
    unused = {path.name: names for path in sorted(package.glob("*.py"))
              if path.name != "__init__.py" and (names := _unused_imports(path))}
    assert unused == {}


def test_only_balls_imports_the_kernels():
    """The LP kernel and the other numerical kernels of ``solvers`` serve the
    class variants alone: no other module imports a callable or class from
    it, or the module itself.  Its ALL_CAPS tolerances are shared."""
    package = Path(ipmdro.__file__).resolve().parent
    importers = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [a.name for a in node.names
                         if (node.module == "solvers" and not a.name.isupper())
                         or (node.module is None and a.name == "solvers")]
                if names:
                    importers.setdefault(path.name, []).extend(names)
    assert importers.pop("balls.py")
    assert importers == {}


def test_balls_read_the_metric_only_to_test_for_none():
    """The dense metric's layout stays behind ``core``: ``balls`` reads
    ``.metric`` only in ``... is None`` and ``... is not None`` tests, and
    takes every cost through core's operations."""
    tree = ast.parse((Path(ipmdro.__file__).resolve().parent / "balls.py").read_text())
    none_tests = {id(node.left) for node in ast.walk(tree)
                  if isinstance(node, ast.Compare) and len(node.ops) == 1
                  and isinstance(node.ops[0], (ast.Is, ast.IsNot))
                  and isinstance(node.comparators[0], ast.Constant)
                  and node.comparators[0].value is None}
    reads = [node for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "metric"]
    assert reads, "the balls test for a missing metric"
    assert [node.lineno for node in reads if id(node) not in none_tests] == []
