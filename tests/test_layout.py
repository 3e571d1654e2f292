"""Package layout rules that no single module can check for itself."""

import ast
import importlib
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "aircomp").glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_private_cross_module_imports():
    assert SOURCES
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [f"{path.name}:{node.lineno} imports {alias.name}"
                          for alias in node.names if _private(alias.name)]
    assert not found, found


def test_all_names_exist():
    assert SOURCES
    missing = []
    for path in SOURCES:
        name = "aircomp" if path.stem == "__init__" else f"aircomp.{path.stem}"
        module = importlib.import_module(name)
        missing += [f"{path.name} exports missing {export}"
                    for export in getattr(module, "__all__", ())
                    if not hasattr(module, export)]
    assert not missing, missing


def test_runtime_imports_numpy_and_stdlib_only():
    # scipy is a test-only oracle; numpy's underscore modules are not API
    assert SOURCES
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            for name in names:
                top, *rest = name.split(".")
                if top == "numpy" and any(_private(part) for part in rest):
                    found.append(f"{path.name}:{node.lineno} imports private {name}")
                elif top != "numpy" and top not in sys.stdlib_module_names:
                    found.append(f"{path.name}:{node.lineno} imports {name}")
    assert not found, found


def _package_imports(path: Path) -> set[str]:
    """The aircomp modules that path imports from, by name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("aircomp")):
            module = (node.module or "").removeprefix("aircomp").lstrip(".")
            found |= {module} if module else {alias.name for alias in node.names}
    return found


def test_analytic_and_monte_carlo_layers_apart():
    # the closed form and the Monte Carlo that validates it share only the
    # model: neither module imports anything from the other
    package = SOURCES[0].parent
    assert "analytical" not in _package_imports(package / "montecarlo.py")
    assert "montecarlo" not in _package_imports(package / "analytical.py")


def _calls(names: set[str], exempt: tuple[str, ...]) -> list[str]:
    """Each call of a function named in names from a module not in exempt."""
    assert SOURCES
    found = []
    for path in SOURCES:
        if path.name in exempt:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name in names:
                    found.append(f"{path.name}:{node.lineno} calls {name}")
    return found


# What builds a (seed, i) stream, and the Generator methods that draw from it
SAMPLING = {"SeedSequence", "PCG64", "default_rng", "poisson", "random", "uniform",
            "standard_normal"}


def test_one_sampler():
    # model.sample_ppp_chunks is the only sampler: no other module builds a
    # (seed, i) stream or draws from a Generator
    found = _calls(SAMPLING, ("model.py",))
    assert not found, found


def test_one_sweep():
    # cli.run_sweep is the one analytic-vs-Monte-Carlo sweep (the acceptance
    # grid runs it too): no other module calls estimate_mse
    found = _calls({"estimate_mse"}, ("cli.py", "montecarlo.py"))
    assert not found, found


def test_one_radius_search():
    # cli.optimal_radius is the one access-radius search (criterion 5 runs it
    # too): no module but analytical and cli calls radius_curve
    found = _calls({"radius_curve"}, ("analytical.py", "cli.py"))
    assert not found, found


def test_one_quadrature_entry_point():
    # numerics.integrate takes float or array limits: no batched twin of it
    from aircomp import numerics
    quadratures = [name for name in numerics.__all__
                   if not isinstance(getattr(numerics, name), type)
                   and any(word in name.lower() for word in ("integrat", "quad", "batch"))]
    assert quadratures == ["integrate"]


def test_one_minimizer():
    # numerics.refine_bracket is the one minimizer; the scans it refines are
    # its callers' (analytical.log_eta_grid and analytical.radius_grid)
    from aircomp import numerics
    minimizers = [name for name in numerics.__all__
                  if not isinstance(getattr(numerics, name), type)
                  and (any(word in name.lower() for word in ("minimi", "optim", "refine"))
                       or getattr(numerics, name).__annotations__.get("return")
                       == "MinimizeResult")]
    assert minimizers == ["refine_bracket"]


def test_no_check_flags():
    # every function checks its input: no parameter turns the checks off
    assert SOURCES
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                found += [f"{path.name}:{node.lineno} {node.name}"
                          for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)
                          if arg.arg == "check"]
    assert not found, found
