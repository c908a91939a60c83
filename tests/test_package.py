import ast
import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import nel

MODULES = ["nel", *(f"nel.{info.name}" for info in pkgutil.iter_modules(nel.__path__))]

# Exported functions that no other nel module references, each with the
# reason it stays public.  A route only tests reach either earns a line here
# or goes.
KEEP = {
    "nel.cli.main": "the nel console script and python -m nel.cli",
    "nel.cosine.tail_coefficients": "criterion 14 checks the odd tails against it",
    "nel.cosine.bundle_index": "the tests read a forward run's landing bundle with it",
    "nel.cosine.bundle_decay_fit": "criterion 8: the even-bundle splitting slope -pi/2",
    "nel.fourier.first_peak_location": "gibbs_overshoot calls it",
    "nel.limitcurve.alpha_recursion": "criterion 5: the exact random-walk table",
    "nel.limitcurve.alpha_closed_form": "criterion 5: the closed forms of that table",
    "nel.limitcurve.eta_consistency_check": "criterion 6: the finite-frequency energy balance",
    "nel.limitcurve.eta_balance_envelope": "criterion 6: the envelope of that balance",
    "nel.painleve.approach_decay_slope": "derives the rate (4/5) sqrt(2) the departure score assumes",
    "nel.pseries.ftau_partial_sum": "_polished_roots builds S_n from it, and the tests "
                                    "take S_n's coefficients from it",
    "nel.separatrix.maxima_count": "find_eigenvalue_bisect calls it",
    "nel.separatrix.backward_start": "trace_separatrix_backward starts from it",
}


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    # perfbench/tracer.py wraps each __all__ name with getattr, so a stale
    # entry would break every traced benchmark run
    module = importlib.import_module(name)
    assert [a for a in module.__all__ if not hasattr(module, a)] == []


def _names_read(path: pathlib.Path) -> set[str]:
    """Names a module reads, imports or reaches as attributes; docstrings
    and comments do not count."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_exported_function_has_a_caller_or_a_reason():
    src = pathlib.Path(nel.__file__).parent
    read = {"nel" if p.stem == "__init__" else f"nel.{p.stem}": _names_read(p)
            for p in src.glob("*.py")}
    unreached = []
    for name in MODULES:
        module = importlib.import_module(name)
        for attr in module.__all__:
            if inspect.isfunction(getattr(module, attr)) and not any(
                    attr in names for other, names in read.items() if other != name):
                unreached.append(f"{name}.{attr}")
    # both ways: a new test-only export fails, and so does a stale reason
    assert sorted(unreached) == sorted(KEEP)


TESTS = pathlib.Path(__file__).resolve().parent


def test_reference_routes_import_nothing_from_nel():
    # a reference that shared a helper with the route it checks could move
    # with it under one defect
    path = TESTS / "reference.py"
    tree = ast.parse(path.read_text())
    modules = {a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "nel" not in {m.partition(".")[0] for m in modules}
    assert _names_read(path).isdisjoint(
        {"nel", "_contract", "_polish", "_bisect", "_steps",
         "_integrate_scalar", "_integrate_pair", "_first_step"})


def test_ode_tests_import_no_private_name_from_nel_ode():
    # the step loops' bitwise references carry their own tableau and
    # controller constants: an imported one would move with the loops
    tree = ast.parse((TESTS / "test_ode.py").read_text())
    assert [a.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "nel.ode"
            for a in node.names if a.name.startswith("_")] == []


def test_no_test_reads_the_tableau_of_nel_ode():
    # tests/reference.py carries the exact tableau and dense weights; a test
    # that read nel.ode's own would move with the loops it checks
    from nel import ode

    private = {name for name in vars(ode) if re.fullmatch(r"_[ABCEP]\d+", name)}
    assert len(private) == 48          # _C2.._C5, _A21.._A65, _B1.._B6, _E1.._E7, _P12.._P74
    read = {path.name: sorted(_names_read(path) & private) for path in TESTS.glob("*.py")}
    assert {name: names for name, names in read.items() if names} == {}


def test_ci_runs_tier1_and_the_benchmark_checks_only():
    # Tier-1 is the whole check: the workflow holds no second one, such as
    # a script fed to python on stdin
    text = (TESTS.parent / ".github" / "workflows" / "tier1.yml").read_text()
    assert re.findall(r"^ *- name: (.*)$", text, re.M) == [
        "Install", "Tier-1", "Benchmark output checks", "Traced benchmark smoke"]
    assert re.search(r"\bpython3? +-( |$)", text, re.M) is None
    assert "<<" not in text


def test_sources_parse_as_python_3_10():
    # the workflow runs Tier-1 under 3.10 too: a run on a newer interpreter
    # still sees 3.11-only syntax, and 3.11's tomllib, datetime.UTC and
    # exception groups
    paths = sorted([*pathlib.Path(nel.__file__).parent.glob("*.py"), *TESTS.glob("*.py")])
    for path in paths:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))
        assert _names_read(path).isdisjoint({"tomllib", "UTC", "ExceptionGroup",
                                             "BaseExceptionGroup", "TaskGroup"}), path
