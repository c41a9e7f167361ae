"""Source hygiene: no dead imports or private names, and a pinned public surface."""

import ast
import pathlib
import sys

import pytest

import fblimits

SRC = pathlib.Path(fblimits.__file__).parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def _imported_modules(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_python_thread_pools(path):
    banned = {"concurrent.futures", "threading"}
    found = banned & _imported_modules(ast.parse(path.read_text()))
    assert not found, f"{path.name} imports {sorted(found)}; parallelism is left to BLAS"


# pyproject lists numpy as the one dependency; scipy is a test-only oracle.
INSTALLED = set(sys.stdlib_module_names) | {"numpy", "fblimits"}


def _foreign_imports(tree: ast.Module) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue  # a relative import is internal
        found += [f"{name} (line {node.lineno})" for name in names
                  if name.split(".")[0] not in INSTALLED]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_the_standard_library_and_numpy(path):
    assert _foreign_imports(ast.parse(path.read_text())) == []


def test_import_check_sees_foreign_modules():
    tree = ast.parse("import os, scipy.optimize\nfrom numpy import linalg\nfrom . import spectra\n"
                     "from scipy import stats\nimport fblimits.cli\nfrom .._x import y\n")
    assert _foreign_imports(tree) == ["scipy.optimize (line 1)", "scipy (line 4)"]


ENV_READS = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(tree: ast.Module) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENV_READS:
            if isinstance(node.value, ast.Name) and node.value.id == "os":
                found.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, f"os.{a.name}") for a in node.names if a.name in ENV_READS]
    return [f"{name} (line {line})" for line, name in sorted(found)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_environment_variables(path):
    # Block sizes and other tuning values are module constants, not knobs.
    assert _environment_reads(ast.parse(path.read_text())) == []


def test_environment_check_sees_reads():
    tree = ast.parse("import os\nfrom os import getenv\nos.environ.get('A')\nprint(os.getenv('B'))\n")
    assert _environment_reads(tree) == ["os.getenv (line 2)", "os.environ (line 3)", "os.getenv (line 4)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_exponential_draws_have_one_home(path):
    # montecarlo._exponentials draws every Exp(1) variate in the package.
    assert "standard_exponential" not in path.read_text()


def _gaussian_draw_sites(path: pathlib.Path) -> list[str]:
    """Lines naming standard_normal outside spectra._complex_normal."""
    text = path.read_text()
    home = set()
    if path.name == "spectra.py":
        for node in ast.parse(text).body:
            if isinstance(node, ast.FunctionDef) and node.name == "_complex_normal":
                home = set(range(node.lineno, node.end_lineno + 1))
    return [f"line {i}" for i, line in enumerate(text.splitlines(), 1)
            if "standard_normal" in line and i not in home]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_gaussian_draws_have_one_home(path):
    # spectra._complex_normal draws every N(0, 1) variate in the package.
    assert _gaussian_draw_sites(path) == []


def test_unused_import_check_sees_dead_names():
    tree = ast.parse("import math\nfrom os import path as p, sep\nprint(sep)\n")
    assert _unused_imports(tree) == ["math (line 1)", "p (line 2)"]


def _private_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """Module-level private functions, classes and constants, with their lines."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        found += [(name, node.lineno) for name in targets
                  if name.startswith("_") and not name.startswith("__")]
    return found


def _unused_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """Private definitions neither loaded in their own module nor imported or reached as an attribute."""
    shared = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                shared.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                shared.update(alias.name for alias in node.names)
    unused = []
    for file, tree in trees.items():
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{name} ({file} line {line})" for name, line in _private_definitions(tree)
                   if name not in loaded | shared]
    return unused


def test_no_unused_private_names():
    # Tests may reach private names, but each must also serve the package.
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert sum(len(_private_definitions(t)) for t in trees.values()) > 0
    assert _unused_private_names(trees) == []


def test_unused_private_check_sees_dead_names():
    trees = {
        "a.py": ast.parse("_used = 1\n_dead: int = 2\ndef _f():\n    return _used\nclass _C: ...\n"),
        "b.py": ast.parse("from a import _C\n__all__ = []\n_used = 3\n"),
    }
    assert _unused_private_names(trees) == [
        "_dead (a.py line 2)", "_f (a.py line 3)", "_used (b.py line 3)",
    ]


PUBLIC_NAMES = [
    "AsymptoticResult", "BudgetError", "Codebook", "ConsistencyError",
    "DEFAULT_QUADRATURE", "DIRECT_BUDGET", "EigenSolverError", "Estimate",
    "LegendrePoint", "MpLaw", "QuadratureConfig", "QuadratureError",
    "RateContext", "ReliabilityError", "SimConfig", "SpectrumSample",
    "TiltedCdfResult", "__version__", "asymptotic_limits", "c_rand_via_cdf",
    "cgf", "cgf_prime", "cgf_prime_closed", "conditional_cdf_mc",
    "conditional_cdf_tilted", "design_codebook", "eta_integral", "f_kernel",
    "ldp_rate_estimate", "min_chordal_distance", "mp_integrate", "mp_law",
    "optimal_tilt", "quantile_x_n", "random_codebook", "rate_function",
    "rate_zero", "sample_spectrum", "shannon_integral", "simulate_c_cdf",
    "simulate_c_direct", "simulate_c_spectral", "solve_x_by_rate",
    "solve_x_minus", "solve_x_plus", "thresholds", "throughput",
    "uniform_codebook_bound",
]


def test_public_names_are_pinned():
    assert sorted(fblimits.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(fblimits, name) is not None


def _names(node: ast.AST, name: str) -> bool:
    """Whether `node` is the bare name `name` or an attribute `<obj>.name`."""
    return (isinstance(node, ast.Name) and node.id == name) or (
        isinstance(node, ast.Attribute) and node.attr == name)


def _compare_homes(tree: ast.Module, name: str) -> list[str]:
    """Functions holding a comparison that names `name`, one entry per comparison."""
    homes = []
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                if isinstance(node, ast.Compare) and any(_names(n, name) for n in ast.walk(node)):
                    homes.append(func.name)
    return homes


def test_each_refusal_has_one_home():
    # montecarlo._hold owns the array cap, spectra._integer every count and
    # seed, ratefn._interior the open tilt interval, and cli.main's one try
    # maps every I/O failure to exit 3.
    text = "".join(p.read_text() for p in sorted(SRC.glob("*.py")))
    for phrase in ("cap of", "must be an integer", "must be >= {least}", "outside the open interval"):
        assert text.count(phrase) == 1, phrase
    assert "int(seed)" not in text
    assert (SRC / "cli.py").read_text().count("except OSError") == 1
    montecarlo = ast.parse((SRC / "montecarlo.py").read_text())
    assert _compare_homes(montecarlo, "_MAX_ENTRIES") == ["_hold"]
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for count in ("samples", "sizes", "node_count", "seed"):
            assert _compare_homes(tree, count) == [], (path.name, count)
    assert set(_compare_homes(ast.parse((SRC / "spectra.py").read_text()), "least")) == {"_integer"}


def test_compare_homes_sees_nested_comparisons():
    tree = ast.parse("def f(a):\n    return [b for b in a if b < cap]\n"
                     "def g(cap):\n    if min(cap, 2) == 1 or cap:\n        return cap\n")
    assert _compare_homes(tree, "cap") == ["f", "g"]


def test_compare_homes_sees_attributes():
    tree = ast.parse("def f(cfg):\n    return 'a' if cfg.mode == 'min' else 'b'\n"
                     "def g(mode, cfg):\n    return mode in ('x',), cfg.mode_name == 'y'\n")
    assert _compare_homes(tree, "mode") == ["f", "g"]


def test_each_side_is_read_in_one_place():
    # limits._side is the one map from a side name ('minus'/'plus') to its sign
    # and edge, and cli._limit_fields the one map from --mode to the sides.
    limits = ast.parse((SRC / "limits.py").read_text())
    cli = ast.parse((SRC / "cli.py").read_text())
    assert set(_compare_homes(limits, "side")) == {"_side"}
    assert set(_compare_homes(cli, "mode")) == {"_limit_fields"}


def test_the_selection_mode_is_read_in_one_place():
    # montecarlo._check_selection refuses a bad mode and returns the mirror sign
    # (max v = -min(-v)); every route past it computes a minimum.
    montecarlo = ast.parse((SRC / "montecarlo.py").read_text())
    assert set(_compare_homes(montecarlo, "mode")) == {"_check_selection"}


def _call_homes(tree: ast.Module, name: str) -> list[str]:
    """Functions holding a call of `name`, one entry per call."""
    return [func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
            for node in ast.walk(func) if isinstance(node, ast.Call) and _names(node.func, name)]


def test_each_limit_level_is_checked_in_one_place():
    # Both limit routes, the explicit formulas and the rate inversion, hand the
    # level they return to limits._substituted, the one quadrature check there.
    limits = ast.parse((SRC / "limits.py").read_text())
    assert _call_homes(limits, "rate_zero") == ["_substituted"]


def test_beta_is_read_at_the_front_door():
    # limits._side reads beta, r and a side name once for every level route, and
    # thresholds reads beta alone; no other function reads beta around them.
    limits = ast.parse((SRC / "limits.py").read_text())
    assert sorted(_call_homes(limits, "mp_law")) == ["_side", "thresholds"]


def test_each_limit_level_is_refused_in_one_place():
    # limits._substituted's one try holds RateContext and rate_zero, so their domain,
    # quadrature and rate-at-zero refusals all gain beta, r and the side.
    limits = ast.parse((SRC / "limits.py").read_text())
    tries = [node for node in ast.walk(limits) if isinstance(node, ast.Try)]
    guarded = [node for t in tries for stmt in t.body for node in ast.walk(stmt)
               if isinstance(node, ast.Call) and _names(node.func, "rate_zero")]
    assert len(tries) == 1 and len(guarded) == 1


def test_call_homes_sees_nested_and_attribute_calls():
    tree = ast.parse("def f(a):\n    def g():\n        return m.check(a)\n    return g\n"
                     "def h(check):\n    return check\n")
    assert _call_homes(tree, "check") == ["f", "g"]


def _message(node: ast.expr) -> str:
    """A message's constant parts, each formatted field written as {}."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)
    return ""


def _repeated_refusals(trees: dict[str, ast.Module]) -> dict[str, list[str]]:
    """Texts of `raise E(msg)` and `parser.error(msg)` that occur more than once, with their sites."""
    sites: dict[str, list[str]] = {}
    for file, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                call = node.exc
            elif isinstance(node, ast.Call) and ast.unparse(node.func).endswith("parser.error"):
                call = node
            else:
                continue
            text = _message(call.args[0]) if call.args else ""
            if text:
                sites.setdefault(text, []).append(f"{file} line {node.lineno}")
    return {text: sorted(where) for text, where in sites.items() if len(where) > 1}


def test_each_refusal_text_has_one_home():
    # A rule checked in two places is written in two places; give it one helper.
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert _repeated_refusals(trees) == {}


def test_refusal_check_sees_repeated_texts():
    trees = {
        "a.py": ast.parse("raise ValueError(f'n={n} bad, got {m!r}')\nargs.parser.error('no ' 'flag')\n"
                          "raise ValueError(msg)\nraise\nlog.error('no flag')\n"),
        "b.py": ast.parse("if x:\n    raise KeyError(f'n={k} bad, got {j}') from exc\n"
                          "parser.error('no flag')\nraise ValueError('once')\n"),
    }
    assert _repeated_refusals(trees) == {
        "n={} bad, got {}": ["a.py line 1", "b.py line 2"],
        "no flag": ["a.py line 2", "b.py line 3"],
    }
