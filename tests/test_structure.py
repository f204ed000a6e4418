"""Architecture rules: each "one X" of the ROADMAP's quality aim, checked on the source of ``src/dgkit``.

A row of RULES names a rule, the modules it reads (``*`` is every module, ``-name.py`` leaves one out), a
regular expression, the number of matches it allows, and optionally the one definition whose lines may hold
them; the comment above a name gives its reason.  AST_RULES holds what the text cannot state.  A module or
definition that a rule names must exist, so a rename or a split fails the rule.
"""

import ast
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "dgkit"

RULES = [
    # matrices are sparse columns: only linalg reads the dense `.entries` view or builds a Matrix from rows
    ("Matrix layout stays in linalg", "* -linalg.py", r"\.entries\b|\bMatrix\(", 0),
    # (-1)^k is Field.sign: no module raises -1 to a power or keeps its own table of signs
    ("One sign rule", "*", r"\(-1\) *\*\*|_signs", 0),
    # a rational is an int when integral; field.py makes every Fraction and parser.py reads a/b tokens
    ("One scalar representation", "* -field.py -parser.py", r"\bFraction\b", 0),
    # every iso verdict is complexes.quasi_iso's report; every witness goes through require_witness
    ("One verdict path", "*", r"DerivedIsoReport|source_h|target_h|_dims_quantified", 0),
    ("One verdict path", "*", r"witness rejected", 1),
    # tensor and Hom complexes number their basis as modules do (basis[g], reps[g]), with no converter
    ("One carrier numbering", "*", r"struct_pair|struct_index|_struct_basis|_struct_diff|basis_vectors|\.section\(", 0),
    # one block reader checks basis labels; one table helper resolves every line (one _lin_comb( call)
    ("One table grammar", "parser.py", r"fresh basis label", 1),
    ("One table grammar", "parser.py", r"_lin_comb\(", 2),
    # derived.truncated_dual owns the dual's depth and cut; dualize( is named where defined and in it
    ("One truncated dual", "*", r"required_depth\(D, D \+ 1", 1),
    ("One truncated dual", "*", r"dualize\(", 2),
    ("One truncated dual", "epicheck.py", r"dualize\(|_truncated_dual\(", 0),
    # derived builds every chain map the checks compare; epicheck resolves, tensors and dualizes nothing
    ("One canonical-map layer", "epicheck.py",
     r"required_depth\(|semifree_resolution|resolve_right_module\(|tensor_over\(|truncated_dual\(", 0),
    # complexes.read_range is the one place that widens a window to the degrees quasi_iso reads
    ("One read range", "*", r"Window\(-D - 1|Window\(w\.lo - 1", 0),
    # every basis is in lead form, read by linalg.lead_coords: no certified echelon, no second solver
    ("One coordinate rule", "*", r"certify|_certs|_seat_first|\bprefer\b|_generator_coords|_spans", 0),
    # test oracles and what only tests build stay in tests; no second side check, no dense Matrix.apply
    ("No test oracle in src", "*",
     r"^def (verify_resolution|validate_complex|tensor_unit_iso)\b|\bdef truncate_below\b|_left_over|_right_over", 0),
    ("No test oracle in src", "linalg.py", r"def (apply|column)\(self", 0),
    ("No test oracle in src", "complexes.py",
     r"^def (cone|shift|direct_sum|single|zero_complex|euler_characteristic)\b|def intersect\(", 0),
    # a degree-0 map is a ChainMap, a homotopy check_homotopy's dict and ε the builder's table
    ("One map record", "*", r"class (Homotopy|CanonicalMap)\b|_eps_on_basis|def apply_elem", 0),
    # resolutions.scoped is the one memo of a check: no weak table, lru_cache, record slot or ContextVar
    ("One check memo", "*", r"weakref|WeakKeyDictionary|lru_cache|_TRUNCATED_DUALS|r_reading|\.records\b", 0),
    ("One check memo", "* -resolutions.py", r"ContextVar\(", 0),
    # the incremental builder makes every generator of every resolution, free modules included
    ("One resolution builder", "resolutions.py", r"Generator\(", 1),
    ("One resolution builder", "*", r"_free_generators|_try_free_presentation", 0),
    # modops.FreeModule owns the free layout g·dim A + a and d(a·g), the builder ε(a·g) = a·ε(g)
    ("One free module", "*", r"free_diff\(|def augmentation|_free_basis|_eps_column", 0),
    ("One free module", "resolutions.py derived.py homtensor.py", r"divmod\(|\* *(A\.)?total_dim|total_dim *\+", 0),
    # TensorProduct.coords is the one free tensor reader, and _free_view always returns the R-FreeModule
    ("One free tensor reader", "*", r"_projective_coords|def _free_view\(.*FreeModule \| None", 0),
    # FreeModule.view makes an R-free view's generators; no module keeps action matrices; str prints a scalar
    ("One free layer", "homtensor.py", r"Generator\(", 0),
    ("One free layer", "*", r"action_matrix|_action_mats|def to_str", 0),
    # a free module is a DgModule that grows its own tables: no second module on them, no shared tables
    ("One module record", "*",
     r"copy=|def module\(|\.free\.module|res(_\w+)?\.module\b|DgModule\([^)]*free\.(basis|act|diff)", 0),
    # a bimodule's resolution is a SemifreeResolution over its left algebra, with no enveloping handle
    ("One resolution record", "*", r"class (BimoduleResolution|DualizedBimodule)\b|env_resolution|as_bimodule", 0),
    # complexes.quasi_iso reads a kernel basis only on the path that names a cycle sent to a non-cycle
    ("Verdicts from ranks", "complexes.py", r"kernel_basis\(", 1),
    # outside dga.py derived._over_R restricts each module, and derived._regular makes S's, once per check
    ("One reading over R", "*", r"sr_bimodule_from_morphism", 0),
    ("One reading over R", "* -dga.py -derived.py", r"restrict_scalars\(", 0),
    ("One reading over R", "derived.py", r"restrict_scalars\(", 0, "_over_R"),
    ("One reading over R", "derived.py", r"\b(left|right)_regular\(", 0, "_regular"),
]


def _paths(files: str, src: pathlib.Path) -> list[pathlib.Path]:
    named = [f.lstrip("-") for f in files.split() if f != "*"]
    missing = [f for f in named if not (src / f).is_file()]
    assert not missing, f"no module {missing} in {src}"
    if files.startswith("*"):
        return [p for p in sorted(src.glob("*.py")) if p.name not in named]
    return [src / f for f in named]


def _def(src: pathlib.Path, module: str, *names: str) -> ast.AST:
    """The AST of ``module``, or the one function or class ``names[-1]`` inside ``names[-2]`` … in it."""
    (path,) = _paths(module, src)
    node = ast.parse(path.read_text())
    for name in names:
        found = [n for n in ast.walk(node) if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name]
        assert len(found) == 1, f"{len(found)} definitions {name} in {module}"
        node = found[0]
    return node


def _lines(node: ast.AST) -> range:
    return range(node.lineno, node.end_lineno + 1)


def matches(rule: tuple, src: pathlib.Path = SRC) -> list[str]:
    """Every match of a text rule outside its exempt definition, one entry each."""
    _, files, pattern, _, *inside = rule
    found = []
    for path in _paths(files, src):
        exempt = _lines(_def(src, path.name, *inside)) if inside else ()
        for i, line in enumerate(path.read_text().splitlines(), 1):
            if i not in exempt:
                found += [f"{path.name}:{i}: {line.strip()}"] * len(re.findall(pattern, line))
    return found


def one_hom_class(src: pathlib.Path):
    # one Hom and one tensor class, free or not, and the type of the Hom's source or tensor's right factor
    # picks the path, so the tracer sees every build; the one keyword-only `degrees` is a range
    ground = {_def(src, "homtensor.py", "GroundComplex").name}
    for node in _def(src, "homtensor.py").body:
        if isinstance(node, ast.ClassDef) and {getattr(b, "id", None) for b in node.bases} & ground:
            ground.add(node.name)
    assert len(ground) - 1 <= 2, f"GroundComplex classes {sorted(ground)}: one Hom class and one tensor class"
    for fn in ("hom_over", "tensor_over"):
        a = _def(src, "homtensor.py", fn).args
        params, kwonly = [p.arg for p in a.posonlyargs + a.args], [p.arg for p in a.kwonlyargs]
        assert params == ["A", "M", "N", "name"] and kwonly in ([], ["degrees"]) and not (a.vararg or a.kwarg), fn


def one_check_memo(src: pathlib.Path):
    # only semifree_resolution starts or grows a build; functools.cache is on cli._build_parser alone
    builder = {("resolutions.py", i) for i in _lines(_def(src, "resolutions.py", "semifree_resolution"))}
    parser = {("cli.py", i) for d in _def(src, "cli.py", "_build_parser").decorator_list for i in _lines(d)}
    bad = []
    for path in _paths("*", src):
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            names |= {a.name for a in getattr(node, "names", []) if isinstance(a, ast.alias)}
            where = (path.name, getattr(node, "lineno", None))
            if where not in builder:
                bad += [f"{where}: {n} outside semifree_resolution" for n in {"_ResolutionBuild", "_upto"} & names]
            if isinstance(node, ast.ImportFrom) and node.module == "functools" and "cache" in names:
                bad.append(f"{where}: functools.cache imported by name")
            is_cache = isinstance(node, ast.Attribute) and node.attr == "cache"
            if is_cache and getattr(node.value, "id", None) == "functools" and where not in parser:
                bad.append(f"{where}: functools.cache outside cli._build_parser")
    assert not bad, "\n".join(bad)


def verdicts_from_ranks(src: pathlib.Path):
    # ChainMap.validate compares each square column by column: it multiplies no matrices
    validate = _def(src, "complexes.py", "ChainMap", "validate")
    products = [n.lineno for n in ast.walk(validate) if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult)]
    assert not products, f"ChainMap.validate multiplies matrices at line(s) {products}"


def outer_actions(src: pathlib.Path):
    # GroundComplex._act reads outer actions off the ground action on reps[g]: no action matrix, no table
    calls = [n.func for n in ast.walk(_def(src, "homtensor.py", "GroundComplex", "_act")) if isinstance(n, ast.Call)]
    calls = {getattr(f, "id", None) or getattr(f, "attr", None) for f in calls}
    bad = sorted(calls & {"matrices_from_images", "_table", "Matrix", "from_columns"})
    assert not bad, f"GroundComplex._act builds outer actions through {bad}"


AST_RULES = {"One Hom class": one_hom_class, "One check memo": one_check_memo}
AST_RULES |= {"Verdicts from ranks": verdicts_from_ranks, "Outer actions from ground actions": outer_actions}


@pytest.mark.parametrize("name", dict.fromkeys([r[0] for r in RULES] + list(AST_RULES)))
def test_rule(name, src=SRC):
    # every text rule called `name`, then its AST rule if it has one
    for rule in (r for r in RULES if r[0] == name):
        found = matches(rule, src)
        assert len(found) <= rule[3], "\n".join(found)
    AST_RULES.get(name, lambda src: None)(src)


def test_pure_stdlib_runtime():
    # every dgkit module imports with the standard library alone: -S keeps site-packages off the path
    script = """import importlib, pkgutil, sys
sys.path[:] = [sys.argv[1]] + [p for p in sys.path if p and p.startswith(sys.base_prefix)]
import dgkit
print(*[importlib.import_module(f"dgkit.{m.name}").__name__ for m in pkgutil.iter_modules(dgkit.__path__)])"""
    out = subprocess.run([sys.executable, "-S", "-c", script, str(SRC.parent)], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == [f"dgkit.{p.stem}" for p in _paths("*", SRC)]


def test_projective_builds_finish(capsys):
    # over k × k, S1 = A e is projective: one generator spanning A e resolves it, so a cap of one suffices
    from dgkit import cli

    fixture = str(SRC.parents[1] / "fixtures" / "product.dg")
    assert cli.main(["ext", fixture, "P", "S1", "S1", "--window", "0..50", "--max-generators", "1"]) == 0
    assert "  Ext_0 = 1" in capsys.readouterr().out.splitlines()


# a rule whose module (None) or definition is gone fails
GONE = [("One Hom class", "homtensor.py", "class GroundComplex"), ("One Hom class", "homtensor.py", "def hom_over")]
GONE += [("Outer actions from ground actions", "homtensor.py", "def _act"), ("One table grammar", "parser.py", None)]
GONE += [("One check memo", "resolutions.py", "def semifree_resolution"), ("One check memo", "cli.py", None)]
GONE += [("One check memo", "cli.py", "def _build_parser"), ("Verdicts from ranks", "complexes.py", "def validate")]
GONE += [("One reading over R", "derived.py", "def _over_R"), ("One reading over R", "derived.py", "def _regular")]


@pytest.mark.parametrize("name, module, definition", GONE)
def test_a_rule_whose_module_or_definition_is_gone_fails(tmp_path, name, module, definition):
    for path in SRC.glob("*.py"):
        shutil.copy(path, tmp_path)
    test_rule(name, tmp_path)
    path = tmp_path / module
    path.write_text(path.read_text().replace(definition, f"{definition}_gone")) if definition else path.unlink()
    with pytest.raises(AssertionError, match="no module|0 definitions"):
        test_rule(name, tmp_path)
