"""Static checks on the source tree, with the standard library only."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "arflow").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def unused_imports(path):
    """Names bound by the imports of ``path`` that no expression reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


@pytest.mark.parametrize(
    "path",
    [p for p in MODULES if p.name != "__init__.py"] + TESTS,
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_no_unused_imports(path):
    # __init__.py is skipped: its imports are the package's re-exports
    assert unused_imports(path) == [], f"unused imports in {path.name}"


def midpoint_rule_calls(path):
    """Lines of ``path`` that call ``MassQuadrature.midpoint``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "midpoint"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "MassQuadrature"]


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_default_quadrature(path):
    # the datum terms are exact; a quadrature is only ever passed in
    assert midpoint_rule_calls(path) == [], \
        f"MassQuadrature.midpoint called in {path.name}"


def power_calls(tree):
    """Lines of the ``np.power`` calls under the AST node ``tree``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "power"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")]


def test_kernels_use_no_np_power():
    # the pair sums take exp(p ln d); the particle oracle keeps np.power,
    # so the oracle check compares two independent power evaluations
    tree = ast.parse((ROOT / "src" / "arflow" / "kernels.py").read_text())
    assert power_calls(tree) == []


def particles_tree():
    return ast.parse((ROOT / "src" / "arflow" / "particles.py").read_text())


@pytest.mark.parametrize("name", ["_psi", "_psi_prime", "_datum_sums"])
def test_particle_oracle_keeps_np_power(name):
    funcs = {node.name: node for node in particles_tree().body
             if isinstance(node, ast.FunctionDef)}
    assert power_calls(funcs[name]) != [], f"{name} lost its np.power"


def test_particle_oracle_gathers_nothing():
    # one path per datum piece: no entries picked out for a second formula
    calls = [node.lineno for node in ast.walk(particles_tree())
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "nonzero"]
    assert calls == [], f"nonzero called at lines {calls}"


def quad_node_reads(path):
    """Enclosing function of each ``quad.nodes`` or ``obj.quad.nodes`` read."""
    tree = ast.parse(path.read_text(), filename=str(path))
    reads = []
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef):
            reads += [func.name for node in ast.walk(func)
                      if isinstance(node, ast.Attribute)
                      and node.attr == "nodes"
                      and "quad" in (getattr(node.value, "id", None),
                                     getattr(node.value, "attr", None))]
    return reads


def test_quadrature_nodes_read_in_one_place():
    # every datum term takes its pieces from kernels._pieces, and the
    # particle oracle takes no quadrature
    reads = {(path.stem, name) for path in MODULES
             for name in quad_node_reads(path)}
    assert reads == {("kernels", "_pieces")}


def energetics_tree():
    return ast.parse((ROOT / "src" / "arflow" / "energetics.py").read_text())


def test_energetics_has_one_transform_loop():
    # every characteristic function is the one blocked sum of _char_fn
    calls = [node.lineno for node in ast.walk(energetics_tree())
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name)
             and node.func.id == "_scratch_blocks"]
    assert len(calls) == 1, f"_scratch_blocks called at lines {calls}"


def test_energetics_defines_no_lambda():
    # the xi integral takes two measures' pieces, not a closure
    lambdas = [node.lineno for node in ast.walk(energetics_tree())
               if isinstance(node, ast.Lambda)]
    assert lambdas == [], f"lambda at lines {lambdas}"


def test_profile_document_has_one_owner():
    # ReferenceProfile.from_doc and to_doc read and write the profile format
    owners = [path.name for path in MODULES
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Constant)
              and node.value in ("breakpoints", "densities")]
    assert set(owners) == {"measures.py"}


def test_simulate_reads_its_config_once():
    # RunConfig keeps the document it parsed; config.json is written from it
    tree = ast.parse((ROOT / "src" / "arflow" / "cli.py").read_text())
    func = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name == "cmd_simulate")
    opens = [node.lineno for node in ast.walk(func)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "open"]
    assert opens == [], f"open called at lines {opens}"


def test_no_particle_system():
    # the particle oracle takes the InverseCDF it checks
    found = [(path.name, node.lineno) for path in MODULES
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ClassDef) and node.name == "ParticleSystem"
             or isinstance(node, ast.Name) and node.id == "ParticleSystem"]
    assert found == []


def source_tree(module):
    return ast.parse((ROOT / "src" / "arflow" / f"{module}.py").read_text())


def top_function(module, name):
    """The module-level function ``name`` of ``src/arflow/<module>.py``."""
    return next(node for node in source_tree(module).body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def named_lines(tree, name):
    """Lines under ``tree`` that name ``name``, bare or as an attribute."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name]


@pytest.mark.parametrize("name",
                         ["check_guard", "lipschitz_bound", "partial"])
def test_cli_leaves_guard_and_initial_state_to_their_owners(name):
    # simulate checks the step-size guard; the parser builds the initial
    # state itself, not a deferred builder
    assert named_lines(source_tree("cli"), name) == []


def test_xi_integral_serves_fourier_energy_only():
    # the balanced moment certificate takes its delta_0 term exactly
    callers = {func.name for func in ast.walk(source_tree("energetics"))
               if isinstance(func, ast.FunctionDef)
               and func.name != "_xi_integral"
               and named_lines(func, "_xi_integral")}
    assert callers == {"fourier_energy"}


def test_fourier_pieces_have_one_mass_each():
    # no scalar total mass is shared out, so no branch asks for np.ndim
    assert named_lines(source_tree("energetics"), "ndim") == []


def test_invert_increasing_has_no_tol():
    func = top_function("steady", "invert_increasing")
    assert "tol" not in [arg.arg for arg in func.args.args]


def test_steady_qr1_inverts_the_drift_once():
    # the support edges and the node levels share one bracket
    func = top_function("steady", "steady_qr1")
    calls = [node.lineno for node in ast.walk(func)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name)
             and node.func.id == "invert_increasing"]
    assert len(calls) == 1, f"invert_increasing called at lines {calls}"


def test_invert_increasing_has_no_while():
    # the bisection halves its bracket a number of times known in advance
    func = top_function("steady", "invert_increasing")
    loops = [node.lineno for node in ast.walk(func)
             if isinstance(node, ast.While)]
    assert loops == [], f"while loop at lines {loops}"


def test_simulate_takes_no_quad_or_callback():
    # a quadrature flow is step with AttractionPotential(profile, q_a, quad),
    # and the trajectory's states are every recorded state
    args = top_function("dynamics", "simulate").args
    assert ast.unparse(args) == "X0, profile, exps, cfg"


def test_cmd_simulate_defines_no_nested_function():
    # the reports are built from the trajectory's states after the run
    func = top_function("cli", "cmd_simulate")
    nested = [node.lineno for node in ast.walk(func)
              if node is not func and isinstance(
                  node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
    assert nested == [], f"nested function at lines {nested}"


def test_no_abs_moment():
    # int |y|^q d omega has one formula, the datum sum at 0
    found = [(path.name, node.lineno) for path in MODULES
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.FunctionDef) and node.name == "abs_moment"]
    assert found == []


def test_moment_certificate_calls_datum_conv_once():
    func = top_function("energetics", "moment_certificate")
    calls = [node.lineno for node in ast.walk(func)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name)
             and node.func.id == "_datum_conv"]
    assert len(calls) == 1, f"_datum_conv called at lines {calls}"


def least_squares_calls(tree):
    """Lines under ``tree`` that name ``np.polyfit`` or anything under
    ``np.linalg``, by attribute or by import."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = ast.unparse(node)
            root, _, rest = name.partition(".")
            if root in ("np", "numpy") and (rest == "polyfit"
                                            or rest.startswith("linalg")):
                lines.append(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{name}" for name in names]
            if any(name.startswith("numpy.linalg")
                   or name == "numpy.polyfit" for name in names):
                lines.append(node.lineno)
    return lines


def test_cli_fits_rates_without_least_squares_solver():
    # a two-parameter line is solved from its centred sums; the general
    # least-squares solve (LAPACK) has no place on the simulate path
    assert least_squares_calls(source_tree("cli")) == []
