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


def call_lines(tree, name, owner=None):
    """Lines under ``tree`` that call ``name``, bare or as an attribute;
    with ``owner``, only ``o.name`` calls for a bare name ``o`` in it."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (name in (getattr(node.func, "id", None),
                          getattr(node.func, "attr", None))
                 if owner is None else
                 isinstance(node.func, ast.Attribute)
                 and node.func.attr == name
                 and getattr(node.func.value, "id", None) in owner)]


NP = ("np", "numpy")


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_default_quadrature(path):
    # the datum terms are exact; a quadrature is only ever passed in
    tree = ast.parse(path.read_text(), filename=str(path))
    assert call_lines(tree, "midpoint", owner=("MassQuadrature",)) == [], \
        f"MassQuadrature.midpoint called in {path.name}"


def test_kernels_use_no_np_power():
    # the repulsion and datum sums take exp(p ln d); the particle oracle
    # keeps np.power, so the oracle check compares two independent power
    # evaluations
    for name in ("kernels.py", "dynamics.py"):
        tree = ast.parse((ROOT / "src" / "arflow" / name).read_text())
        assert call_lines(tree, "power", owner=NP) == [], name


def particles_tree():
    return ast.parse((ROOT / "src" / "arflow" / "particles.py").read_text())


@pytest.mark.parametrize("name", ["_pair_rows", "_datum_sums"])
def test_particle_oracle_keeps_np_power(name):
    funcs = {node.name: node for node in particles_tree().body
             if isinstance(node, ast.FunctionDef)}
    assert call_lines(funcs[name], "power", owner=NP) != [], \
        f"{name} lost its np.power"


def test_particle_oracle_gathers_nothing():
    # one path per datum piece: no entries picked out for a second formula
    calls = call_lines(particles_tree(), "nonzero")
    assert calls == [], f"nonzero called at lines {calls}"


def test_particle_oracle_shares_only_the_differences_and_blocks():
    # no pair sum, power or datum formula of the kernels: the oracle check
    # compares two independent evaluations
    imported = {(node.module, alias.name) for node in particles_tree().body
                if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    kernels = {name for module, name in imported if module == "kernels"}
    assert kernels == {"_scratch_blocks"}


def test_pair_mask_built_once():
    # every pair block's mask of its own square comes from _scratch_blocks
    calls = {(path.stem, func.name) for path in MODULES
             for func in ast.walk(ast.parse(path.read_text()))
             if isinstance(func, ast.FunctionDef)
             and call_lines(func, "tri", owner=NP)}
    assert calls == {("kernels", "_scratch_blocks")}


def test_oracle_check_calls_the_particle_functions_by_name():
    # the traced benchmark pass rebinds cli.particle_rhs and
    # cli.discrete_energy, so each state's call reads those names
    func = top_function("cli", "cmd_oracle_check")
    for name in ("particle_rhs", "discrete_energy"):
        calls = [node.lineno for node in ast.walk(func)
                 if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name) and node.func.id == name]
        assert len(calls) == 1, f"{name} called at lines {calls}"


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
    calls = call_lines(energetics_tree(), "_scratch_blocks")
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
    opens = call_lines(top_function("cli", "cmd_simulate"), "open")
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


@pytest.mark.parametrize("name", ["safety", "lipschitz_bound", "partial"])
def test_cli_leaves_guard_and_initial_state_to_their_owners(name):
    # simulate checks the step-size guard; the parser builds the initial
    # state itself, not a deferred builder
    assert named_lines(source_tree("cli"), name) == []


def owners(found):
    """(module, top-level name) of each top-level statement of the package
    for which ``found(statement)`` is nonempty; None names a statement
    that is no function or class."""
    return {(path.stem, getattr(top, "name", None)) for path in MODULES
            for top in ast.parse(path.read_text()).body if found(top)}


def test_step_size_guard_lives_in_simulate():
    # simulate takes lambda = Lip(U) once and checks dt * lambda <= safety:
    # step, the potential and the CLI carry no guard
    assert owners(lambda top: call_lines(top, "lipschitz_bound")) == {
        ("dynamics", "simulate")}
    assert owners(lambda top: named_lines(top, "safety")) == {
        ("dynamics", "IntegratorConfig"), ("dynamics", "simulate")}


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
    # both q_r = 1 limits take every node and edge from one inverse, so
    # neither writes the shift or the rule at G = m itself
    for name in ("steady_qr1", "shifted_profile_mlt1"):
        func = top_function("steady", name)
        calls = call_lines(func, "_invert_drift")
        assert len(calls) == 1, f"{name} inverts at lines {calls}"
        for other in ("quantile", "invert_increasing", "com"):
            assert named_lines(func, other) == [], f"{name} reads {other}"
    # the support edges and the node levels share one bracket
    inverse = top_function("steady", "_invert_drift")
    assert len(named_lines(inverse, "invert_increasing")) == 1


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
    calls = call_lines(top_function("energetics", "moment_certificate"),
                       "_datum_conv")
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


def test_velocity_has_one_formula():
    # V = rep - U(x) is formed in dynamics._velocity only, which the RK4
    # stages, the energy reports and the stationarity residual take;
    # energetics.energy takes rep alone, for its pair term, and no drift
    callers = {(path.stem, func.name) for path in MODULES
               for func in ast.walk(ast.parse(path.read_text()))
               if isinstance(func, ast.FunctionDef)
               and call_lines(func, "repulsion_term")}
    assert callers == {("dynamics", "_velocity"), ("energetics", "energy")}
    func = top_function("energetics", "energy")
    for name in ("AttractionPotential", "attraction_U", "_velocity"):
        assert named_lines(func, name) == [], f"energy names {name}"


@pytest.mark.parametrize("module", ["dynamics", "__init__"])
def test_no_rhs(module):
    # neither a second formula for V nor its export
    found = [node.lineno for node in ast.walk(source_tree(module))
             if isinstance(node, ast.FunctionDef) and node.name == "rhs"
             or isinstance(node, ast.alias) and node.name == "rhs"
             or isinstance(node, ast.Constant) and node.value == "rhs"]
    assert found == [], f"rhs at lines {found}"


def test_piece_moments_live_in_kernels():
    # omega's spread at q = 2 and the Fourier side's moments share one
    # formula, beside _pieces, whose form it reads
    owners = {(path.stem, node.name) for path in MODULES
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.FunctionDef)
              and node.name in ("_centres", "_moments")}
    assert owners == {("kernels", "_centres"), ("kernels", "_moments")}
    conv = top_function("kernels", "_datum_conv")
    assert call_lines(conv, "_moments") != []
    # no cubed breakpoints, whose differences cancel on narrow pieces
    cubes = [node.lineno for node in ast.walk(conv)
             if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
             and getattr(node.right, "value", None) == 3]
    assert named_lines(conv, "breakpoints") == [] and cubes == []


def unread_parameters(path):
    """``function.parameter`` for each named parameter of a function in
    ``path`` that no expression in the function's body reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    unread = []
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = func.args
            read = {node.id for stmt in func.body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)}
            unread += [f"{func.name}.{arg.arg} (line {func.lineno})"
                       for arg in args.posonlyargs + args.args
                       + args.kwonlyargs if arg.arg not in read]
    return unread


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_parameter_is_read(path):
    # no flag or argument that a function takes and ignores
    assert unread_parameters(path) == [], f"unread parameters in {path.name}"
