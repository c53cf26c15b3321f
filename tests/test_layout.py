"""Package layout: modules share only public names; imports match the declared
dependencies."""
import ast
import re
import sys
from pathlib import Path

import pytest

import qmemsim

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def private_imports():
    """'module: name' for every underscore name a package module imports
    from another package module; dunders such as __version__ are public."""
    found = []
    for path in sorted(Path(qmemsim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "qmemsim":
                continue
            found += [f"{path.stem}: {alias.name}" for alias in node.names
                      if alias.name.startswith("_")
                      and not (alias.name.startswith("__") and alias.name.endswith("__"))]
    return found


def test_no_module_imports_a_private_name_of_another():
    assert private_imports() == []


def third_party_imports():
    """Top-level names of every module the package imports from outside
    itself and the standard library."""
    names = set()
    for path in Path(qmemsim.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - {"qmemsim"} - set(sys.stdlib_module_names)


def test_runtime_imports_are_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    declared = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["dependencies"]
    assert {re.match(r"[A-Za-z0-9_.-]+", d).group() for d in declared} == third_party_imports()


def python_floor() -> tuple[int, int]:
    """The oldest Python that pyproject.toml's requires-python admits."""
    text = PYPROJECT.read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups()
    return int(major), int(minor)


def test_every_python_file_parses_under_the_floor():
    # a newer construct (except*, a type statement, ...) fails to parse
    # under the oldest grammar the project admits
    root = PYPROJECT.parent
    paths = sorted(p for d in ("src", "tests", "bench", "demos") for p in (root / d).rglob("*.py"))
    assert python_floor() == (3, 10) and len(paths) >= 42
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=python_floor())


def hand_built_impedances():
    """'module:line' for every terminate(chain_abcd(...)) call outside twoport,
    which input_impedance(chain, z_load, f) spells once."""
    found = []
    for path in sorted(Path(qmemsim.__file__).parent.glob("*.py")):
        if path.stem == "twoport":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "terminate" and node.args
                    and isinstance(node.args[0], ast.Call)
                    and isinstance(node.args[0].func, ast.Name)
                    and node.args[0].func.id == "chain_abcd"):
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_impedances_go_through_input_impedance():
    assert hand_built_impedances() == []


def abcd_callers():
    """'module.function' of every chain_abcd call outside twoport, by name or
    by attribute; '<module>' stands for a call outside any function."""
    found = set()
    for path in sorted(Path(qmemsim.__file__).parent.glob("*.py")):
        if path.stem == "twoport":
            continue

        def visit(node, scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = node.name
            if isinstance(node, ast.Call) and "chain_abcd" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                found.add(f"{path.stem}.{scope}")
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def test_abcd_matrices_only_where_a_chain_entry_is_needed():
    # every impedance is input_impedance's fold; only the OFF-state current
    # transfer needs a chain's a and c
    assert abcd_callers() == {"extract.off_state_residual_coupling"}


def hand_written_field_checks():
    """'module:line' of every `if` in a __post_init__ outside config whose
    test compares with a numeric literal, reads a field (self.<name>) and
    raises itself, plus every use of a private _require_finite:
    checks.require states each field rule once, NaN included.  config's
    settings classes word their messages as part of the file format."""
    found = []
    for path in sorted(Path(qmemsim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.stem}:{node.lineno}" for node in ast.walk(tree)
                  if "_require_finite" in (getattr(node, "id", None), getattr(node, "name", None))]
        if path.stem == "config":
            continue
        for fn in ast.walk(tree):
            if not (isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"):
                continue
            for node in ast.walk(fn):
                if not (isinstance(node, ast.If)
                        and any(isinstance(s, ast.Raise) for s in node.body)):
                    continue
                test = list(ast.walk(node.test))
                literal = any(isinstance(o, ast.Constant) and type(o.value) in (int, float)
                              for c in test if isinstance(c, ast.Compare)
                              for o in (c.left, *c.comparators))
                field = any(isinstance(n, ast.Attribute) and getattr(n.value, "id", None) == "self"
                            for n in test)
                if literal and field:
                    found.append(f"{path.stem}:{node.lineno}")
    return found


def test_value_objects_check_their_fields_through_require():
    assert hand_written_field_checks() == []


ROOT = Path(__file__).resolve().parents[1]


def unpassed_defaults(root=ROOT):
    """'function.parameter' of every defaulted parameter of a public
    module-level function in src/ that no call in src/, tests/, demos/ or
    bench/ passes, by keyword, by position, through *args or **kwargs, or
    through functools.partial: an option nothing sets is not an option."""
    defaults = {}  # function -> [(position or None for keyword-only, name)]
    for path in sorted((root / "src").rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                a = node.args
                positional = a.posonlyargs + a.args
                first = len(positional) - len(a.defaults)
                defaults[node.name] = (
                    [(i, p.arg) for i, p in enumerate(positional) if i >= first]
                    + [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                       if d is not None])
    passed = set()
    for path in sorted(p for d in ("src", "tests", "demos", "bench")
                       for p in (root / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            if getattr(func, "id", getattr(func, "attr", None)) == "partial" and args:
                func, args = args[0], args[1:]
            name = getattr(func, "id", getattr(func, "attr", None))
            spread = any(isinstance(a, ast.Starred) for a in args)
            keywords = {k.arg for k in node.keywords}
            for i, param in defaults.get(name, ()):
                if (param in keywords or None in keywords
                        or (i is not None and (i < len(args) or spread))):
                    passed.add(f"{name}.{param}")
    return sorted(f"{name}.{param}" for name, params in defaults.items()
                  for _, param in params if f"{name}.{param}" not in passed)


def test_every_default_is_passed_somewhere():
    assert unpassed_defaults() == []


def notch_pole_bypasses():
    """'module:line' in calibrate and modemap of every use of complex_zeros
    and every z0/2 (0.5 * x.z0 or x.z0 / 2) written out: the notch pole,
    the zero of 2Z + z0, is reached only through resonance.notch_roots."""
    found = []
    for stem in ("calibrate", "modemap"):
        path = Path(qmemsim.__file__).parent / f"{stem}.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if "complex_zeros" in (getattr(node, "id", None), getattr(node, "attr", None),
                                   getattr(node, "name", None)):
                found.append(f"{stem}:{node.lineno}")
            elif isinstance(node, ast.BinOp):
                pair = [node.left, node.right]
                z0 = any(getattr(o, "attr", None) == "z0" for o in pair)
                half = (isinstance(node.op, ast.Mult) and any(
                    getattr(o, "value", None) == 0.5 for o in pair)) or (
                    isinstance(node.op, ast.Div) and getattr(node.right, "value", None) == 2)
                if z0 and half:
                    found.append(f"{stem}:{node.lineno}")
    return found


def test_notch_poles_go_through_notch_roots():
    assert notch_pole_bypasses() == []


def fieldless_dataclasses(root=ROOT):
    """'module.Class' of every @dataclass in src/ that declares no field: a
    tag that a number (its limit value standing for the special case) or
    None could say instead."""
    found = []
    for path in sorted((root / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            decorators = [getattr(d, "func", d) for d in node.decorator_list]
            if ("dataclass" in [getattr(d, "id", getattr(d, "attr", None)) for d in decorators]
                    and not any(isinstance(s, ast.AnnAssign) for s in node.body)):
                found.append(f"{path.stem}.{node.name}")
    return found


def test_every_value_object_has_a_field():
    assert fieldless_dataclasses() == []


#: numpy's and the builtins' maxima, called as functions or as methods
MAXIMA = {"max", "amax", "nanmax", "argmax", "nanargmax"}


def _is_amplitude(node):
    """A coupler amplitude: a name or attribute `a`, or column 0 of a state array."""
    return ((isinstance(node, ast.Name) and node.id == "a")
            or (isinstance(node, ast.Attribute) and node.attr == "a")
            or (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple)
                and isinstance(node.slice.elts[-1], ast.Constant)
                and node.slice.elts[-1].value == 0))


def _holds_coupler_energy(node, names):
    """Whether node holds a coupler energy: an `e_a` attribute, abs(...) ** 2
    of a coupler amplitude, or a name in names."""
    for n in ast.walk(node):
        if ((isinstance(n, ast.Attribute) and n.attr == "e_a")
                or (isinstance(n, ast.Name) and n.id in names)
                or (isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow)
                    and isinstance(n.left, ast.Call)
                    and "abs" in (getattr(n.left.func, "id", None),
                                  getattr(n.left.func, "attr", None))
                    and any(_is_amplitude(m) for m in ast.walk(n.left)))):
            return True
    return False


def coupler_energy_maxima(source: str, module: str) -> set:
    """'module.function' of every function in source that takes a maximum
    (MAXIMA, as a call or a method) of a coupler energy, directly or through
    a name assigned one in that function."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, ast.FunctionDef):
            continue
        names = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and _holds_coupler_energy(node.value, names):
                names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            operands = [*node.args, *([func.value] if isinstance(func, ast.Attribute) else [])]
            if (getattr(func, "id", getattr(func, "attr", None)) in MAXIMA
                    and any(_holds_coupler_energy(o, names) for o in operands)):
                found.add(f"{module}.{fn.name}")
    return found


@pytest.mark.parametrize("body", [
    "return float(np.max(traj.e_a))",
    "return traj.e_a.max()",
    "return max(float(np.max(np.abs(states[:, 0]) ** 2)) for states in chunks)",
    "energy = np.abs(traj.a) ** 2\n    return energy[int(np.argmax(energy))]",
])
def test_coupler_energy_maxima_are_found(body):
    assert coupler_energy_maxima(f"def peak(traj, chunks):\n    {body}\n", "m") == {"m.peak"}


def test_coupler_peaks_come_from_one_helper():
    # every peak coupler energy is dynamics.coupler_peak's Hermite maximum:
    # no other function in src/ reads a maximum off the samples
    found = set()
    for path in sorted(Path(qmemsim.__file__).parent.glob("*.py")):
        found |= coupler_energy_maxima(path.read_text(encoding="utf-8"), path.stem)
    assert found == {"dynamics.coupler_peak"}


def _function(module: str, name: str) -> ast.FunctionDef:
    path = Path(qmemsim.__file__).with_name(f"{module}.py")
    return next(fn for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(fn, ast.FunctionDef) and fn.name == name)


def test_slopes_build_one_generator_for_every_step():
    # every step's coupling goes into one _generator call: no loop over the
    # couplings, or over anything else, rebuilds it
    fn = _function("dynamics", "coupler_slopes")
    calls = [node for node in ast.walk(fn) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "_generator"]
    loops = [node for node in ast.walk(fn)
             if isinstance(node, (ast.For, ast.While, ast.comprehension))]
    assert len(calls) == 1 and loops == []


#: the RfPulse methods that evaluate the drive
DRIVE_METHODS = {"envelope"}

#: the integration's private stages: the cut into pieces and the scan
INTEGRATION_STAGES = {"_pieces", "_scan_chunk"}


def named_calls(source: str, module: str, names) -> set:
    """('module.function', name) of every call in source of a function or
    method in names, by name or by attribute, by each function around it."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, ast.FunctionDef):
            found |= {(f"{module}.{fn.name}", name) for node in ast.walk(fn)
                      if isinstance(node, ast.Call)
                      for name in [getattr(node.func, "id", getattr(node.func, "attr", None))]
                      if name in names}
    return found


def package_calls(names) -> set:
    found = set()
    for path in sorted(Path(qmemsim.__file__).parent.glob("*.py")):
        found |= named_calls(path.read_text(encoding="utf-8"), path.stem, names)
    return found


def test_drive_evaluations_are_found():
    source = "def drive(rf, t):\n    return rf.envelope(t) + pulses.rf.envelope(t + 1)\n"
    assert named_calls(source, "m", DRIVE_METHODS) == {("m.drive", "envelope")}


def test_the_scan_and_the_slopes_share_one_drive():
    # the scan and the Hermite slopes read the drive through one method,
    # RfPulse.envelope, so they cannot take different sides of an RF edge
    assert package_calls(DRIVE_METHODS) == {("dynamics.evolve", "envelope"),
                                            ("dynamics.coupler_slopes", "envelope")}


def test_second_integration_drivers_are_found():
    source = ("def evolve(s, x):\n    _scan_chunk(x)\n    return _pieces(s)\n"
              "def peak(s):\n    return dynamics._pieces(s)\n")
    assert named_calls(source, "m", INTEGRATION_STAGES) == {
        ("m.evolve", "_scan_chunk"), ("m.evolve", "_pieces"), ("m.peak", "_pieces")}


def test_evolve_is_the_only_integration_driver():
    # every integration, an addressed cell's or an idle neighbour's, cuts
    # its span and scans it in one function
    assert package_calls(INTEGRATION_STAGES) == {("dynamics.evolve", "_pieces"),
                                                 ("dynamics.evolve", "_scan_chunk")}


#: numpy's set routines: under numpy 2 each may call np.unique, which imports
#: numpy.ma (about 13 ms and 1.3 MiB on a process's first call)
SET_ROUTINES = {"unique", "union1d", "setdiff1d", "intersect1d", "setxor1d", "isin", "in1d"}


def set_routine_uses(source: str, module: str) -> list:
    """'module:line' of every SET_ROUTINES name in source read off numpy
    (np.<name> or numpy.<name>) or imported from it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            hit = node.attr in SET_ROUTINES and getattr(node.value, "id", None) in ("np", "numpy")
        elif isinstance(node, ast.ImportFrom):
            hit = ((node.module or "").split(".")[0] == "numpy"
                   and any(alias.name in SET_ROUTINES for alias in node.names))
        else:
            continue
        if hit:
            found.append(f"{module}:{node.lineno}")
    return found


@pytest.mark.parametrize("source", [
    "grid = np.union1d(grid, w)",
    "new = numpy.setdiff1d(new, grid)",
    "keep = np.isin(a, b)",
    "from numpy import sort, unique",
])
def test_set_routine_uses_are_found(source):
    assert set_routine_uses(source, "m") == ["m:1"]
    assert set_routine_uses("i = np.searchsorted(np.sort(a), b)", "m") == []


def test_src_calls_no_numpy_set_routine():
    # sort and searchsorted do the same work without loading numpy.ma
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        found += set_routine_uses(path.read_text(encoding="utf-8"), path.stem)
    assert found == []


def test_trace_fit_calls_are_found():
    source = ("def report(f, s):\n    return find_resonances(f, s)\n"
              "def other(f, s):\n    return resonance.find_resonances(f, s, 0.1)\n")
    assert named_calls(source, "m", {"find_resonances"}) == {
        ("m.report", "find_resonances"), ("m.other", "find_resonances")}


def test_no_command_fits_a_trace():
    # every dip a command reports, a single cell's or the array's, takes its
    # resonance from a cell branch's roots; find_resonances is the library's
    # fit for a measured trace
    assert package_calls({"find_resonances"}) == set()


def names_used(source: str, names) -> set:
    """Every name in names that source imports, reads or calls, bare or as
    an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        for name in (getattr(node, "id", None), getattr(node, "attr", None),
                     *(a.name for a in getattr(node, "names", ()))):
            if name in names:
                found.add(name)
    return found


#: the scalar read-out of one root pair
PEAK_OBJECTS = {"peak_from_roots", "ResonancePeak"}


def test_peak_object_uses_are_found():
    source = ("from .resonance import peak_from_roots\n"
              "def read(fz, fp):\n    return resonance.ResonancePeak(fz.real, 3.0)\n")
    assert names_used(source, PEAK_OBJECTS) == PEAK_OBJECTS


def test_mode_map_reads_roots_as_columns():
    # every row of a mode map is read from notch_readout's columns at once,
    # never one scalar peak per seed
    source = (Path(qmemsim.__file__).parent / "modemap.py").read_text(encoding="utf-8")
    assert names_used(source, PEAK_OBJECTS) == set()
    assert names_used(source, {"notch_readout"}) == {"notch_readout"}


def readout_formulas(source: str, module: str) -> list:
    """'module.function: kind' of every Q = Re f / (2 Im f) ("q": a division
    of a .real by an expression holding a .imag) and every notch depth
    -dB(Q_l/Q_i) ("depth": a db() call of a quotient) in source, by the
    innermost function around it."""
    found = []

    def visit(node, where):
        if isinstance(node, ast.FunctionDef):
            where = f"{module}.{node.name}"
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                and getattr(node.left, "attr", None) == "real"
                and any(getattr(n, "attr", None) == "imag" for n in ast.walk(node.right))):
            found.append(f"{where}: q")
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "db"
                and any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Div)
                        for a in node.args for n in ast.walk(a))):
            found.append(f"{where}: depth")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), module)
    return sorted(found)


def test_readout_formulas_are_found():
    source = ("def peak(fz, fp):\n    ql = fp.real / (2.0 * fp.imag)\n"
              "    qi = fz.real / (2 * fz.imag)\n    return -db(ql / qi)\n"
              "x = -db(np.where(a, 0.0, ql / qi))\n")
    assert readout_formulas(source, "m") == ["m.peak: depth", "m.peak: q", "m.peak: q",
                                             "m: depth"]
    assert readout_formulas("f0 = f_c * (1.0 - a.imag / b.imag)\ny = db(s21)\n", "m") == []


def test_the_readout_formula_is_written_once():
    # Q_l and Q_i of each root and the notch depth, in one function of src/
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        found += readout_formulas(path.read_text(encoding="utf-8"), path.stem)
    assert found == ["resonance.notch_readout: depth", "resonance.notch_readout: q",
                     "resonance.notch_readout: q"]
