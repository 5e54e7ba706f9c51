"""The four routes stay independent: which package modules each may import.

Read from the import statements of each module's source, so a violation
fails here even where no test exercises the import.  The same reader
pins where `sde` draws its noise and builds its step, so that one kernel
runs every chain on one Euler-Maruyama step, always through the slice
runner, that `simulate` solves
each angle's spectral reference once, where `criterion` computes its
gains, so that the point and the grid share one arithmetic with no type
fork, that `spectra` solves a linear system in one place only, once per
spectral block, and builds its fixed mode-exchange indices once, that
both routes read the noise levels through their one check, that every
route refuses an oversized plan or a non-finite value through the one
rule in `errors`, that one builder forms the drift and its couplings,
that the CLI reads a config's
parameter block in one place, that no module of the package, the tests
or the demos imports a name it never uses, that no private name of the
package is left without a reader, and that no text cites a private
name the package no longer defines.
"""

import ast
import re
from pathlib import Path

import pytest

import optoepr

PACKAGE = Path(optoepr.__file__).parent
TESTS = Path(__file__).parent
DEMOS = TESTS.parent / "demos"

FORBIDDEN = {
    "model": {"criterion", "spectra", "sde", "cli"},
    "criterion": {"spectra", "sde", "cli"},
    "spectra": {"criterion", "sde", "cli"},
    "sde": {"criterion", "cli"},
}


def package_imports(module: str) -> set[str]:
    """Sibling modules that ``optoepr.<module>`` imports, at any depth."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["optoepr" if node.level else "", node.module]))
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found.update(name.split(".")[1] for name in names
                     if name.startswith("optoepr."))
    return found


def test_reader_sees_known_imports():
    # The rules below are only as good as the reader.
    assert {"errors", "spectra"} <= package_imports("sde")
    assert {"criterion", "model", "sde", "spectra"} <= package_imports("cli")


@pytest.mark.parametrize("module", sorted(FORBIDDEN))
def test_route_layers(module):
    assert not package_imports(module) & FORBIDDEN[module]


def callers(module: str, name: str) -> list[str]:
    """The top-level function or class of ``optoepr.<module>`` around each
    call of ``name``, once per call; "<module>" for a call outside them.
    ``name`` is a bare name or a dotted attribute path, as written at the
    call (``"_step"``, ``"np.linalg.solve"``)."""
    found = []
    for top in ast.parse((PACKAGE / f"{module}.py").read_text()).body:
        found += [getattr(top, "name", "<module>") for node in ast.walk(top)
                  if isinstance(node, ast.Call) and ast.unparse(node.func) == name]
    return found


def test_callers_reads_attribute_calls():
    # The pins below are only as good as the reader.
    assert callers("spectra", "np.linalg.eigvals") == [
        "require_stable", "realize_dimensionless"]


def test_one_noise_loop_in_sde():
    # Every chain runs through the kernel's block loop; the only other draw
    # is the window sampler's 6 burn-in normals per trajectory.
    assert sorted(callers("sde", "_draw_block")) == [
        "_propagate", "sample_inference_variance"]


def test_every_chain_runs_through_the_slice_runner():
    # Each `_propagate` call sits in a slice body, a function nested in its
    # caller that the caller hands to `_each_slice`, so every chain's draws
    # and products run slice by slice.  No other module runs the kernel.
    in_bodies = []
    for top in ast.parse((PACKAGE / "sde.py").read_text()).body:
        bodies = {ast.unparse(node.args[-1]) for node in ast.walk(top)
                  if isinstance(node, ast.Call) and ast.unparse(node.func) == "_each_slice"}
        in_bodies += [top.name for body in ast.walk(top)
                      if isinstance(body, ast.FunctionDef) and body is not top
                      and body.name in bodies
                      for node in ast.walk(body)
                      if isinstance(node, ast.Call) and ast.unparse(node.func) == "_propagate"]
    assert sorted(in_bodies) == sorted(callers("sde", "_propagate")) == [
        "estimate_inference_variance", "integrate", "sample_inference_variance"]
    assert [path.name for path in PACKAGE.glob("*.py")
            if path.name != "sde.py" and "_propagate" in path.read_text()] == []


def test_one_euler_step_in_sde():
    # The step is built in one place; the estimators weight its outputs
    # into the window sum through one other.
    assert sorted(callers("sde", "_step")) == ["_window_step", "integrate"]
    assert sorted(callers("sde", "_window_step")) == [
        "estimate_inference_variance", "sample_inference_variance"]


def test_one_spectral_solve_per_angle_in_simulate():
    # The oracle's criterion solves each angle's spectral reference once and
    # returns its variance with the estimates; the CLI prints that.
    assert callers("cli", "spectra.inferred_variance_at") == []
    assert callers("sde", "spectra.inferred_variance_at") == ["epr_product_estimate"]


def test_one_closed_form_in_criterion():
    # The point and the grid evaluate the gains, hence the variances and
    # their product, through one helper.
    assert sorted(callers("criterion", "_closed_form")) == ["epr_lhs", "scan"]


def test_one_closed_form_path_in_criterion():
    # Floats and arrays take the same numpy operations: no type fork, and
    # the one floating-point error state is the closed form's own.
    assert callers("criterion", "isinstance") == []
    assert callers("criterion", "np.errstate") == ["_closed_form"]


def test_one_solve_in_spectra():
    # The adjoint solve of the response is the only linear solve of the
    # spectral route; every spectrum and inference goes through it.
    assert callers("spectra", "np.linalg.solve") == ["output_response"]


def test_one_solve_per_spectral_block():
    # A spectral block solves the sum block once and reads the noise
    # levels once; `levels` hands the whole frequency array to the force
    # PSD in one call, not one call per frequency.
    assert callers("spectra", "output_response").count("output_spectral_matrix") == 1
    assert callers("spectra", "noise.levels").count("output_spectral_matrix") == 1
    assert callers("spectra", "self.brownian") == ["NoisePsd"]
    noise_class = next(top for top in ast.parse((PACKAGE / "spectra.py").read_text()).body
                       if getattr(top, "name", None) == "NoisePsd")
    assert not [node for loop in ast.walk(noise_class)
                if isinstance(loop, (ast.For, ast.While, ast.GeneratorExp, ast.ListComp,
                                     ast.SetComp, ast.DictComp))
                for node in ast.walk(loop)
                if isinstance(node, ast.Call) and ast.unparse(node.func) == "self.brownian"]


def test_fixed_basis_maps_built_once():
    # The exchange of the modes and the lossless field block are module
    # constants and the sum block is read off with slices, so no map or
    # index is built per spectral call.
    assert callers("spectra", "np.ix_") == ["<module>"] * 4
    for name in ("np.kron", "np.eye", "np.ix_", "np.block", "np.array"):
        assert "_sum_block" not in callers("spectra", name)


def test_one_model_builder():
    # The drift, with its couplings, is built in one place; the realization
    # solves its one steady state outside the gamma_m loop, and no module
    # keeps a separate couplings layer.
    assert sorted(callers("spectra", "state_space_matrices")) == [
        "build_state_space", "realize_dimensionless"]
    assert callers("spectra", "steady_state") == ["realize_dimensionless"]
    realize = next(top for top in ast.parse((PACKAGE / "spectra.py").read_text()).body
                   if getattr(top, "name", None) == "realize_dimensionless")
    assert not [node for loop in ast.walk(realize)
                if isinstance(loop, (ast.For, ast.While))
                for node in ast.walk(loop)
                if isinstance(node, ast.Call) and ast.unparse(node.func) == "steady_state"]
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                assert node.name.lower() != "couplings", path.name
            elif isinstance(node, ast.ImportFrom):
                assert "couplings" not in [a.name.lower() for a in node.names], path.name


def test_one_noise_rule():
    # Both routes read the noise levels only through the one checked
    # method, and no tolerance is left to forgive a bad output matrix.
    assert callers("sde", "noise.levels") == ["_step"]
    assert callers("spectra", "noise.levels") == ["output_spectral_matrix"]
    assert not [path.name for path in PACKAGE.glob("*.py")
                if "PSD_TOL" in path.read_text()]


def test_one_refusal_layer():
    # The size budget and the finite-value message are defined in `errors`
    # alone, and `check_budget` is the one comparison with the budget.
    modules = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert [(module, name) for module, source in modules.items()
            for name in top_level_names(source) if name.endswith("BUDGET_BYTES")] == [
        ("errors", "BUDGET_BYTES")]
    assert [module for module, source in modules.items()
            if "must be finite, got" in source] == ["errors"]
    assert [(module, getattr(top, "name", "<module>"))
            for module, source in modules.items() for top in ast.parse(source).body
            for node in ast.walk(top) if isinstance(node, ast.Compare)
            and "BUDGET_BYTES" in ast.unparse(node)] == [("errors", "check_budget")]


def test_one_config_reader_in_cli():
    # Every command reads its config's parameter block through one reader,
    # and builds the model and its noise in one place; the module is no
    # entry point of its own (``python -m optoepr`` runs ``__main__``).
    assert callers("cli", "parse_config") == ["_read_config"]
    assert callers("cli", "physical_from_config") == ["_read_config"]
    assert callers("cli", "spectra.noise_psd") == ["_load_model"]
    assert not [node for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text()))
                if isinstance(node, ast.If) and "__name__" in ast.unparse(node.test)]


def unused_imports(source: str) -> set[str]:
    """Names that a module imports and never reads; a name re-exported
    through ``__all__`` counts as read."""
    imported, read = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return imported - read


def test_unused_import_reader():
    # The check below is only as good as the reader.
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\nimport sys\n"
              "from .x import a, b as c, d\n"
              "__all__ = ['d']\n"
              "np.zeros(a, sys.maxsize)\n")
    assert unused_imports(source) == {"os", "c"}


@pytest.mark.parametrize("path", sorted([*PACKAGE.glob("*.py"), *TESTS.glob("*.py"),
                                         *DEMOS.glob("*.py")]),
                         ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_imports(path):
    assert not unused_imports(path.read_text())


def top_level_names(source: str) -> set[str]:
    """Functions, classes and constants that a module defines at its top level."""
    defined = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(name.id for target in targets for name in ast.walk(target)
                           if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store))
    return defined


def unread_private_names(source: str) -> set[str]:
    """Private functions, classes and constants that a module defines at
    its top level and never reads; dunder names are not private."""
    read = {node.id for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return {name for name in top_level_names(source) - read
            if name.startswith("_") and not name.startswith("__")}


def test_unread_private_name_reader():
    # The check below is only as good as the reader.
    source = ("_A, _B = 1, 2\n_C: int = 3\n__all__ = ['f']\n"
              "def _f():\n    return _A\n"
              "class _K:\n    pass\n"
              "def f(x):\n    _local = _f()\n    return x\n")
    assert unread_private_names(source) == {"_B", "_C", "_K"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unread_private_names(path):
    assert not unread_private_names(path.read_text())


@pytest.mark.parametrize("path", sorted([*PACKAGE.glob("*.py"), TESTS.parent / "README.md"]),
                         ids=lambda path: (f"{path.parent.name}/{path.name}"
                                           if path.parent == PACKAGE else path.name))
def test_no_stale_private_names(path):
    # A private name that a docstring, comment or the README cites in
    # backticks is a top-level definition of the package, so no text is
    # left citing a helper that is gone.
    defined = set().union(*(top_level_names(module.read_text())
                            for module in PACKAGE.glob("*.py")))
    assert not set(re.findall(r"`(_\w+)`", path.read_text())) - defined
