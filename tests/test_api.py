"""Export consistency: each module's ``__all__`` and the package's re-exports
agree, and every public name has a caller outside its module or a stated reason.
No module reads the environment: every setting is an option or a config key.
No module but ``formats`` reads the slice size: every sliced kernel walks ``_slices``."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fpq

MODULES = ("formats", "galt", "hadamard", "hwemu", "quantize", "synth", "tensorfile")
# The modules whose public names the package re-exports: synth would load scipy.
REEXPORTED = tuple(m for m in MODULES if m != "synth")
SRC = Path(fpq.__file__).parent
BENCH = SRC.parents[1] / "bench"

# Public names that no other fpq module and nothing in bench/ references,
# each with why it stays public.  A name that gains a caller leaves this
# tuple; a new public name without one must be added with its reason.
API_ONLY = (
    ("formats.grid_values", "the decodable values of a grid, for inspecting a format"),
    ("galt.adamw_step", "one AdamW update of lambda, the step optimize_galt repeats"),
    ("galt.fuse_lambda", "folds lambda into the AdaLN affine, the deployment half of GALT"),
    ("hadamard.hadamard_matrix", "the Sylvester block whose normalized copies apply_ght applies"),
    ("hwemu.LutTables", "the table set build_tables returns and every LUT quantizer, emu_dot and emu_gemm read"),
    ("hwemu.emu_dot", "the multiplier-table walk of one unit pair, the reference verify_gemm_rows holds emu_gemm to"),
    ("quantize.IntFormat", "the format of rtn_int_quantize results"),
    ("quantize.rtn_int_quantize", "the INT round-to-nearest baseline the FP formats are compared with"),
    ("quantize.afpq_quantize", "asymmetric FP quantization, the one-grid special case of DFQ"),
    ("synth.gelu", "the activation function gelu_activations applies"),
    ("synth.GELU_PRE_MEAN", "mean of the pre-activations gelu_activations draws"),
    ("synth.GELU_PRE_STD", "standard deviation of the pre-activations gelu_activations draws"),
    ("tensorfile.TensorData", "the (data, kind) record read_tensor returns"),
    ("tensorfile.KINDS", "the payload kinds an FPQT file can hold"),
)


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_exists(module) -> None:
    mod = importlib.import_module(f"fpq.{module}")
    assert mod.__all__
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_every_module_with_all_is_listed() -> None:
    files = Path(fpq.__file__).parent.glob("*.py")
    assert {f.stem for f in files if "__all__" in f.read_text()} == set(MODULES)


def test_reexports_are_in_their_modules_all() -> None:
    # Every public name of a re-exported module is the same object on fpq, from
    # one star import per module, in this order: quantize comes after the
    # modules that load it, so fpq.quantize is the function, not the module.
    modules = {m: importlib.import_module(f"fpq.{m}") for m in REEXPORTED}
    wrong = [f"{m}.{name}" for m, mod in modules.items() for name in mod.__all__
             if getattr(fpq, name, None) is not getattr(mod, name)]
    assert wrong == []
    tree = ast.parse(Path(fpq.__file__).read_text())
    imports = [(node.module, [alias.name for alias in node.names])
               for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports == [(m, ["*"]) for m in REEXPORTED]


def _references(path: Path) -> set[tuple[str, str]]:
    """(qualifier, name) for every ``from <...>.qualifier import name`` and
    every ``<...>.qualifier.name`` attribute in one source file."""
    refs = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module:
            refs |= {(node.module.rpartition(".")[2], alias.name) for alias in node.names}
        elif isinstance(node, ast.Attribute):
            value = node.value
            qualifier = getattr(value, "id", None) or getattr(value, "attr", None)
            if qualifier:
                refs.add((qualifier, node.attr))
    return refs


def test_every_public_name_has_a_caller_or_a_reason() -> None:
    assert all(reason and "\n" not in reason for _, reason in API_ONLY)
    bench = set().union(*(_references(p) for p in BENCH.glob("*.py")))
    unreferenced = []
    for module in MODULES:
        others = set().union(bench, *(_references(p) for p in SRC.glob("*.py")
                                      if p.stem not in (module, "__init__")))
        unreferenced += [f"{module}.{name}" for name in importlib.import_module(f"fpq.{module}").__all__
                         if (module, name) not in others and ("fpq", name) not in others]
    assert sorted(unreferenced) == sorted(name for name, _ in API_ONLY)


def test_no_module_reads_the_environment() -> None:
    reads = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if (isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "os"
                 and node.attr in ("environ", "getenv"))
             or (isinstance(node, ast.ImportFrom) and node.module == "os"
                 and {a.name for a in node.names} & {"environ", "getenv"})]
    assert reads == []


def test_only_formats_reads_the_slice_size() -> None:
    # formats._slices is the one slice walk: a module reading _BLOCK steps by hand.
    reads = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py")) if path.name != "formats.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if (isinstance(node, ast.Name) and node.id == "_BLOCK")
             or (isinstance(node, ast.Attribute) and node.attr == "_BLOCK")
             or (isinstance(node, ast.ImportFrom) and "_BLOCK" in {a.name for a in node.names})]
    assert reads == []


def test_import_leaves_scipy_sparse_unloaded() -> None:
    # Only emu_gemm's CSR product of a rare code plane needs scipy.sparse,
    # and it costs 16 ms or more to import: the package and the CLI must not pay it.
    # Nor any other scipy module: synth's erf is loaded only with synth.
    code = ("import sys, fpq, fpq.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy' or m == 'fpq.synth'))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stdout.strip()) == (0, "[]"), done.stderr
