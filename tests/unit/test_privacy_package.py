"""``repro.privacy`` is analysis and accounting only: it draws nothing.

Every sampler releases through the pipeline from the mechanisms
package.  A float64 generator in the analysis layer would be a second,
unaudited sampling path, so no module here may reach the generator
seam (``repro.rng.urng``, ``audited_generator``) or ``np.random``.
"""

import ast
import pathlib

import pytest

import repro.privacy

PRIVACY_DIR = pathlib.Path(repro.privacy.__file__).parent
MODULES = sorted(PRIVACY_DIR.glob("*.py"))


def _dotted(node):
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _violations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            # ``from ..rng.urng import x`` / ``from ..rng import urng``.
            module = node.module or ""
            names = {alias.name for alias in node.names}
            if module.endswith("rng.urng") or (
                module.endswith("rng") and "urng" in names
            ):
                yield node.lineno, f"imports {module}"
            if "audited_generator" in names:
                yield node.lineno, "imports audited_generator"
            if module == "numpy" and "random" in names:
                yield node.lineno, "imports numpy.random"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.endswith("rng.urng") or alias.name == "numpy.random":
                    yield node.lineno, f"imports {alias.name}"
        elif isinstance(node, ast.Name) and node.id == "audited_generator":
            yield node.lineno, "names audited_generator"
        elif isinstance(node, ast.Attribute) and node.attr == "audited_generator":
            yield node.lineno, "names audited_generator"
        elif isinstance(node, ast.Call):
            name = _dotted(node.func) or ""
            if name.startswith(("np.random.", "numpy.random.")):
                yield node.lineno, f"calls {name}"


def test_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "loss.py", "verify.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_randomness_in_privacy_package(path):
    found = list(_violations(ast.parse(path.read_text(), filename=str(path))))
    assert not found, f"{path.name}: " + "; ".join(
        f"line {line} {what}" for line, what in found
    )


@pytest.mark.parametrize(
    "source",
    [
        "from ..rng.urng import audited_generator",
        "from ..rng import urng",
        "import repro.rng.urng",
        "rng = np.random.default_rng(0)",
        "x = numpy.random.random(3)",
        "g = rng_mod.audited_generator()",
    ],
)
def test_walk_flags_each_form(source):
    assert list(_violations(ast.parse(source)))
