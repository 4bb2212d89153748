"""DPL002 — float operations inside the fixed-point sampling datapath.

Paper invariant (Section III-A4; Gazeau et al., "Preserving differential
privacy under finite-precision semantics"): the certified mechanisms are
*discrete* objects — integer URNG codes through an integer datapath onto
the ``Δ`` grid.  Uncontrolled float64 arithmetic inside that datapath
(transcendental calls, ``float`` casts, ``dtype=float`` materialization)
reintroduces exactly the finite-precision semantics the exact-PMF
analysis does not model, so the certification silently stops describing
the code that runs.

Scope: the sampling/privatization functions of ``mechanisms/`` and
``rng/`` modules — functions named ``sample*``, ``draw*``, ``privatize*``
or ``noise*`` (with or without a leading underscore) plus the inverse-CDF
datapath hooks (``magnitude_from_uniform``, ``inverse_half_cdf``,
``inverse_magnitude_cdf``, ``inverse_cdf``, ``_magnitudes``,
``_codes_from_uniform``).  Deliberate float models — the ideal reference
arms and exact-log hardware models — carry ``# dplint: allow[DPL002]``
annotations stating why the float is sound there.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from ..findings import Finding, Severity
from ..registry import FileContext, Rule, register

__all__ = ["FloatInFxpPath"]

_DATAPATH_NAME = re.compile(r"^_?(sample|draw|privatize|noise)")
_DATAPATH_HOOKS = frozenset(
    {
        "magnitude_from_uniform",
        "inverse_half_cdf",
        "inverse_magnitude_cdf",
        "inverse_cdf",
        "_magnitudes",
        "_codes_from_uniform",
    }
)
_TRANSCENDENTAL = frozenset(
    {
        "np.log", "np.log2", "np.log10", "np.log1p", "np.exp", "np.expm1",
        "np.sqrt", "np.sinh", "np.cosh", "np.tanh", "np.power",
        "numpy.log", "numpy.exp", "numpy.sqrt",
        "math.log", "math.log2", "math.log1p", "math.exp", "math.expm1",
        "math.sqrt", "math.sinh", "math.cosh", "math.pow",
    }
)
_FLOAT_DTYPES = frozenset({"float", "np.float64", "np.float32", "numpy.float64"})


def _is_float_dtype(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "float"
    dotted = Rule.dotted_name(node)
    return dotted in _FLOAT_DTYPES if dotted else False


@register
class FloatInFxpPath(Rule):
    rule_id = "DPL002"
    name = "float-in-fxp-path"
    severity = Severity.ERROR
    description = (
        "float arithmetic/casts inside a fixed-point sampling datapath "
        "(finite-precision hazard: the exact-PMF certification does not "
        "model float64 semantics)"
    )
    paper_ref = "Section III-A4; PAPERS.md: Gazeau et al. finite-precision"

    def _in_scope(self, ctx: FileContext) -> bool:
        return ctx.in_dir("mechanisms") or ctx.in_dir("rng")

    def _datapath_function(self, name: str) -> bool:
        return bool(_DATAPATH_NAME.match(name)) or name in _DATAPATH_HOOKS

    # ------------------------------------------------------------------
    def _violation(self, node: ast.AST) -> Optional[str]:
        if not isinstance(node, ast.Call):
            # dtype=float keywords are attached to Call nodes; everything
            # else this rule flags is a call too.
            return None
        dotted = self.dotted_name(node.func)
        if isinstance(node.func, ast.Name) and node.func.id == "float":
            return "float() cast"
        if dotted in _TRANSCENDENTAL:
            return f"transcendental float call {dotted}()"
        if isinstance(node.func, ast.Attribute) and node.func.attr == "to_float":
            return ".to_float() conversion"
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "astype"
            and node.args
            and _is_float_dtype(node.args[0])
        ):
            return ".astype(float) conversion"
        for kw in node.keywords:
            if kw.arg == "dtype" and _is_float_dtype(kw.value):
                return "dtype=float materialization"
        return None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not self._in_scope(ctx):
            return
        for func in self.functions(ctx.tree):
            if not self._datapath_function(func.name):
                continue
            for node in ast.walk(func):
                what = self._violation(node)
                if what:
                    yield ctx.finding(
                        self,
                        node,
                        f"{what} inside fixed-point datapath function "
                        f"{func.name!r}; keep the release datapath on "
                        "integer codes (or annotate a deliberate float "
                        "model with its justification)",
                    )
