"""The README's library tour runs, and prints the values its comments state."""

import ast
import math
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_states_its_values():
    block = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    namespace, shown = {}, []
    for node in ast.parse(block).body:  # each statement once; keep each expression's value
        if isinstance(node, ast.Expr):
            shown.append(eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    symmetric, asymmetric, v_lr, group_velocity = shown
    assert abs(symmetric - 1.0) <= 1e-12
    assert abs(asymmetric) <= 1e-12
    assert abs(v_lr - 4.0 * math.e) <= 1e-12 and f"{v_lr:.4f}" == "10.8731"
    assert abs(group_velocity - 2.0) <= 1e-12
    assert abs(namespace["fit"].v_eff - 2.5203402272657) <= 1e-9
