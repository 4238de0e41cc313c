"""``yield sim.sleep(d)`` is the one way to pause under ``src/repro``.

A bare ``yield <expr>.timeout(<one positional argument>)`` statement is
a plain pause spelled the slow way; ``timeout`` stays only where the
event is raced (``any_of``), named or carries a value.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


def test_no_plain_pause_is_spelled_timeout():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Yield)):
                continue
            call = node.value.value
            if isinstance(call, ast.Call) \
                    and isinstance(call.func, ast.Attribute) \
                    and call.func.attr == "timeout" \
                    and len(call.args) == 1 and not call.keywords:
                offenders.append(
                    f"{path.relative_to(SRC.parent)}:{node.lineno}")
    assert not offenders, \
        "plain pauses must be `yield sim.sleep(d)`: " + ", ".join(offenders)
