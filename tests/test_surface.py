import ast
import pathlib

import dropflow

# Every defaulted parameter of the package, nested functions and methods
# included.  An option that no caller outside the tests sets is removed;
# a change that adds one raises the pin and says why in CHANGES.md.
DEFAULTED_PARAMETERS = 22


def _defaulted_parameters():
    """module.function.parameter of each parameter with a default."""
    names = []
    for path in sorted(pathlib.Path(dropflow.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            params = positional[len(positional) - len(args.defaults):]
            params += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            name = getattr(node, "name", "<lambda>")
            names += [f"{path.stem}.{name}.{a.arg}" for a in params]
    return names


def test_defaulted_parameters_are_pinned():
    names = _defaulted_parameters()
    assert len(names) == DEFAULTED_PARAMETERS, "\n".join(names)
