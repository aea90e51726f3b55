"""Count the lines and the settable values of each module of `src/zkmech`,
in the working tree and at a git revision.

    python scripts/src_lines.py [REVISION]

REVISION defaults to HEAD.  For each module it prints the total lines, as
`wc -l` counts them, the code lines: those that hold a token other than a
comment, with docstrings (a string that is the first statement of a
module, class or function, found from the syntax tree) left out, and the
settable values: the parameters with a default of each public function
and of each public method of a public class, and the init fields of each
public dataclass, read from the syntax tree.  Blank lines hold no token.
A name is public unless it starts with one underscore.  The last row sums
the modules.  It exits 2 when git cannot read the revision.
"""

from __future__ import annotations

import ast
import io
import os
import subprocess
import sys
import tokenize

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
PACKAGE = "src/zkmech"
NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(source: str) -> tuple[int, int, int]:
    """(total lines, code lines, settable values) of one module's source."""
    tree = ast.parse(source)
    skipped = docstring_lines(tree)
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE and tok.start[0] not in skipped:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code), len(settable_values(tree))


def public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def defaulted(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    """The parameters of `fn` that have a default."""
    args = fn.args
    positional = args.posonlyargs + args.args
    with_default = positional[len(positional) - len(args.defaults) :]
    keyword = [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return [a.arg for a in with_default + keyword]


def init_false(call: ast.expr | None) -> bool:
    """Whether `call` is a call, such as `dataclass(...)` or `field(...)`,
    given `init=False`."""
    return isinstance(call, ast.Call) and any(
        k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
        for k in call.keywords
    )


def is_dataclass(decorator: ast.expr) -> bool:
    func = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return name == "dataclass" and not init_false(decorator)


def settable_values(tree: ast.Module) -> list[str]:
    """Each settable value of a module, as `function(parameter)`,
    `Class.method(parameter)` or `Class.field`."""
    values = []
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions) and public(node.name):
            values += [f"{node.name}({arg})" for arg in defaulted(node)]
        if not (isinstance(node, ast.ClassDef) and public(node.name)):
            continue
        for item in node.body:
            if isinstance(item, functions) and public(item.name):
                values += [f"{node.name}.{item.name}({arg})" for arg in defaulted(item)]
        if any(map(is_dataclass, node.decorator_list)):
            values += [
                f"{node.name}.{item.target.id}"
                for item in node.body
                if isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
                and not init_false(item.value)
            ]
    return values


def tree_sources() -> dict[str, str]:
    folder = os.path.join(REPO, PACKAGE)
    return {
        name[:-3]: open(os.path.join(folder, name), encoding="utf-8").read()
        for name in sorted(os.listdir(folder))
        if name.endswith(".py")
    }


def revision_sources(revision: str) -> dict[str, str] | None:
    def git(*args) -> str | None:
        out = subprocess.run(["git", "-C", REPO, *args], capture_output=True, text=True)
        return out.stdout if out.returncode == 0 else None

    names = git("ls-tree", "--name-only", f"{revision}:{PACKAGE}")
    if names is None:
        return None
    return {
        name[:-3]: git("show", f"{revision}:{PACKAGE}/{name}")
        for name in names.split()
        if name.endswith(".py")
    }


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__, file=sys.stderr)
        return 2
    revision = argv[0] if argv else "HEAD"
    old = revision_sources(revision)
    if old is None:
        print(f"git cannot read {PACKAGE} at {revision}", file=sys.stderr)
        return 2
    new = tree_sources()
    rows = []
    for module in sorted(old.keys() | new.keys()):
        before = counts(old[module]) if module in old else (0, 0, 0)
        after = counts(new[module]) if module in new else (0, 0, 0)
        rows.append((module, *before, *after))
    rows.append(("total", *(sum(col) for col in list(zip(*rows))[1:])))
    head = ("module", revision[:12], "code", "set", "tree", "code", "set", "diff", "code", "set")
    print("{:14} {:>12} {:>6} {:>4}  {:>6} {:>6} {:>4}  {:>6} {:>6} {:>4}".format(*head))
    for module, total0, code0, set0, total1, code1, set1 in rows:
        print(
            f"{module:14} {total0:12} {code0:6} {set0:4}  {total1:6} {code1:6} {set1:4}"
            f"  {total1 - total0:+6} {code1 - code0:+6} {set1 - set0:+4}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
