from conftest import load_script


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    source = (
        '"""A module\n'
        'docstring."""\n'
        "\n"
        "# a comment\n"
        "def f(x):  # code with a comment\n"
        '    """One line."""\n'
        '    s = """a string\n'
        '    over two lines"""\n'
        "    return (x,\n"
        "            s)\n"
    )
    assert load_script("src_lines").counts(source) == (10, 5, 0)


def test_settable_values_are_public_defaults_and_dataclass_init_fields():
    source = (
        "from dataclasses import dataclass, field\n"
        "def f(a, b=1, *, c=2, d):\n"
        "    def inner(e=3):\n"
        "        pass\n"
        "def _private(a=1):\n"
        "    pass\n"
        "class C:\n"
        "    def __init__(self, a, b=None):\n"
        "        pass\n"
        "    def method(self, a=1, b=2):\n"
        "        pass\n"
        "    def _helper(self, a=1):\n"
        "        pass\n"
        "@dataclass(frozen=True)\n"
        "class D:\n"
        "    a: int\n"
        "    b: int = field(init=False)\n"
        "    c: int = 0\n"
        "    d = 1\n"
        "@dataclass(init=False)\n"
        "class E:\n"
        "    a: int\n"
        "@dataclass\n"
        "class _F:\n"
        "    a: int\n"
    )
    script = load_script("src_lines")
    assert script.settable_values(script.ast.parse(source)) == [
        "f(b)",
        "f(c)",
        "C.__init__(b)",
        "C.method(a)",
        "C.method(b)",
        "D.a",
        "D.c",
    ]
    assert script.counts(source)[2] == 7
