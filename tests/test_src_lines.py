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
    assert load_script("src_lines").counts(source) == (10, 5)
