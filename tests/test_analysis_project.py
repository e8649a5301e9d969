"""Tests for the project layer: FileIndex extraction and ProjectContext."""

import ast

import pytest

from repro.analysis.module import ModuleContext
from repro.analysis.project import (
    ProjectContext,
    extract_file_index,
    find_project_root,
)


def _module(source: str, posix: str = "src/app/mod.py") -> ModuleContext:
    return ModuleContext(
        path=posix,
        posix_path=posix,
        tree=ast.parse(source),
        source_lines=tuple(source.splitlines()),
    )


class TestExtraction:
    def test_functions_and_calls(self):
        index = extract_file_index(
            _module(
                "def helper(x):\n"
                "    return x + 1\n"
                "\n"
                "async def handler(x):\n"
                "    return helper(x)\n"
            )
        )
        names = {f.qualname: f for f in index.functions}
        assert set(names) == {"helper", "handler"}
        assert not names["helper"].is_async
        assert names["handler"].is_async
        assert [c.name for c in names["handler"].calls] == ["helper"]

    def test_blocking_sites_detected(self):
        index = extract_file_index(
            _module(
                "import time, os\n"
                "def slow(path):\n"
                "    time.sleep(1)\n"
                "    with open(path) as fh:\n"
                "        fh.read()\n"
                "    os.replace(path, path)\n"
            )
        )
        (slow,) = index.functions
        blocked = {site.name for site in slow.blocking}
        assert blocked == {"time.sleep", "open", "os.replace"}
        notes = {site.name: site.note for site in slow.blocking}
        assert "stalls the thread" in notes["time.sleep"]

    def test_pathlib_method_tails_block(self):
        index = extract_file_index(
            _module("def dump(p, s):\n    p.write_text(s)\n")
        )
        (dump,) = index.functions
        assert [s.name for s in dump.blocking] == ["p.write_text"]

    def test_methods_get_qualified_names(self):
        index = extract_file_index(
            _module(
                "class Server:\n"
                "    async def start(self):\n"
                "        self.warm_load()\n"
                "    def warm_load(self):\n"
                "        pass\n"
            )
        )
        quals = {f.qualname for f in index.functions}
        assert quals == {"Server.start", "Server.warm_load"}
        start = next(f for f in index.functions if f.name == "start")
        assert [c.name for c in start.calls] == ["self.warm_load"]

    def test_nested_defs_index_separately(self):
        index = extract_file_index(
            _module(
                "def outer():\n"
                "    def inner():\n"
                "        open('x')\n"
                "    return inner\n"
            )
        )
        quals = {f.qualname: f for f in index.functions}
        assert set(quals) == {"outer", "outer.inner"}
        # the blocking call belongs to inner, not outer
        assert not quals["outer"].blocking
        assert [s.name for s in quals["outer.inner"].blocking] == ["open"]

    def test_metric_sites_literal_and_fstring(self):
        index = extract_file_index(
            _module(
                "def record(reg, op):\n"
                "    reg.inc('serve.requests')\n"
                "    reg.observe(f'serve.op.{op}', 1)\n"
            )
        )
        patterns = {m.pattern for m in index.metric_sites}
        assert patterns == {"serve.requests", "serve.op.*"}

    def test_metric_sites_conditional_expression(self):
        index = extract_file_index(
            _module(
                "def record(reg, replaced):\n"
                "    reg.inc('a.updated' if replaced else 'a.registered')\n"
            )
        )
        patterns = {m.pattern for m in index.metric_sites}
        assert patterns == {"a.updated", "a.registered"}

    def test_non_registry_receivers_are_not_metric_sites(self):
        index = extract_file_index(
            _module("def f(counter):\n    counter.inc('not.a.metric')\n")
        )
        assert index.metric_sites == ()

    def test_import_aliases_recorded(self):
        index = extract_file_index(
            _module(
                "from app.serve.io import flush\n"
                "from app.serve.io import drain as d\n"
            )
        )
        assert ("flush", "app.serve.io:flush") in index.imports
        assert ("d", "app.serve.io:drain") in index.imports


class TestProjectContext:
    def _context(self) -> ProjectContext:
        indexes = {}
        for posix, source in {
            "src/app/serve/server.py": (
                "class S:\n    async def go(self):\n        pass\n"
            ),
            "src/app/serve/io.py": "def flush():\n    open('x')\n",
            "src/app/core.py": "def solve():\n    pass\n",
        }.items():
            indexes[posix] = extract_file_index(_module(source, posix))
        return ProjectContext(root=None, indexes=indexes)

    def test_files_under_matches_segments_only(self):
        project = self._context()
        under = [i.posix_path for i in project.files_under("serve")]
        assert under == ["src/app/serve/io.py", "src/app/serve/server.py"]
        # fragment must be a whole segment, not a substring
        assert project.files_under("serv") == []

    def test_find_file_requires_unique_suffix(self):
        project = self._context()
        found = project.find_file("app/serve/io.py")
        assert found is not None and found.posix_path == "src/app/serve/io.py"
        assert project.find_file("nope.py") is None
        # an ambiguous suffix resolves to nothing rather than guessing
        assert project.find_file(".py") is None

    def test_function_table_has_bare_and_qualified_names(self):
        table = self._context().function_table()
        server = table["src/app/serve/server.py"]
        assert {info.qualname for info in server["go"]} == {"S.go"}
        assert {info.qualname for info in server["S.go"]} == {"S.go"}

    def test_module_for_resolves_dotted_names(self):
        project = self._context()
        assert project.module_for("app.serve.io") == "src/app/serve/io.py"
        assert project.module_for("app.missing") is None

    def test_doc_lines_without_root(self):
        assert self._context().doc_lines("docs/ANYTHING.md") is None

    def test_doc_lines_with_root(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "NOTES.md").write_text("# hi\nline two\n")
        project = ProjectContext(root=tmp_path, indexes={})
        assert project.doc_lines("docs/NOTES.md") == ("# hi", "line two")
        assert project.doc_lines("docs/MISSING.md") is None


class TestFindProjectRoot:
    def test_finds_nearest_pyproject(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("")
        nested = tmp_path / "src" / "pkg"
        nested.mkdir(parents=True)
        assert find_project_root([nested]) == tmp_path

    def test_none_without_marker(self, tmp_path):
        lonely = tmp_path / "code"
        lonely.mkdir()
        # no pyproject.toml anywhere up to the fs root of tmp under pytest
        root = find_project_root([lonely])
        assert root is None or (root / "pyproject.toml").is_file()


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
