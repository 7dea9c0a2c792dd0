"""Tests for the determinism/invariant lint pass (``repro.verify.lint``).

Each rule must fire on a minimal synthetic source, stay quiet on the
idiomatic alternative, and honor ``# noqa`` suppression; the shipped source
tree must lint clean.  The rule catalogue behind ``lint --explain`` is
pinned here to the rule registry and to docs/STATIC_ANALYSIS.md.
"""

from __future__ import annotations

import re
import textwrap
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.verify.catalogue import CATALOGUE, explain
from repro.verify.findings import RULES
from repro.verify.lint import check_source, lint_paths, main

REPO_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
DOC_PATH = REPO_SRC.parent.parent / "docs" / "STATIC_ANALYSIS.md"


def codes(source: str) -> list[str]:
    return [f.code for f in check_source(textwrap.dedent(source))]


class TestUnseededRandomness:
    def test_stdlib_random_import_flagged(self):
        assert "ABG101" in codes("import random\n")
        assert "ABG101" in codes("from random import shuffle\n")

    def test_stdlib_random_call_flagged(self):
        found = codes("import random\nx = random.random()\n")
        assert found.count("ABG101") >= 2  # the import and the call
        assert codes(
            """\
            import random

            def worker(x):
                return random.random()
            """
        ) == ["ABG101", "ABG101"]

    def test_numpy_global_state_flagged(self):
        assert "ABG101" in codes("import numpy as np\nnp.random.seed(3)\n")
        assert "ABG101" in codes("import numpy\nnumpy.random.rand(4)\n")
        assert "ABG101" in codes("from numpy.random import rand\n")
        assert codes("import numpy.random\nx = numpy.random.rand()\n") == ["ABG101"]
        assert codes(
            """\
            import numpy as np

            def worker(x):
                return np.random.rand()
            """
        ) == ["ABG101"]

    def test_seedless_default_rng_flagged(self):
        assert codes("import numpy as np\nrng = np.random.default_rng()\n") == ["ABG101"]
        assert codes("import numpy\nrng = numpy.random.default_rng()\n") == ["ABG101"]
        assert codes("import numpy.random\nrng = numpy.random.default_rng()\n") == ["ABG101"]
        assert codes("import numpy.random as npr\nrng = npr.default_rng()\n") == ["ABG101"]
        assert codes("from numpy import random as r\nrng = r.default_rng()\n") == ["ABG101"]
        assert codes(
            "from numpy.random import default_rng as mk\nrng = mk()\n"
        ) == ["ABG101"]
        # function-local imports, as worker functions and methods write them
        assert codes(
            """\
            def worker(x):
                import numpy as np
                rng = np.random.default_rng()
                return rng.random()

            class Noisy:
                def step(self, x):
                    from numpy.random import default_rng
                    return default_rng().random()
            """
        ) == ["ABG101", "ABG101"]

    def test_seeded_generator_allowed(self):
        assert codes("import numpy as np\nrng = np.random.default_rng(0)\n") == []
        assert codes("from numpy.random import Generator, default_rng\n") == []
        assert codes("import numpy as np\nx = rng.integers(0, 5)\n") == []
        assert codes(
            "from numpy.random import default_rng\nrng = default_rng([seed, key])\n"
        ) == []


class TestFloatEquality:
    def test_float_literal_comparison_flagged(self):
        assert "ABG102" in codes("if x == 1.0:\n    pass\n")
        assert "ABG102" in codes("ok = y != 0.5\n")
        assert "ABG102" in codes("if x == -1.0:\n    pass\n")

    def test_integer_and_ordering_comparisons_allowed(self):
        assert codes("if x == 1:\n    pass\n") == []
        assert codes("if x <= 1.0:\n    pass\n") == []
        assert codes("if math.isclose(x, 1.0):\n    pass\n") == []


class TestMutableDefaults:
    def test_literal_defaults_flagged(self):
        assert "ABG103" in codes("def f(xs=[]):\n    pass\n")
        assert "ABG103" in codes("def f(m={}):\n    pass\n")
        assert "ABG103" in codes("def f(*, s=set()):\n    pass\n")
        assert "ABG103" in codes("g = lambda xs=list(): xs\n")
        assert codes("def worker(x, acc=[]):\n    return x\n") == ["ABG103"]

    def test_dotted_constructor_defaults_flagged(self):
        assert codes(
            "import collections\ndef f(q=collections.deque()):\n    pass\n"
        ) == ["ABG103"]
        assert codes(
            "import collections\n"
            "def f(*, d=collections.defaultdict(list)):\n    pass\n"
        ) == ["ABG103"]
        assert codes(
            "import collections as c\ng = lambda acc=c.OrderedDict(): acc\n"
        ) == ["ABG103"]

    def test_immutable_defaults_allowed(self):
        assert codes("def f(xs=None, n=3, t=()):\n    pass\n") == []
        assert codes("def f(s=frozenset(), k=types.MappingProxyType({})):\n    pass\n") == []


class TestSetOrderIteration:
    def test_direct_set_iteration_flagged(self):
        assert "ABG104" in codes("for x in {1, 2, 3}:\n    pass\n")
        assert "ABG104" in codes("for x in set(xs):\n    pass\n")
        assert "ABG104" in codes("ys = [x for x in {1, 2}]\n")
        assert "ABG104" in codes("for x in set(a) - set(b):\n    pass\n")

    def test_sorted_traversal_allowed(self):
        assert codes("for x in sorted({1, 2, 3}):\n    pass\n") == []
        assert codes("for x in [1, 2, 3]:\n    pass\n") == []


class TestDunderAllConsistency:
    def test_phantom_export_flagged(self):
        assert "ABG105" in codes('__all__ = ["missing"]\n')

    def test_unexported_public_def_flagged(self):
        src = '__all__ = ["f"]\n\ndef f():\n    pass\n\ndef g():\n    pass\n'
        assert "ABG105" in codes(src)

    def test_consistent_module_clean(self):
        src = (
            '__all__ = ["f", "CONST"]\n'
            "CONST = 3\n\n"
            "def f():\n    pass\n\n"
            "def _private():\n    pass\n"
        )
        assert codes(src) == []

    def test_no_dunder_all_is_fine(self):
        assert codes("def f():\n    pass\n") == []


class TestNoqaSuppression:
    def test_specific_code_suppressed(self):
        assert codes("if x == 1.0:  # noqa: ABG102\n    pass\n") == []

    def test_bare_noqa_suppresses_everything(self):
        assert codes("for x in {1, 2}:  # noqa\n    pass\n") == []

    def test_other_code_not_suppressed(self):
        assert "ABG102" in codes("if x == 1.0:  # noqa: ABG104\n    pass\n")


class TestTreeAndRunner:
    def test_shipped_source_tree_is_clean(self):
        findings = lint_paths([REPO_SRC])
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_main_exit_codes(self, tmp_path: Path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("def f() -> int:\n    return 1\n")
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\n")
        assert main([str(clean)]) == 0
        assert main([str(dirty)]) == 1
        assert "ABG101" in capsys.readouterr().out
        assert main([]) == 2

    def test_main_rejects_missing_path(self, tmp_path: Path, capsys):
        assert main([str(tmp_path / "nope.py")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_syntax_error_is_reported_not_raised(self, tmp_path: Path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(:\n")
        findings = lint_paths([bad])
        assert findings and findings[0].path == str(bad)


class TestCatalogue:
    def test_registry_covers_every_rule(self):
        assert set(CATALOGUE) == set(RULES)

    def test_descriptions_track_the_rule_registry(self):
        for code, entry in CATALOGUE.items():
            assert entry.description == RULES[code][1]
            assert entry.hazard and entry.example and entry.suppression

    def test_doc_mentions_every_code(self):
        text = DOC_PATH.read_text()
        for code in RULES:
            assert code in text, f"{code} missing from docs/STATIC_ANALYSIS.md"

    def test_doc_mentions_no_unregistered_code(self):
        # retired rules leave the catalogue document with the registry
        documented = set(re.findall(r"ABG\d{3}", DOC_PATH.read_text()))
        assert documented <= set(RULES), sorted(documented - set(RULES))

    def test_explain_formats_an_entry(self):
        text = explain("ABG314")
        assert text is not None
        assert "ABG314" in text and "out=" in text
        assert "abg: allow[ABG314]" in text

    def test_explain_unknown_code_is_none(self):
        assert explain("ABG999") is None

    def test_explain_cli(self, capsys):
        assert cli_main(["lint", "--explain", "abg314"]) == 0
        out = capsys.readouterr().out
        assert "ABG314" in out and "Suppression guidance" in out

    def test_explain_cli_unknown_code_fails(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["lint", "--explain", "ABG999"])
