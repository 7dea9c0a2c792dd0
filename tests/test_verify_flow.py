"""Tests for the interprocedural flow analysis (``repro.verify.flow``).

Golden fixtures per ABG2xx rule (a minimal positive and the idiomatic
negative), the interprocedural propagation and trace machinery, the shared
suppression syntax, the content-hash summary cache, the seeded mutation
checks from the acceptance criteria (injecting a violation into a real
worker-dispatched function must produce exactly the expected finding), and
the unified ``python -m repro lint`` entry point.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.verify.findings import exit_code
from repro.verify.flow import SummaryCache, analyze_paths
from repro.verify.lint import check_source

REPO_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def flow_codes(
    tmp_path: Path, source: str, *, roots: tuple[str, ...] = ("m::worker",)
) -> list[str]:
    """Analyze one synthetic module rooted at ``worker``; return codes."""
    target = tmp_path / "m.py"
    target.write_text(textwrap.dedent(source))
    report = analyze_paths([target], root_patterns=(), extra_roots=roots)
    return [f.code for f in report.findings]


def deep_codes(tmp_path: Path, source: str) -> list[str]:
    """Codes of the unified ``lint --deep`` report (file-local + flow) for
    one synthetic module rooted at ``worker``."""
    text = textwrap.dedent(source)
    return sorted(
        [f.code for f in check_source(text)] + flow_codes(tmp_path, text)
    )


class TestPurityRules:
    def test_module_dict_mutation_flagged(self, tmp_path):
        src = """\
            CACHE = {}

            def worker(x):
                CACHE[x] = 1
                return x
        """
        assert flow_codes(tmp_path, src) == ["ABG201"]

    def test_global_rebind_flagged(self, tmp_path):
        src = """\
            COUNT = 0

            def worker(x):
                global COUNT
                COUNT = COUNT + 1
                return x
        """
        assert flow_codes(tmp_path, src) == ["ABG201"]

    def test_mutating_method_on_global_flagged(self, tmp_path):
        src = """\
            SEEN = []

            def worker(x):
                SEEN.append(x)
                return x
        """
        assert flow_codes(tmp_path, src) == ["ABG201"]

    def test_local_state_is_fine(self, tmp_path):
        src = """\
            def worker(xs):
                acc = {}
                for x in xs:
                    acc[x] = 1
                return acc
        """
        assert flow_codes(tmp_path, src) == []

    def test_shadowing_local_is_fine(self, tmp_path):
        src = """\
            CACHE = {}

            def worker(xs):
                CACHE = {}
                CACHE[0] = 1
                return CACHE
        """
        assert flow_codes(tmp_path, src) == []

    def test_write_off_worker_path_not_flagged(self, tmp_path):
        src = """\
            CACHE = {}

            def setup(x):
                CACHE[x] = 1

            def worker(x):
                return x
        """
        assert flow_codes(tmp_path, src) == []

    def test_mutable_default_on_worker_flagged(self, tmp_path):
        # reported once, by the file-local ABG103 (no worker-path duplicate)
        src = """\
            def worker(x, acc=[]):
                return x
        """
        assert deep_codes(tmp_path, src) == ["ABG103"]

    def test_none_default_is_fine(self, tmp_path):
        src = """\
            def worker(x, acc=None):
                return x
        """
        assert flow_codes(tmp_path, src) == []


class TestRngRules:
    def test_seedless_default_rng_flagged(self, tmp_path):
        src = """\
            import numpy as np

            def worker(x):
                rng = np.random.default_rng()
                return rng.random()
        """
        assert deep_codes(tmp_path, src) == ["ABG101"]

    def test_ambient_numpy_global_state_flagged(self, tmp_path):
        src = """\
            import numpy as np

            def worker(x):
                return np.random.rand()
        """
        assert deep_codes(tmp_path, src) == ["ABG101"]

    def test_stdlib_random_flagged(self, tmp_path):
        src = """\
            import random

            def worker(x):
                return random.random()
        """
        # the import and the call
        assert deep_codes(tmp_path, src) == ["ABG101", "ABG101"]

    def test_underived_seed_flagged(self, tmp_path):
        src = """\
            import os
            import numpy as np

            def worker(x):
                rng = np.random.default_rng(os.getpid())
                return rng.random()
        """
        assert flow_codes(tmp_path, src) == ["ABG212"]

    def test_parameter_derived_stream_is_fine(self, tmp_path):
        src = """\
            import numpy as np

            def worker(seed, key):
                rng = np.random.default_rng([seed, key])
                return rng.random()
        """
        assert flow_codes(tmp_path, src) == []

    def test_constant_seed_is_fine(self, tmp_path):
        src = """\
            import numpy as np

            SEED = 1234

            def worker(x):
                rng = np.random.default_rng([SEED, x])
                return rng.random()
        """
        assert flow_codes(tmp_path, src) == []

    def test_rng_off_worker_path_not_flagged(self, tmp_path):
        src = """\
            import os
            import numpy as np

            def explore():
                return np.random.default_rng(os.getpid()).random()

            def worker(x):
                return x
        """
        assert flow_codes(tmp_path, src) == []


class TestOrderingRule:
    def test_named_set_iteration_flagged(self, tmp_path):
        src = """\
            def worker(xs):
                s = set(xs)
                out = []
                for v in s:
                    out.append(v)
                return out
        """
        assert flow_codes(tmp_path, src) == ["ABG221"]

    def test_sorted_iteration_is_fine(self, tmp_path):
        src = """\
            def worker(xs):
                s = set(xs)
                return [v for v in sorted(s)]
        """
        assert flow_codes(tmp_path, src) == []

    def test_set_typed_parameter_flagged(self, tmp_path):
        src = """\
            def worker(xs: set):
                return [v for v in xs]
        """
        assert flow_codes(tmp_path, src) == ["ABG221"]


class TestPayloadRule:
    def test_lambda_payload_flagged(self, tmp_path):
        src = """\
            def run(items):
                return map_deterministic(lambda x: x, items)
        """
        assert flow_codes(tmp_path, src, roots=()) == ["ABG231"]

    def test_nested_function_payload_flagged(self, tmp_path):
        src = """\
            def run(items):
                def inner(x):
                    return x
                return map_deterministic(inner, items)
        """
        assert flow_codes(tmp_path, src, roots=()) == ["ABG231"]

    def test_open_handle_argument_flagged(self, tmp_path):
        src = """\
            def work(x, fh):
                return x

            def run(items):
                return map_deterministic(work, items, open("log.txt"))
        """
        assert flow_codes(tmp_path, src, roots=()) == ["ABG231"]

    def test_module_function_payload_is_fine(self, tmp_path):
        src = """\
            def work(x):
                return x

            def run(items):
                return map_deterministic(work, items)
        """
        assert flow_codes(tmp_path, src, roots=()) == []


class TestInterprocedural:
    def test_dispatch_discovers_root_and_trace_reaches_helper(self, tmp_path):
        src = """\
            STATE = {}

            def helper(x):
                STATE[x] = 1
                return x

            def worker(x):
                return helper(x)

            def run(items):
                return map_deterministic(worker, items)
        """
        target = tmp_path / "m.py"
        target.write_text(textwrap.dedent(src))
        report = analyze_paths([target], root_patterns=())
        assert report.roots == ("m::worker",)
        assert "m::helper" in report.reachable
        (finding,) = report.findings
        assert finding.code == "ABG201"
        assert finding.trace == ("m.worker", "m.helper")

    def test_declared_root_patterns_match(self, tmp_path):
        src = """\
            STATE = {}

            def run_entry(x):
                STATE[x] = 1
                return x
        """
        target = tmp_path / "m.py"
        target.write_text(textwrap.dedent(src))
        report = analyze_paths([target], root_patterns=("m::run_*",))
        assert report.roots == ("m::run_entry",)
        assert [f.code for f in report.findings] == ["ABG201"]

    def test_method_reachability_through_annotation(self, tmp_path):
        src = """\
            class Policy:
                def step(self, x):
                    return x

            class Noisy(Policy):
                def step(self, x):
                    import os
                    import numpy as np
                    return np.random.default_rng(os.getpid()).random()

            def worker(policy: Policy, x):
                return policy.step(x)
        """
        target = tmp_path / "m.py"
        target.write_text(textwrap.dedent(src))
        report = analyze_paths(
            [target], root_patterns=(), extra_roots=("m::worker",)
        )
        assert "m::Noisy.step" in report.reachable
        assert [f.code for f in report.findings] == ["ABG212"]


class TestSupervisedDispatch:
    """``run_supervised`` is a dispatch surface exactly like the bare map."""

    def test_run_supervised_discovers_root(self, tmp_path):
        src = """\
            STATE = {}

            def worker(x):
                STATE[x] = 1
                return x

            def run(items):
                return run_supervised(worker, items, workers=4)
        """
        target = tmp_path / "m.py"
        target.write_text(textwrap.dedent(src))
        report = analyze_paths([target], root_patterns=())
        assert report.roots == ("m::worker",)
        assert [f.code for f in report.findings] == ["ABG201"]

    def test_run_supervised_clean_worker_passes(self, tmp_path):
        src = """\
            def worker(x):
                return x + 1

            def run(items):
                return run_supervised(worker, items, workers=4)
        """
        assert flow_codes(tmp_path, src, roots=()) == []

    def test_run_supervised_lambda_payload_flagged(self, tmp_path):
        src = """\
            def run(items):
                return run_supervised(lambda x: x, items)
        """
        assert flow_codes(tmp_path, src, roots=()) == ["ABG231"]


class TestSuppression:
    def test_allow_with_reason_suppresses(self, tmp_path):
        src = """\
            CACHE = {}

            def worker(x):
                CACHE[x] = 1  # abg: allow[ABG201] reason=deterministic memoization
                return x
        """
        assert flow_codes(tmp_path, src) == []

    def test_allow_without_reason_is_inert(self, tmp_path):
        src = """\
            CACHE = {}

            def worker(x):
                CACHE[x] = 1  # abg: allow[ABG201]
                return x
        """
        assert flow_codes(tmp_path, src) == ["ABG201"]

    def test_reasonless_allow_reported_as_abg290(self):
        findings = check_source("x = 1  # abg: allow[ABG102]\n")
        assert [f.code for f in findings] == ["ABG290"]

    def test_allow_with_reason_works_for_file_local_rules(self):
        src = "if x == 1.0:  # abg: allow[ABG102] reason=sentinel is exact\n    pass\n"
        assert check_source(src) == []


class TestSummaryCache:
    def _fixture(self, tmp_path: Path) -> Path:
        target = tmp_path / "m.py"
        target.write_text(
            textwrap.dedent(
                """\
                def worker(x):
                    return x
                """
            )
        )
        return target

    def test_second_run_hits_and_findings_match(self, tmp_path):
        target = self._fixture(tmp_path)
        cache_path = tmp_path / "cache.json"
        first = analyze_paths(
            [target],
            root_patterns=(),
            extra_roots=("m::worker",),
            cache=SummaryCache(cache_path),
        )
        assert first.stats["cache_misses"] == 1
        assert cache_path.exists()
        second = analyze_paths(
            [target],
            root_patterns=(),
            extra_roots=("m::worker",),
            cache=SummaryCache(cache_path),
        )
        assert second.stats["cache_hits"] == 1
        assert second.stats["cache_misses"] == 0
        assert second.findings == first.findings
        assert second.reachable == first.reachable

    def test_edit_invalidates_and_surfaces_new_finding(self, tmp_path):
        target = self._fixture(tmp_path)
        cache_path = tmp_path / "cache.json"
        analyze_paths(
            [target],
            root_patterns=(),
            extra_roots=("m::worker",),
            cache=SummaryCache(cache_path),
        )
        target.write_text(
            textwrap.dedent(
                """\
                SEEN = []

                def worker(x):
                    SEEN.append(x)
                    return x
                """
            )
        )
        report = analyze_paths(
            [target],
            root_patterns=(),
            extra_roots=("m::worker",),
            cache=SummaryCache(cache_path),
        )
        assert report.stats["cache_misses"] == 1
        assert [f.code for f in report.findings] == ["ABG201"]

    def test_schema_is_v6(self):
        from repro.verify.flow.cache import _SCHEMA

        assert _SCHEMA == 6

    def test_stale_schema_cache_is_discarded(self, tmp_path):
        target = self._fixture(tmp_path)
        cache_path = tmp_path / "cache.json"
        analyze_paths([target], root_patterns=(), cache=SummaryCache(cache_path))
        data = json.loads(cache_path.read_text())
        assert data["schema"] == 6

        # a schema-5 cache file (which still carries buffer points-to
        # facts) must be treated as empty, not served
        data["schema"] = 5
        cache_path.write_text(json.dumps(data))
        report = analyze_paths(
            [target], root_patterns=(), cache=SummaryCache(cache_path)
        )
        assert report.stats["cache_hits"] == 0
        assert report.stats["cache_misses"] == 1

    def test_fresh_cache_round_trips_findings(self, tmp_path):
        # every summary fact family survives serialization: a second run
        # served from the cache reproduces the same findings
        target = tmp_path / "m.py"
        target.write_text(
            textwrap.dedent(
                """\
                import os
                import numpy as np

                STATE = {}

                def worker(x, xs: set):
                    STATE[x] = 1
                    rng = np.random.default_rng(os.getpid())
                    return [v for v in xs], rng

                def run(items):
                    return map_deterministic(lambda x: x, items)
                """
            )
        )
        cache_path = tmp_path / "cache.json"
        kwargs = dict(
            root_patterns=(), extra_roots=("m::worker",), strict_roots=True
        )
        first = analyze_paths([target], cache=SummaryCache(cache_path), **kwargs)
        second = analyze_paths([target], cache=SummaryCache(cache_path), **kwargs)
        assert second.stats["cache_hits"] == 1
        assert second.findings == first.findings
        assert [f.code for f in first.findings] == [
            "ABG201", "ABG212", "ABG221", "ABG231",
        ]

    def test_corrupt_cache_treated_as_empty(self, tmp_path):
        target = self._fixture(tmp_path)
        cache_path = tmp_path / "cache.json"
        cache_path.write_text("{not json")
        report = analyze_paths(
            [target],
            root_patterns=(),
            extra_roots=("m::worker",),
            cache=SummaryCache(cache_path),
        )
        assert report.stats["cache_misses"] == 1


class TestRepoTree:
    def test_shipped_tree_is_deep_clean(self):
        report = analyze_paths([REPO_SRC])
        assert report.findings == [], "\n".join(str(f) for f in report.findings)
        assert report.ok

    def test_root_set_covers_the_contract_surface(self):
        report = analyze_paths([REPO_SRC])
        roots = set(report.roots)
        fig5 = str(REPO_SRC / "experiments" / "fig5.py")
        assert any("fig5" in r and "_fig5_factor_point" in r for r in roots), fig5
        assert any("execute_quantum" in r for r in roots)
        assert len(report.reachable) > len(report.roots)

    def test_mutation_unseeded_rng_is_caught(self):
        """Acceptance check: an injected seedless default_rng() in a
        worker-dispatched function yields exactly one finding, the
        file-local ABG101 (the flow layer adds no duplicate)."""
        fig5 = REPO_SRC / "experiments" / "fig5.py"
        source = fig5.read_text(encoding="utf-8")
        seeded = "rng = np.random.default_rng([task.seed, task.factor])"
        assert seeded in source
        mutated = source.replace(seeded, "rng = np.random.default_rng()")
        report = analyze_paths([REPO_SRC], overrides={str(fig5): mutated})
        assert report.findings == []
        (finding,) = check_source(mutated, str(fig5))
        assert finding.code == "ABG101"
        assert source.splitlines()[finding.line - 1].strip() == seeded

    def test_mutation_global_write_is_caught(self):
        """Acceptance check: an injected module-global write in a
        worker-dispatched function yields exactly one ABG201."""
        fig5 = REPO_SRC / "experiments" / "fig5.py"
        source = fig5.read_text(encoding="utf-8")
        anchor = "from .parallel import map_deterministic"
        assert anchor in source
        mutated = source.replace(
            anchor, anchor + "\n\n_FIG5_STATS: list = []"
        ).replace(
            "    rng = np.random.default_rng([task.seed, task.factor])",
            "    _FIG5_STATS.append(task.factor)\n"
            "    rng = np.random.default_rng([task.seed, task.factor])",
        )
        report = analyze_paths([REPO_SRC], overrides={str(fig5): mutated})
        assert [f.code for f in report.findings] == ["ABG201"]
        (finding,) = report.findings
        assert "_FIG5_STATS" in finding.message


class TestUnifiedCli:
    def test_lint_clean_file_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("def f() -> int:\n    return 1\n")
        assert cli_main(["lint", str(clean)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_findings_exit_one(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\n")
        with pytest.raises(SystemExit) as exc:
            cli_main(["lint", str(dirty)])
        assert exc.value.code == 1
        assert "ABG101" in capsys.readouterr().out

    def test_deep_merges_both_layers(self, tmp_path, capsys):
        dirty = tmp_path / "m.py"
        dirty.write_text(
            textwrap.dedent(
                """\
                import random

                STATE = {}

                def worker(x):
                    STATE[x] = 1
                    return x

                def run(items):
                    return map_deterministic(worker, items)
                """
            )
        )
        with pytest.raises(SystemExit) as exc:
            cli_main(["lint", "--deep", "--no-cache", str(dirty)])
        assert exc.value.code == 1
        out = capsys.readouterr().out
        assert "ABG101" in out  # file-local layer
        assert "ABG201" in out  # interprocedural layer

    def test_json_format_schema(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("def f() -> int:\n    return 1\n")
        assert cli_main(
            ["lint", "--deep", "--no-cache", "--format", "json", str(clean)]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert payload["findings"] == []
        assert payload["summary"]["errors"] == 0
        assert payload["stats"]["modules"] == 1

    def test_json_format_reports_findings(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\n")
        with pytest.raises(SystemExit):
            cli_main(["lint", "--format", "json", str(dirty)])
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] == 1
        assert payload["findings"][0]["code"] == "ABG101"

    def test_exit_code_policy_ignores_warnings(self):
        from repro.verify.findings import LintFinding

        warning = LintFinding(
            path="p", line=1, col=0, code="X", message="m", severity="warning"
        )
        error = LintFinding(path="p", line=1, col=0, code="X", message="m")
        assert exit_code([]) == 0
        assert exit_code([warning]) == 0
        assert exit_code([warning, error]) == 1
