"""Long-form rule catalogue backing ``python -m repro lint --explain``.

:data:`repro.verify.findings.RULES` is the machine registry (code ->
severity + one-line summary); this module is the *human* registry: per
rule, the hazard it guards against, a minimal example that fires it, and
what a justified suppression looks like.  ``docs/STATIC_ANALYSIS.md``
renders the same material as prose — ``tests/test_verify_lint.py``
checks that every code in :data:`RULES` has a catalogue entry and that
every catalogue code is mentioned in the doc, so the three surfaces
cannot drift silently.

Usage::

    python -m repro lint --explain ABG314
    from repro.verify.catalogue import CATALOGUE, explain
"""

from __future__ import annotations

from dataclasses import dataclass

from .findings import RULES, rule_severity

__all__ = ["RuleEntry", "CATALOGUE", "explain"]


@dataclass(frozen=True, slots=True)
class RuleEntry:
    """One rule's long-form documentation.

    ``description`` restates the one-liner from :data:`RULES`;
    ``hazard`` says what goes wrong when the rule is violated (with the
    paper/contract anchor); ``example`` is a minimal construct that
    fires the rule; ``suppression`` says when — if ever — an
    ``# abg: allow[...]`` is justified and what the reason should state.
    """

    code: str
    description: str
    hazard: str
    example: str
    suppression: str


def _entry(code: str, hazard: str, example: str, suppression: str) -> RuleEntry:
    return RuleEntry(
        code=code,
        description=RULES[code][1],
        hazard=hazard,
        example=example,
        suppression=suppression,
    )


#: code -> long-form entry, one per rule in :data:`RULES`.
CATALOGUE: dict[str, RuleEntry] = {
    e.code: e
    for e in (
        _entry(
            "ABG100",
            "A file that does not parse cannot be analyzed; every other "
            "guarantee is void for it.",
            "def f(:  # SyntaxError",
            "Never suppress; fix the syntax error.",
        ),
        _entry(
            "ABG101",
            "Every reproduced figure is seeded from default_rng_seed; "
            "ambient RNG state (stdlib random, np.random.*) or a "
            "seedless default_rng() makes runs incomparable "
            "bit-for-bit, and breaks the per-factor child streams "
            "(default_rng([seed, factor])) that keep sweep jobs "
            "independent of worker count and sweep composition.",
            "import random; random.shuffle(jobs)\nrng = np.random.default_rng()",
            "Only for code provably outside any result path (e.g. a "
            "demo script); state that in the reason.",
        ),
        _entry(
            "ABG102",
            "Controller state d(q) and spans are accumulated floats; "
            "exact ==/!= against a float literal is a latent flake in "
            "the Theorem 3/4 bound checks.",
            "if d == 0.5: ...",
            "Acceptable when the value is assigned-not-computed (a "
            "sentinel); say so in the reason.",
        ),
        _entry(
            "ABG103",
            "A mutable default aliases state across calls; policies "
            "must be stateless per quantum (the A-Control recurrence "
            "reads only A(q-1)), and inside a pool worker the aliasing "
            "makes results depend on how tasks were batched onto "
            "processes.",
            "def run(jobs=[]): ...\ndef work(u, seen=collections.deque()): ...",
            "Rarely justified; use None + in-body construction instead.",
        ),
        _entry(
            "ABG104",
            "Schedule order feeds T1(q)/Tinf(q) accounting; hash order "
            "varies per process, so iterating a set display unsorted "
            "leaks process identity into results.",
            "for j in {a, b, c}: ...",
            "Acceptable when the loop body is order-free (pure "
            "membership accumulation); the reason must say why order "
            "cannot matter.",
        ),
        _entry(
            "ABG105",
            "An __all__ out of sync with the module's definitions makes "
            "the public API surface unauditable.",
            "__all__ = ['gone']  # no `gone` defined",
            "Never suppress; fix the list.",
        ),
        _entry(
            "ABG201",
            "Each worker process has its own globals; a write that "
            "feeds any later result diverges between --workers 1 and "
            "--workers N.",
            "def work(u):\n    CACHE[u.key] = u  # module global",
            "Acceptable only for pure memoization where the cached "
            "value is a function of its key alone (see "
            "bench/scenarios.py); the reason must state that property.",
        ),
        _entry(
            "ABG212",
            "A seed from ambient state (pid, time, env) reintroduces "
            "nondeterminism through the back door.",
            "rng = default_rng(os.getpid())",
            "Acceptable when the 'seed' is a literal the analysis "
            "failed to trace; the reason must name the constant.",
        ),
        _entry(
            "ABG221",
            "Interprocedural upgrade of ABG104: set-typed locals and "
            "parameters iterated on a parallel path leak hash order "
            "into results.",
            "def work(keys: set): \n    for k in keys: total += w[k]",
            "Same bar as ABG104: the reason must say why order cannot "
            "affect the result.",
        ),
        _entry(
            "ABG231",
            "Pool dispatch must ship module-level functions and plain "
            "data; lambdas, nested functions, and open handles either "
            "fail to pickle or smuggle process-local state.",
            "pool.submit(lambda: run(u))",
            "Never suppress; lift the callee to module level.",
        ),
        _entry(
            "ABG290",
            "Suppressions are part of the proof surface; one without a "
            "justification is itself a finding.",
            "x = f()  # abg: allow[ABG201]",
            "Not suppressible; add the reason= clause.",
        ),
        _entry(
            "ABG301",
            "The batched engine silently falls back to the scalar loop "
            "for that policy — a perf cliff that looks like a slow "
            "machine, not a bug.",
            "class P(FeedbackPolicy):\n    def next_request(self, job): ...",
            "Prefer `batch_fallback = True` on the class over a "
            "suppression — it records scalar-only-by-design where the "
            "parity pass can see it.",
        ),
        _entry(
            "ABG302",
            "The two kernel sides compute different semantics: the "
            "subclass's scalar math against the ancestor's batched math.",
            "class P(Base):\n    def next_request(self, job):  # no *_batch override\n        ...",
            "Acceptable only when the override is a pure refactor with "
            "identical math; the reason must assert equivalence.",
        ),
        _entry(
            "ABG303",
            "Keyword calls and the scalar<->batched fallback break "
            "asymmetrically when the two sides disagree on parameter "
            "names or defaults.",
            "def allocate(self, jobs, cap=None): ...\ndef allocate_batch(self, jobs, limit=None): ...",
            "Never suppress; align the signatures.",
        ),
        _entry(
            "ABG304",
            "Naming says 'kernel pair', the registry says otherwise — "
            "either the pair should be contract-guarded or the twin "
            "naming is misleading.",
            "class W:\n    def generate(self): ...\n    def generate_batch(self): ...",
            "The advisory tier exists for plural helpers that merely "
            "look like kernel twins (see workloads/forkjoin.py); the "
            "reason must say what the *_batch method actually is.",
        ),
        _entry(
            "ABG311",
            "Tie order under the default introsort follows memory "
            "layout; equal keys permute nondeterministically, and "
            "indirect sorts carry that tie order into results.",
            "order = np.argsort(keys)",
            "Acceptable when keys are provably distinct; the reason "
            "must say why ties cannot occur.",
        ),
        _entry(
            "ABG312",
            "Float addition does not commute in rounding; dict order is "
            "insertion order, so reducing over a dict view bakes "
            "insertion history into the sum.",
            "total = sum(spans.values())",
            "Acceptable for exact arithmetic (int sums, see "
            "allocators/base.py); the reason must state the dtype.",
        ),
        _entry(
            "ABG313",
            "Integer array constructors default to the platform C long "
            "(32-bit on Windows), so index arithmetic widens "
            "differently across platforms.",
            "idx = np.arange(n)  # kernel module",
            "Acceptable for float-literal constructors where the dtype "
            "is unambiguous; prefer writing dtype= anyway.",
        ),
        _entry(
            "ABG314",
            "out= aliasing a ufunc input overwrites operands still "
            "being read; a shared module-level array stored without "
            ".copy() makes every instance share one mutable buffer.",
            "np.add(a, b, out=a[1:])",
            "Acceptable when the aliasing is element-wise safe "
            "(same-index in/out); the reason must argue that safety.",
        ),
        _entry(
            "ABG315",
            "Column order follows dict insertion order, which nothing "
            "canonicalized; the same data can produce differently "
            "ordered columns.",
            "col = np.fromiter(d.values(), dtype=np.float64)",
            "Acceptable when the dict is built in canonical order by "
            "construction; the reason must name that invariant.",
        ),
        _entry(
            "ABG331",
            "Attribute-level upgrade of ABG201: CONFIG.limits.x = ... "
            "diverges between worker counts just like a direct global "
            "write.",
            "def work(u):\n    CONFIG.limits.max_q = u.q",
            "Same bar as ABG201: pure memoization only, stated in the "
            "reason.",
        ),
        _entry(
            "ABG332",
            "The supervised pool retries failed units — a mutation that "
            "lands before the raise replays on retry, double-applying "
            "the effect.",
            "def work(u):\n    u.jobs.pop()\n    if bad: raise RuntimeError",
            "Acceptable when the mutation is idempotent; the reason "
            "must argue idempotence.",
        ),
        _entry(
            "ABG333",
            "An unresolvable pool callee escapes the proved worker set; "
            "nothing downstream of it is checked.",
            "pool.submit(registry[name], unit)",
            "Prefer a DEFAULT_ROOT_PATTERNS entry for registry dispatch "
            "over a suppression, so the callees stay inside the proved "
            "set.",
        ),
        _entry(
            "ABG401",
            "A replayed golden fixture produced different per-quantum "
            "values than its recorded reference run: a kernel or policy "
            "change altered scheduling behaviour.  The finding carries "
            "the first diverging quantum and a field-level expected/got "
            "diff — the regression's exact birthplace.",
            "python -m repro verify-traces  # after perturbing the DEQ waterfall",
            "Not a source-comment rule; if the new behaviour is intended, "
            "re-record the fixtures (`python -m repro record-traces`) in "
            "the same PR and explain the semantic change.",
        ),
        _entry(
            "ABG402",
            "A replay diverged in *shape*: a job missing from the result, "
            "an unexpected extra job, or a job finishing after a "
            "different number of quanta — usually admission or "
            "termination logic drifting rather than per-quantum math.",
            "python -m repro verify-traces  # after changing release handling",
            "Not a source-comment rule; same recourse as ABG401 — "
            "re-record only if the shape change is intended.",
        ),
        _entry(
            "ABG403",
            "A golden fixture could not be replayed at all: unknown "
            "schema, malformed scenario/trace payload, digest mismatch "
            "(hand-edited without re-recording), or per-trace metadata "
            "disagreeing before any quantum was compared.",
            "python -m repro verify-traces  # after hand-editing a fixture JSON",
            "Not a source-comment rule; never edit fixture files by "
            "hand — regenerate them with `record-traces`.",
        ),
        _entry(
            "ABG404",
            "Fixture freshness: re-recording a committed fixture's "
            "stored scenario under the current tree yields a different "
            "digest, i.e. behaviour changed but the fixture was not "
            "re-recorded (or a registry scenario has no fixture).  CI "
            "runs `record-traces --check` so goldens cannot silently "
            "rot.",
            "python -m repro record-traces --check",
            "Not a source-comment rule; run `python -m repro "
            "record-traces` and commit the refreshed fixtures with the "
            "behaviour change.",
        ),
    )
}


def explain(code: str) -> str | None:
    """The formatted ``--explain`` body for ``code`` (None if unknown)."""
    entry = CATALOGUE.get(code.upper())
    if entry is None:
        return None
    severity = rule_severity(entry.code)
    example = "\n".join(f"    {line}" for line in entry.example.splitlines())
    return (
        f"{entry.code} ({severity}): {entry.description}\n"
        f"\n"
        f"Hazard:\n"
        f"    {entry.hazard}\n"
        f"\n"
        f"Example (fires the rule):\n"
        f"{example}\n"
        f"\n"
        f"Suppression guidance:\n"
        f"    {entry.suppression}\n"
        f"\n"
        f"Suppress with `# abg: allow[{entry.code}] reason=<why>` — the\n"
        f"reason clause is mandatory (ABG290).  Full catalogue:\n"
        f"docs/STATIC_ANALYSIS.md."
    )
