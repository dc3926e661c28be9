"""Per-rule positive/negative coverage over the fixture corpus.

Each fixture file is parsed under a *pretend* repo path so path-scoped
rules (core/-only, hot-path-only, ...) fire exactly as they would on real
code.
"""

import os

import pytest

from repro.devtools.rules import FileContext, all_rules

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

#: rule code -> (pretend relpath, expected minimum positive findings)
CASES = {
    "RNE001": ("src/repro/core/sampling.py", 2),
    "RNE002": ("src/repro/core/training.py", 3),
    "RNE003": ("src/repro/core/training.py", 3),
    "RNE004": ("src/repro/core/training.py", 2),
    "RNE005": ("src/repro/core/model.py", 2),
    "RNE006": ("src/repro/core/hybrid.py", 2),
    "RNE007": ("src/repro/core/metrics.py", 2),
    "RNE008": ("src/repro/core/sampling.py", 1),
    "RNE009": ("src/repro/core/model.py", 3),
}

RULES = {rule.code: rule for rule in all_rules()}


def run_rule(code: str, fixture: str, relpath: str):
    path = os.path.join(FIXTURES, fixture)
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    ctx = FileContext(path, relpath, source)
    return RULES[code].run(ctx)


@pytest.mark.parametrize("code", sorted(CASES))
def test_rule_flags_bad_fixture(code):
    relpath, minimum = CASES[code]
    fixture = f"{code.lower()}_bad.py"
    found = run_rule(code, fixture, relpath)
    assert len(found) >= minimum, f"{code} missed violations in {fixture}"
    assert all(v.code == code for v in found)
    assert all(v.line >= 1 and v.col >= 1 for v in found)


@pytest.mark.parametrize("code", sorted(CASES))
def test_rule_passes_good_fixture(code):
    relpath, _ = CASES[code]
    fixture = f"{code.lower()}_good.py"
    found = run_rule(code, fixture, relpath)
    assert found == [], f"{code} false positives: {[v.render() for v in found]}"


def test_rules_respect_scoping():
    # The same dtype-less constructor outside src/repro is not RNE002's
    # business (tests and benchmarks construct arrays freely).
    found = run_rule("RNE002", "rne002_bad.py", "tests/core/test_training.py")
    assert found == []
    # RNE003 is core/-only.
    found = run_rule("RNE003", "rne003_bad.py", "src/repro/algorithms/h2h.py")
    assert found == []
    # RNE004 only watches the declared hot-path modules; analysis.py is
    # diagnostics, not a hot path.
    found = run_rule("RNE004", "rne004_bad.py", "src/repro/core/analysis.py")
    assert found == []
    # ...while the sampling, build-driver and live-update modules are in
    # scope.
    found = run_rule("RNE004", "rne004_bad.py", "src/repro/core/sampling.py")
    assert len(found) >= 2
    found = run_rule("RNE004", "rne004_bad.py", "src/repro/core/pipeline.py")
    assert len(found) >= 2
    found = run_rule("RNE004", "rne004_bad.py", "src/repro/live/update.py")
    assert len(found) >= 2


def test_generic_waiver_suppresses_any_rule():
    source = "import numpy as np\nx = np.zeros(3)  # rne: ignore[RNE002]\n"
    ctx = FileContext("<mem>", "src/repro/core/fake.py", source)
    assert RULES["RNE002"].run(ctx) == []
    # ...but a waiver for a different code does not.
    source = "import numpy as np\nx = np.zeros(3)  # rne: ignore[RNE001]\n"
    ctx = FileContext("<mem>", "src/repro/core/fake.py", source)
    assert len(RULES["RNE002"].run(ctx)) == 1


def test_rule_catalogue_is_complete():
    codes = [rule.code for rule in all_rules()]
    assert codes == sorted(codes)
    assert len(codes) >= 8
    assert len(set(codes)) == len(codes)
    for rule in all_rules():
        assert rule.name and rule.description
