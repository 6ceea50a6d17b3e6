import gcube.cli as cli
import gcube.verify as verify_module
from gcube.entropy import VerificationReport, binomial_entropy
from gcube.verify import SUITES, binary_suite


def test_registry_names():
    assert set(SUITES) == {
        "binary", "terms", "entropy", "majorization", "gcs", "young", "tensor",
    }


def test_binary_suite():
    rep = binary_suite()
    assert rep.passed and rep.cases == 18


# The full check count of every suite, as `gcube verify --suite S` prints it.
FULL_COUNTS = {
    "binary": 18,
    "terms": 457,
    "entropy": 5278,
    "majorization": 14040,
    "gcs": 400,
    "young": 200,
    "tensor": 200,
}


def test_full_suite_check_counts():
    assert set(FULL_COUNTS) == set(SUITES)
    for name, suite in SUITES.items():
        rep = suite()
        assert rep.passed, (name, rep.failures[:3])
        assert rep.cases == FULL_COUNTS[name], name


def test_record_formats_only_failures():
    rep = VerificationReport("fake")
    rep.record(True, "x={}: {!r}", 1, 0.5)
    rep.record(False, "x={}: {!r}", (1, -2), 0.1)
    rep.record(False, "a {b}")
    assert rep.cases == 3
    assert rep.failures == ["x=(1, -2): 0.1", "a {b}"]


def test_forced_failure_prints_the_message(monkeypatch, capsys):
    monkeypatch.setattr(verify_module, "binomial_entropy_bounds", lambda m: (1.0, 0.0))
    code = cli.main(["verify", "--suite", "entropy"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    expect = [
        f"FAIL: m={m}: H_m={binomial_entropy(m)!r} outside ({1.0!r}, {0.0!r})"
        for m in range(1, 1001)
    ]
    assert lines == expect + [f"suite entropy: FAIL ({FULL_COUNTS['entropy']} checks)"]


# The suites read these names from gcube.verify's globals at each call, so
# a wrapper set on the module (a tracer, a counter) sees every call.  The
# counts are those of one run of every suite.
MODULE_CALLS = {
    "verify_majorization_lemma": 1,
    "verify_entropy_corollary": 7,
    "term_groups": 15,
    "objective": 836,
    "energy_P": 12,
    "gowers_norm_recursive": 2180,
    "gowers_inner_product": 200,
}


def test_suites_call_through_module_globals(monkeypatch):
    calls = dict.fromkeys(MODULE_CALLS, 0)
    for name in MODULE_CALLS:
        def counted(*args, _name=name, _fn=getattr(verify_module, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(verify_module, name, counted)
    for suite in SUITES.values():
        suite()
    assert calls == MODULE_CALLS
