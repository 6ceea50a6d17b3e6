import gcube.cli as cli
import gcube.verify as verify_module
from gcube.entropy import VerificationReport, binomial_entropy
from gcube.verify import (
    SUITES,
    binary_suite,
    check_gcs,
    check_objective_monotone,
    check_objective_symmetry,
    check_tensor,
    check_triangle,
    check_young,
    entropy_suite,
    majorization_suite,
    terms_suite,
)


def test_registry_names():
    assert set(SUITES) == {
        "binary", "terms", "entropy", "majorization", "gcs", "young", "tensor",
    }


def test_binary_suite():
    rep = binary_suite()
    assert rep.passed and rep.cases == 18


def test_terms_suite():
    rep = terms_suite(trials=40)
    assert rep.passed, rep.failures[:3]


def test_entropy_suite_trimmed():
    rep = entropy_suite(m_max=150, n_max=6)
    assert rep.passed, rep.failures[:3]


def test_majorization_suite():
    rep = majorization_suite(3, 3)
    assert rep.passed, rep.failures[:3]


def test_random_suites_trimmed():
    for check in (check_gcs, check_triangle, check_young, check_tensor,
                  check_objective_monotone, check_objective_symmetry):
        rep = check(trials=40)
        assert rep.passed, (rep.name, rep.failures[:3])
        assert rep.cases == 40


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
