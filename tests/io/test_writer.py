"""Tests for the litmus text writer (and parser round trips)."""


from repro.checker.explicit import ExplicitChecker
from repro.core.catalog import ALPHA, IBM370, SC, TSO
from repro.generation.named_tests import L_TESTS, TEST_A, all_named_tests
from repro.generation.suite import no_dependency_suite
from repro.io.parser import parse_litmus
from repro.io.writer import litmus_to_text, write_litmus_file


def test_writer_output_contains_header_threads_and_condition():
    text = litmus_to_text(TEST_A)
    assert text.startswith('litmus "A"')
    assert "thread T1 {" in text and "thread T2 {" in text
    assert "exists r1 = 0 & r2 = 2 & r3 = 0" in text


def test_roundtrip_named_tests_preserve_verdicts():
    checker = ExplicitChecker()
    models = (SC, TSO, IBM370, ALPHA)
    for test in all_named_tests().values():
        reparsed = parse_litmus(litmus_to_text(test))
        assert reparsed.register_outcome() == test.register_outcome()
        for model in models:
            assert (
                checker.check(reparsed, model).allowed == checker.check(test, model).allowed
            ), f"{test.name} changed verdict after round trip under {model.name}"


def test_roundtrip_generated_suite_sample():
    sample = no_dependency_suite().tests()[:25]
    for test in sample:
        reparsed = parse_litmus(litmus_to_text(test))
        assert reparsed.register_outcome() == test.register_outcome()
        assert reparsed.num_memory_accesses() == test.num_memory_accesses()


def test_write_litmus_file(tmp_path):
    path = tmp_path / "a.litmus"
    write_litmus_file(TEST_A, path)
    assert path.read_text() == litmus_to_text(TEST_A)


def test_description_is_emitted_as_comment():
    text = litmus_to_text(L_TESTS[0])
    assert "# " in text


def test_roundtrip_keeps_every_small_bound_test():
    """Every raw ``small``-bound enumerated test, read-free ones included,
    survives text and back with its program, outcome and verdicts."""
    from repro.core.parametric import model_space
    from repro.engine.engine import CheckEngine
    from repro.generation.enumeration import enumerate_raw_naive_items, test_from_items
    from repro.pipeline.run import BOUNDS

    engine = CheckEngine(kernel="bigint")
    models = model_space(include_data_dependencies=False)
    read_free = 0
    for name, items in enumerate_raw_naive_items(BOUNDS["small"]):
        test = test_from_items(items, name)
        reparsed = parse_litmus(litmus_to_text(test))
        assert reparsed.program == test.program, name
        assert reparsed.outcome == test.outcome, name
        assert engine.check_column(reparsed, models) == engine.check_column(test, models), name
        read_free += not test.register_outcome()
    assert read_free > 0


def test_bare_exists_is_the_empty_condition_of_a_read_free_test():
    test = parse_litmus('litmus "w"\nthread T1 {\n write X 1\n}\nexists\n')
    assert test.register_outcome() == {}
    assert litmus_to_text(test).rstrip().endswith("exists")
