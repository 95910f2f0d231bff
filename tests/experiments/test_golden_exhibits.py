"""The exhibit anchor file covers exactly the sections the tests check."""

from tests.experiments.golden_exhibits import SECTIONS, load


def test_golden_file_covers_every_section():
    assert sorted(load()) == sorted(SECTIONS)
