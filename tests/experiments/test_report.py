"""Report formatting tests."""

from repro.experiments.report import format_table


class TestFormatTable:
    def test_contains_title_headers_rows(self):
        text = format_table(
            "My Table", ["col1", "col2"], [["a", 1.5], ["b", 2.0]]
        )
        assert text.startswith("My Table")
        assert "col1" in text and "col2" in text
        assert "1.500" in text

    def test_footer_separated(self):
        text = format_table(
            "T", ["x"], [["row"]], footer=[["Average"]]
        )
        assert text.count("-") > 0
        assert "Average" in text

    def test_large_floats_one_decimal(self):
        text = format_table("T", ["x"], [[123.456]])
        assert "123.5" in text

    def test_columns_aligned(self):
        text = format_table("T", ["a", "b"], [["xxxxxxx", 1.0], ["y", 2.0]])
        lines = text.splitlines()[1:]
        positions = {line.index("b") if "b" in line else None
                     for line in lines[:1]}
        assert None not in positions

