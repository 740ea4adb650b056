"""Failure-injection and robustness tests: adversarial questions,
degenerate tables, and the CLI surface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import (
    build_arg_parser,
    build_batch_parser,
    build_stats_parser,
)
from repro.db.database import Database
from repro.qa.domain import AdsDomain
from repro.qa.pipeline import CQAds
from tests.conftest import small_car_schema


class TestAdversarialQuestions:
    """The pipeline must never crash on junk input; unknown content is
    non-essential and simply drops out."""

    @pytest.mark.parametrize(
        "question",
        [
            "",
            "   ",
            "?????",
            "!!!",
            "the the the the",
            "0",
            "$",
            "less than",
            "between and",
            "not not not",
            "and or and or",
            "cheapest newest oldest",
            "honda honda honda honda honda",
            "a" * 500,
            "árvíztűrő tükörfúrógép",
            "SELECT * FROM car_ads; DROP TABLE car_ads",
            "🚗 blue honda 🚗",
            "-5000 dollars",
            "99999999999999999999 miles",
            "between 5000",
            "more than less than 3000",
        ],
    )
    def test_never_raises(self, cars_system, question):
        result = cars_system.cqads.answer(question, domain="cars")
        assert result is not None
        assert result.domain == "cars"

    def test_sql_injection_is_just_keywords(self, cars_system):
        result = cars_system.cqads.answer(
            "honda'; DROP TABLE car_ads; --", domain="cars"
        )
        # the table is intact and the question degraded to 'honda'
        assert cars_system.database.has_table("car_ads")
        assert "make = honda" in result.interpretation.describe()

    def test_question_of_only_numbers(self, cars_system):
        result = cars_system.cqads.answer("2005 9000", domain="cars")
        assert result is not None

    def test_repeated_conditions_are_idempotent(self, cars_system):
        once = cars_system.cqads.answer("blue honda", domain="cars")
        thrice = cars_system.cqads.answer(
            "blue blue blue honda honda", domain="cars"
        )
        assert {a.record.record_id for a in once.exact_answers} == {
            a.record.record_id for a in thrice.exact_answers
        }


class TestDegenerateTables:
    def test_empty_table(self):
        database = Database()
        table = database.create_table(small_car_schema())
        domain = AdsDomain.from_table("cars", table)
        cqads = CQAds(database)
        cqads.add_domain(domain)
        result = cqads.answer("blue honda accord", domain="cars")
        assert result.answers == []
        assert result.message == "search retrieved no results"

    def test_single_record_table(self):
        database = Database()
        table = database.create_table(small_car_schema())
        table.insert(
            {"make": "honda", "model": "accord", "color": "blue",
             "price": 9000}
        )
        domain = AdsDomain.from_table("cars", table)
        cqads = CQAds(database)
        cqads.add_domain(domain)
        result = cqads.answer("blue honda accord", domain="cars")
        assert len(result.exact_answers) == 1
        # superlative on the single record
        result = cqads.answer("cheapest honda", domain="cars")
        assert len(result.exact_answers) == 1

    def test_all_null_optional_columns(self):
        """With no color values in the data, "blue" is out of
        vocabulary, drops as non-essential (Section 4.1.4), and the
        question degrades gracefully to "honda"."""
        database = Database()
        table = database.create_table(small_car_schema())
        for index in range(5):
            table.insert({"make": "honda", "model": f"m{index}"})
        domain = AdsDomain.from_table("cars", table)
        cqads = CQAds(database)
        cqads.add_domain(domain)
        result = cqads.answer("blue honda", domain="cars")
        assert "color" not in result.interpretation.describe()
        assert len(result.exact_answers) == 5

    def test_mutating_table_after_registration(self, cars_system):
        """New ads inserted after provisioning are immediately
        queryable (indexes are maintained incrementally)."""
        table = cars_system.domains["cars"].dataset.table
        record = table.insert(
            {"make": "honda", "model": "accord", "color": "maroon",
             "price": 4242, "year": 2003, "mileage": 123456}
        )
        try:
            result = cars_system.cqads.answer(
                "maroon honda accord exactly 4242 dollars", domain="cars"
            )
            assert record.record_id in {
                a.record.record_id for a in result.exact_answers
            }
        finally:
            table.delete(record.record_id)


class TestCLI:
    def test_defaults(self):
        args = build_arg_parser().parse_args(["blue honda accord"])
        assert args.question == "blue honda accord"
        assert args.domain is None
        assert args.ads == 500
        assert args.top == 10

    def test_domain_choice_validated(self):
        with pytest.raises(SystemExit):
            build_arg_parser().parse_args(["q", "--domain", "boats"])

    def test_domains_list(self):
        args = build_arg_parser().parse_args(
            ["q", "--domains", "cars", "motorcycles", "--ads", "50"]
        )
        assert args.domains == ["cars", "motorcycles"]
        assert args.ads == 50

    @pytest.mark.parametrize(
        "parser, argv",
        [
            (build_arg_parser, ["q", "--ads", "0"]),
            (build_arg_parser, ["q", "--ads", "-5"]),
            (build_arg_parser, ["q", "--shards", "0"]),
            (build_arg_parser, ["q", "--top", "-1"]),
            (build_batch_parser, ["-", "--max-answers", "0"]),
            (build_batch_parser, ["-", "--ads", "0"]),
            (build_batch_parser, ["-", "--top", "-1"]),
            (build_stats_parser, ["--requests", "0"]),
        ],
    )
    def test_bad_counts_fail_at_parse_time(self, parser, argv, capsys):
        """A count below its minimum is a usage error (exit 2) before
        anything is provisioned."""
        with pytest.raises(SystemExit) as raised:
            parser().parse_args(argv)
        assert raised.value.code == 2
        flag = next(arg for arg in argv if arg.startswith("--"))
        assert f"argument {flag}: must be at least" in capsys.readouterr().err

    def test_smallest_counts_are_accepted(self):
        args = build_arg_parser().parse_args(
            ["q", "--ads", "1", "--shards", "1", "--top", "0"]
        )
        assert (args.ads, args.shards, args.top) == (1, 1, 0)
        args = build_batch_parser().parse_args(["-", "--max-answers", "1"])
        assert args.max_answers == 1

    def test_main_end_to_end(self, capsys):
        from repro.__main__ import main

        code = main(
            ["cheapest blue honda", "--domain", "cars", "--ads", "60",
             "--show-sql", "--top", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "interpreted:" in out
        assert "sql:" in out
        assert "MIN(price)" in out

    def test_main_contradiction_exit_code(self, capsys):
        from repro.__main__ import main

        code = main(
            ["honda cheaper than 2000 and more expensive than 9000",
             "--domain", "cars", "--ads", "40"]
        )
        assert code == 1
        assert "no results" in capsys.readouterr().out

    def test_closed_stdout_ends_quietly(self):
        """A reader that goes away (``| head -1``) ends a JSON-printing
        subcommand with exit status 1 and no ``BrokenPipeError``
        traceback."""
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "batch", "-",
             "--domains", "motorcycles", "--ads", "80"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        # Nobody reads stdout: its first write finds the pipe closed.
        process.stdout.close()
        _, stderr = process.communicate(b"yamaha r6\n", timeout=120)
        assert process.returncode == 1
        assert b"answering 1 questions" in stderr
        assert b"Traceback" not in stderr
        assert b"BrokenPipeError" not in stderr
