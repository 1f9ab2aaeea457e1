"""Tests for the shared logging configuration (:mod:`repro.obs.logging_setup`)."""

import io
import json
import logging

import pytest

from repro.obs.logging_setup import (
    LOG_ENV,
    JsonLinesFormatter,
    parse_log_spec,
    setup_logging,
)


class TestParseLogSpec:
    def test_bare_level_sets_the_default(self):
        assert parse_log_spec("debug") == (logging.DEBUG, {})
        assert parse_log_spec("WARNING") == (logging.WARNING, {})

    def test_numeric_levels_are_accepted(self):
        assert parse_log_spec("15") == (15, {})

    def test_per_logger_overrides(self):
        default, per_logger = parse_log_spec("repro.api.cache=DEBUG,info")
        assert default == logging.INFO
        assert per_logger == {"repro.api.cache": logging.DEBUG}

    def test_empty_items_are_skipped(self):
        assert parse_log_spec(",, info ,") == (logging.INFO, {})

    def test_unknown_level_fails_loudly(self):
        with pytest.raises(ValueError, match="unknown log level"):
            parse_log_spec("chatty")


class TestSetupLogging:
    def test_default_is_warning_and_silent_stream(self):
        stream = io.StringIO()
        logger = setup_logging(stream=stream, env={})
        assert logger.level == logging.WARNING
        logger.info("quiet")
        logger.warning("loud")
        assert "quiet" not in stream.getvalue()
        assert "loud" in stream.getvalue()

    def test_verbose_means_debug(self):
        logger = setup_logging(verbose=True, stream=io.StringIO(), env={})
        assert logger.level == logging.DEBUG

    def test_explicit_level_beats_env_and_verbose(self):
        logger = setup_logging(
            verbose=True,
            level=logging.ERROR,
            stream=io.StringIO(),
            env={LOG_ENV: "debug"},
        )
        assert logger.level == logging.ERROR

    def test_env_default_beats_verbose_fallback(self):
        logger = setup_logging(
            verbose=True, stream=io.StringIO(), env={LOG_ENV: "info"}
        )
        assert logger.level == logging.INFO

    def test_env_per_logger_overrides_apply(self):
        setup_logging(stream=io.StringIO(), env={LOG_ENV: "repro.api.cache=DEBUG"})
        assert logging.getLogger("repro.api.cache").level == logging.DEBUG
        logging.getLogger("repro.api.cache").setLevel(logging.NOTSET)

    def test_reconfiguration_does_not_stack_handlers(self):
        logger = setup_logging(stream=io.StringIO(), env={})
        first = len(logger.handlers)
        logger = setup_logging(stream=io.StringIO(), env={})
        assert len(logger.handlers) == first

    def test_root_logger_is_never_touched(self):
        root_handlers = list(logging.getLogger().handlers)
        logger = setup_logging(stream=io.StringIO(), env={})
        assert logging.getLogger().handlers == root_handlers
        assert logger.propagate is False

    def test_structured_output_is_json_lines(self):
        stream = io.StringIO()
        logger = setup_logging(structured=True, stream=stream, env={})
        logger.warning("something %s", "happened")
        record = json.loads(stream.getvalue().splitlines()[0])
        assert record["level"] == "warning"
        assert record["logger"] == "repro"
        assert record["message"] == "something happened"
        assert isinstance(record["ts"], float)


class TestJsonLinesFormatter:
    def test_exception_records_carry_the_type(self):
        formatter = JsonLinesFormatter()
        try:
            raise KeyError("nope")
        except KeyError:
            import sys

            record = logging.LogRecord(
                "repro.t", logging.ERROR, __file__, 1, "boom", (), sys.exc_info()
            )
        payload = json.loads(formatter.format(record))
        assert payload["exc_type"] == "KeyError"
        assert payload["message"] == "boom"
