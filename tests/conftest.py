from __future__ import annotations

import faulthandler
import os
import sys

import pytest

from purpose_audit.auditing import AuditReason, audit
from purpose_audit.fixtures import (
    PHYSICIAN_LOG,
    PHYSICIAN_MODEL,
    TRAVEL_LOG,
    TRAVEL_MODEL,
)
from purpose_audit.model import (
    NOTHING,
    Action,
    Behavior,
    EnvironmentModel,
    State,
    Strategy,
)
from purpose_audit.modelfile import parse_log, parse_model


def pytest_configure(config):
    # pytest captures fd 2 while a test runs, so the watchdog writes to a
    # duplicate of the real stderr, taken while capture is suspended.
    global _real_stderr
    _real_stderr = os.fdopen(os.dup(sys.stderr.fileno()), "w")


@pytest.fixture(autouse=True)
def watchdog():
    # A test still running after 300 s, more than twice the longest time
    # budget a test asserts, ends the run with every thread's traceback.
    faulthandler.dump_traceback_later(300, exit=True, file=_real_stderr)
    yield
    faulthandler.cancel_dump_traceback_later()


def physician_models() -> dict[str, EnvironmentModel]:
    """The physician purpose family: keys "treat" and "profit"."""
    return parse_model(PHYSICIAN_MODEL)


def physician_behaviors() -> tuple[Behavior, Behavior]:
    """(redundant-referral log, necessary-referral log)."""
    first, second = parse_log(PHYSICIAN_LOG, physician_models()["treat"])
    return first, second


def physician_strategies(
    model: EnvironmentModel,
) -> tuple[Strategy, Strategy, Strategy]:
    """The three reference strategies over the physician structure.

    sigma1 follows the book: take, diagnose where possible, refer only from
    the unclear state, stop when done. sigma2 adds a redundant referral at the
    clear state; sigma3 keeps sending after everything is done.
    """
    base = {"1": "take", "2": "diagnose", "3": "diagnose",
            "4": "send", "5": "diagnose", "6": "N"}
    sigma1 = Strategy.from_mapping(base, model)
    sigma2 = Strategy.from_mapping({**base, "2": "send"}, model)
    sigma3 = Strategy.from_mapping({**base, "6": "send"}, model)
    return sigma1, sigma2, sigma3


def step_one_useless(model: EnvironmentModel) -> frozenset[tuple[State, Action]]:
    """The non-nothing pairs (q, a) that ``audit``'s step one rejects, each
    audited as the one-step log [q, a, t] for a successor t of (q, a)."""
    useless = set()
    for q, a in model.pairs():
        if a == NOTHING:
            continue
        successor = next(iter(model.successors(q, a)))
        outcome = audit(model, Behavior((q, a, successor)))
        if outcome.reason is AuditReason.STEP_ONE_USELESS:
            useless.add((q, a))
    return frozenset(useless)


def travel_models() -> dict[str, EnvironmentModel]:
    """The travel purpose family: keys "business" and "lecture"."""
    return parse_model(TRAVEL_MODEL)


def travel_behaviors() -> tuple[Behavior, Behavior]:
    first, second = parse_log(TRAVEL_LOG, travel_models()["business"])
    return first, second


@pytest.fixture(scope="session")
def physician():
    """The bundled physician purpose family: {"treat", "profit"}."""
    return physician_models()


@pytest.fixture(scope="session")
def treat(physician):
    return physician["treat"]


@pytest.fixture(scope="session")
def profit(physician):
    return physician["profit"]


@pytest.fixture(scope="session")
def logs():
    """(b1, b2): the redundant-referral and necessary-referral behaviors."""
    return physician_behaviors()


@pytest.fixture(scope="session")
def sigmas(treat):
    """(sigma1, sigma2, sigma3) reference strategies."""
    return physician_strategies(treat)


@pytest.fixture(scope="session")
def travel():
    return travel_models()


@pytest.fixture(scope="session")
def travel_logs():
    return travel_behaviors()
