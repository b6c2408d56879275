"""The request-parser tests, collected under their earlier ids too.

They live in ``tests/soap/test_httpproto.py``, beside the other tests of
:mod:`repro.soap.framing`.  This module only re-collects them in the
``aserve`` lane, and goes when ``tests/aserve`` itself does.
"""

import pytest

from tests.soap.test_httpproto import (  # noqa: F401 - collected here
    TestFailClosed,
    TestKeepAliveSemantics,
    TestResponseRendering,
    TestSplitFuzz,
    TestStateTracking,
)

pytestmark = pytest.mark.aserve
