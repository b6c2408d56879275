"""ClientConfig: the one construction surface of both client flavors.

Both consume the same frozen config; the pre-config per-kwarg resilience
options and the positional caller are gone.
"""

from __future__ import annotations

import asyncio
import warnings

import pytest

from repro.core import AsyncMCSClient, ClientConfig, MCSClient, MCSService
from repro.resilience import CircuitBreaker, RetryPolicy
from repro.resilience.transport import ResilientTransport

pytestmark = pytest.mark.aserve


class TestConfigValue:
    def test_frozen_with_options_derivation(self):
        base = ClientConfig(caller="/O=Grid/CN=a", timeout_s=5.0)
        derived = base.with_options(deadline_s=2.0)
        assert derived.caller == "/O=Grid/CN=a"
        assert derived.deadline_s == 2.0
        assert base.deadline_s is None  # original untouched
        with pytest.raises(Exception):
            base.caller = "mutated"  # frozen dataclass

    def test_resilient_flag(self):
        assert ClientConfig().resilient is False
        assert ClientConfig(retry_policy=RetryPolicy()).resilient is True
        assert ClientConfig(deadline_s=1.0).resilient is True
        assert ClientConfig(breaker=CircuitBreaker("t")).resilient is True


class TestSyncClientConstruction:
    def test_config_flows_to_transport(self):
        client = MCSClient.connect(
            "127.0.0.1", 1, ClientConfig(caller="/O=Grid/CN=c", timeout_s=7.5)
        )
        assert client.caller == "/O=Grid/CN=c"
        assert client._transport.read_timeout == 7.5
        client.close()

    def test_resilience_config_wraps_transport(self):
        client = MCSClient.connect(
            "127.0.0.1", 1, ClientConfig(retry_policy=RetryPolicy())
        )
        assert isinstance(client._transport, ResilientTransport)
        client.close()

    def test_caller_kwarg_stays_silent(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            client = MCSClient.in_process(MCSService(), caller="/O=Grid/CN=x")
        assert [w for w in caught if issubclass(w.category, DeprecationWarning)] == []
        assert client.caller == "/O=Grid/CN=x"

    @pytest.mark.parametrize("flavor", [MCSClient, AsyncMCSClient])
    def test_legacy_kwargs_and_positional_caller_are_gone(self, flavor):
        for legacy in ({"retry_policy": RetryPolicy()}, {"deadline_s": 4.0},
                       {"breaker": CircuitBreaker("t")}):
            with pytest.raises(TypeError):
                flavor.connect("127.0.0.1", 1, **legacy)
            with pytest.raises(TypeError):
                flavor.in_process(MCSService(), **legacy)
        with pytest.raises((TypeError, AttributeError)):  # a str is no ClientConfig
            flavor.connect("127.0.0.1", 1, "/O=Grid/CN=legacy")

    def test_caller_kwarg_overrides_config_caller(self):
        config = ClientConfig(caller="/O=Grid/CN=base", deadline_s=9.0)
        client = MCSClient.connect("127.0.0.1", 1, config, caller="/O=Grid/CN=me")
        assert client.caller == "/O=Grid/CN=me"
        assert client._transport.deadline_s == 9.0
        client.close()


class TestAsyncClientConstruction:
    def test_pool_size_flows_to_async_transport(self):
        async def main():
            client = AsyncMCSClient.connect(
                "127.0.0.1", 1, ClientConfig(pool_size=7, caller="/O=Grid/CN=a")
            )
            assert client.caller == "/O=Grid/CN=a"
            assert client._transport.pool_size == 7
            await client.close()

        asyncio.run(main())

    def test_async_resilience_wrapping(self):
        from repro.resilience.atransport import AsyncResilientTransport

        async def main():
            client = AsyncMCSClient.connect(
                "127.0.0.1", 1, ClientConfig(retry_policy=RetryPolicy())
            )
            assert isinstance(client._transport, AsyncResilientTransport)
            await client.close()

        asyncio.run(main())

    def test_same_config_value_drives_both_flavors(self):
        config = ClientConfig(caller="/O=Grid/CN=both", deadline_s=3.0)
        sync_client = MCSClient.connect("127.0.0.1", 1, config)
        assert sync_client.caller == "/O=Grid/CN=both"
        sync_client.close()

        async def main():
            client = AsyncMCSClient.connect("127.0.0.1", 1, config)
            assert client.caller == "/O=Grid/CN=both"
            await client.close()

        asyncio.run(main())
