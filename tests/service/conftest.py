"""Fixtures for the service layer tests.

The daemon runs its event loop on a dedicated thread so tests drive it
exactly like real clients do — over sockets, from outside the loop.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.cases import case_problem, fig3_network, fig4_network
from repro.scada.config_io import CaseConfig, dump_config
from repro.service import ReproService, ServiceClient


def fig3_config_text() -> str:
    return dump_config(CaseConfig(network=fig3_network(),
                                  problem=case_problem(), spec=None))


def fig4_config_text() -> str:
    return dump_config(CaseConfig(network=fig4_network(),
                                  problem=case_problem(), spec=None))


@pytest.fixture
def fig3_text() -> str:
    return fig3_config_text()


class RunningService:
    """A daemon on a background thread plus a client pointed at it."""

    def __init__(self, **kwargs) -> None:
        kwargs.setdefault("port", 0)
        kwargs.setdefault("jobs", 2)
        self.service = ReproService(**kwargs)
        self.loop = asyncio.new_event_loop()
        started = threading.Event()

        def run() -> None:
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.service.start())
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()
        assert started.wait(10), "service failed to start"
        self.client = ServiceClient(port=self.service.port)

    def submit(self, coro):
        """Run a coroutine on the service loop from the test thread."""
        return asyncio.run_coroutine_threadsafe(coro, self.loop)

    def stop(self) -> None:
        self.submit(self.service.shutdown()).result(timeout=30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()


@pytest.fixture
def running():
    services = []

    def launch(**kwargs) -> RunningService:
        box = RunningService(**kwargs)
        services.append(box)
        return box

    yield launch
    for box in services:
        box.stop()


@pytest.fixture
def service(running):
    return running()
