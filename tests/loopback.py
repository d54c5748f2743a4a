"""A timing server on a daemon thread, for live loopback tests."""

from __future__ import annotations

import threading

from ctlab.channel import ChannelConfig, TimingServer


def start_server_thread(config: ChannelConfig, host: str = "127.0.0.1", port: int = 0):
    """Spawn a server on an ephemeral port; returns (server, thread)."""
    server = TimingServer(config, host, port)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread
