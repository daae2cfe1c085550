"""Name registry: the RMI-registry analogue (paper section 4.1).

"Entries for each compute server in the RMI registry make it easy for
client applications to locate remote compute servers."  This is a tiny
TCP key→(host, port) store with the same role: servers register
themselves on startup, clients look them up by name.

Run in-process (tests, single-machine clusters)::

    reg = RegistryServer().start()
    client = RegistryClient("127.0.0.1", reg.port)
    client.register("alpha", "127.0.0.1", 9001)
    assert client.lookup("alpha") == ("127.0.0.1", 9001)

or standalone: ``python -m repro.distributed.registry --port 5000``.
"""

from __future__ import annotations

import argparse
import threading
from typing import Dict, List, Optional, Tuple

from repro.errors import RegistryError
from repro.distributed.wire import (RequestClient, RequestServer,
                                    connect_with_retry)

__all__ = ["RegistryServer", "RegistryClient"]


class RegistryServer(RequestServer):
    """Threaded TCP registry server."""

    def __init__(self, port: int = 0) -> None:
        super().__init__(port, "registry")
        self._entries: Dict[str, Tuple[str, int]] = {}
        self._lock = threading.Lock()

    def _dispatch(self, request: dict) -> dict:
        op = request.get("op")
        with self._lock:
            if op == "register":
                self._entries[request["name"]] = (request["host"], request["port"])
                return {"ok": True}
            if op == "unregister":
                self._entries.pop(request["name"], None)
                return {"ok": True}
            if op == "lookup":
                entry = self._entries.get(request["name"])
                if entry is None:
                    return {"ok": False, "error": f"unknown name {request['name']!r}"}
                return {"ok": True, "host": entry[0], "port": entry[1]}
            if op == "list":
                return {"ok": True, "names": sorted(self._entries)}
        return {"ok": False, "error": f"unknown op {op!r}"}

    # -- in-process convenience -----------------------------------------------
    def entries(self) -> Dict[str, Tuple[str, int]]:
        with self._lock:
            return dict(self._entries)


class RegistryClient(RequestClient):
    """Client for :class:`RegistryServer`; one connection, thread-safe."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        super().__init__(lambda: connect_with_retry(host, port, attempts=5),
                         RegistryError, f"registry {host}:{port}")

    def register(self, name: str, host: str, port: int) -> None:
        self.request({"op": "register", "name": name, "host": host, "port": port})

    def unregister(self, name: str) -> None:
        self.request({"op": "unregister", "name": name})

    def lookup(self, name: str) -> Tuple[str, int]:
        reply = self.request({"op": "lookup", "name": name})
        return reply["host"], reply["port"]

    def list(self) -> List[str]:
        return self.request({"op": "list"})["names"]


def main(argv: Optional[List[str]] = None) -> None:  # pragma: no cover
    parser = argparse.ArgumentParser(description="repro name registry")
    parser.add_argument("--port", type=int, default=5000)
    args = parser.parse_args(argv)
    server = RegistryServer(args.port).start()
    print(f"REGISTRY LISTENING {server.port}", flush=True)
    threading.Event().wait()


if __name__ == "__main__":  # pragma: no cover
    main()
