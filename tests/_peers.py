"""A scripted TCP peer shared by the reply-reader and router tests."""

import socket
import threading


class ScriptedPeer:
    """A TCP server answering each request with the next scripted bytes.

    ``None`` in the script means "say nothing and wait for the client
    to hang up".  ``accepted`` counts the connections the client dialed.
    """

    def __init__(self, script):
        self.script = list(script)
        self.accepted = 0
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.address = self.listener.getsockname()[:2]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        with self.listener:
            while self.script:
                conn, _ = self.listener.accept()
                self.accepted += 1
                with conn:
                    self._converse(conn)

    def _converse(self, conn):
        data = b""
        while self.script:
            while b"\r\n\r\n" not in data:
                chunk = conn.recv(65536)
                if not chunk:
                    return
                data += chunk
            head, _, data = data.partition(b"\r\n\r\n")
            length = int(head.lower().split(b"content-length: ")[1].split(b"\r")[0])
            data = data[length:]
            reply = self.script.pop(0)
            if reply is None:
                while conn.recv(65536):
                    pass
                return
            conn.sendall(reply)

    def join(self):
        self.thread.join(10.0)
        assert not self.thread.is_alive()
