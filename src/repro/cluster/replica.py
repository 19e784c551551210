"""Replica lifecycle: spawn, health-probe, restart with backoff, drain.

Each replica is a full ``repro serve`` process on its own ephemeral
port with its own cache shard directory.  The supervisor runs one
asyncio task per replica slot:

* **spawn** — start the subprocess, wait for its ``listening on`` line,
  and announce the address to the router (``on_up``);
* **probe** — ``GET /healthz`` every ``probe_interval``; the response's
  ``inflight``/``uptime_seconds`` distinguish *busy* (answers, work in
  flight) from *hung* (no answer at all).  Only ``fail_threshold``
  consecutive silent probes — or the process exiting — count as down;
* **restart** — crashed or hung replicas are killed, removed from the
  ring (``on_down``), and relaunched after an exponential backoff that
  resets once a replica stays up for ``stable_seconds``;
* **drain** — an operator drain removes the replica from the ring
  first, then SIGTERMs it so in-flight work completes, and does *not*
  restart it until asked.

The process launch is injectable (``factory``) so tests can supervise
fake replicas without real subprocesses.
"""

from __future__ import annotations

import asyncio
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ..serve.http import ReplyError
from . import wire

__all__ = [
    "ReplicaConfig",
    "ReplicaSpawnError",
    "SubprocessReplica",
    "ReplicaSupervisor",
]

#: Replica slot states as reported by :meth:`ReplicaSupervisor.snapshot`.
STATES = ("starting", "up", "down", "draining", "stopped")


@dataclass(frozen=True)
class ReplicaConfig:
    """Launch spec for one replica slot."""

    replica_id: int
    host: str = "127.0.0.1"
    cache_dir: "Path | str | None" = None
    serve_args: tuple[str, ...] = ()  # extra ``repro serve`` flags

    @property
    def name(self) -> str:
        return str(self.replica_id)


class ReplicaSpawnError(RuntimeError):
    """The replica process failed to start or report its port."""


class SubprocessReplica:
    """One ``repro serve`` subprocess with stdout forwarding."""

    def __init__(self, config: ReplicaConfig, *, forward_output: bool = True) -> None:
        self.config = config
        self.forward_output = forward_output
        self.process: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None
        self._pump: threading.Thread | None = None

    # ------------------------------------------------------------------
    def start(self, timeout: float = 60.0) -> tuple[str, int]:
        """Spawn and block until the server reports its port."""
        import os

        cfg = self.config
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--host", cfg.host, "--port", "0",
            "--replica-id", cfg.name,
            *cfg.serve_args,
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(Path(__file__).resolve().parents[2])
            + os.pathsep + env.get("PYTHONPATH", "")
        )
        if cfg.cache_dir is not None:
            env["REPRO_CACHE_DIR"] = str(cfg.cache_dir)
        self.process = subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                if self.process.poll() is not None:
                    raise ReplicaSpawnError(
                        f"replica {cfg.name} exited with "
                        f"{self.process.returncode} during startup"
                    )
                continue
            if self.forward_output:
                print(f"replica-{cfg.name}: {line.rstrip()}", flush=True)
            if "listening on" in line:
                host, _, port = line.rstrip().rpartition(":")
                host = host.rsplit(" ", 1)[-1]
                self.address = (host, int(port))
                self._pump = threading.Thread(target=self._drain_stdout, daemon=True)
                self._pump.start()
                return self.address
        self.kill()
        raise ReplicaSpawnError(
            f"replica {cfg.name} never reported its port within {timeout:g}s"
        )

    def _drain_stdout(self) -> None:
        # The pipe must keep draining or the child blocks on a full
        # buffer; forward its (rare) lifecycle lines when asked to.
        try:
            for line in self.process.stdout:
                if self.forward_output:
                    print(
                        f"replica-{self.config.name}: {line.rstrip()}",
                        flush=True,
                    )
        except ValueError:
            pass  # stdout closed during teardown

    # ------------------------------------------------------------------
    @property
    def pid(self) -> int | None:
        return self.process.pid if self.process is not None else None

    def poll(self) -> int | None:
        return self.process.poll() if self.process is not None else None

    def terminate(self) -> None:
        if self.process is not None and self.process.poll() is None:
            self.process.terminate()

    def kill(self) -> None:
        if self.process is not None and self.process.poll() is None:
            self.process.kill()

    def wait(self, timeout: float | None = None) -> int | None:
        if self.process is None:
            return None
        try:
            return self.process.wait(timeout)
        except subprocess.TimeoutExpired:
            return None

    def close(self) -> None:
        if self.process is not None and self.process.stdout is not None:
            try:
                self.process.stdout.close()
            except OSError:
                pass


async def healthz_probe(host: str, port: int, timeout: float) -> dict:
    """Default probe: ``GET /healthz``, raising on any failure."""
    status, payload, _ = await wire.request_json(
        host, port, "GET", "/healthz", timeout=timeout
    )
    if status != 200:
        raise ReplyError(f"healthz answered HTTP {status}")
    return payload


@dataclass
class _Slot:
    """Mutable supervision state for one replica id."""

    config: ReplicaConfig
    state: str = "starting"
    process: object | None = None
    address: tuple[str, int] | None = None
    restarts: int = 0
    consecutive_failures: int = 0
    last_health: dict = field(default_factory=dict)
    up_since: float | None = None
    stop_requested: bool = False
    task: "asyncio.Task | None" = None


class ReplicaSupervisor:
    """Owns N replica slots; keeps each one alive and announced."""

    def __init__(
        self,
        configs: "list[ReplicaConfig] | tuple[ReplicaConfig, ...]",
        *,
        factory: Callable[[ReplicaConfig], SubprocessReplica] = SubprocessReplica,
        probe: Callable[..., "asyncio.Future | object"] = healthz_probe,
        probe_interval: float = 1.0,
        probe_timeout: float = 2.0,
        fail_threshold: int = 3,
        restart_backoff: float = 0.5,
        backoff_cap: float = 10.0,
        stable_seconds: float = 30.0,
        start_timeout: float = 120.0,
        on_up: Callable[[str, str, int], None] | None = None,
        on_down: Callable[[str], None] | None = None,
    ) -> None:
        if fail_threshold < 1:
            raise ValueError("fail_threshold must be >= 1")
        self._slots = {cfg.name: _Slot(cfg) for cfg in configs}
        if len(self._slots) != len(configs):
            raise ValueError("duplicate replica ids")
        self.factory = factory
        self.probe = probe
        self.probe_interval = probe_interval
        self.probe_timeout = probe_timeout
        self.fail_threshold = fail_threshold
        self.restart_backoff = restart_backoff
        self.backoff_cap = backoff_cap
        self.stable_seconds = stable_seconds
        self.start_timeout = start_timeout
        self.on_up = on_up or (lambda name, host, port: None)
        self.on_down = on_down or (lambda name: None)
        self.restarts_total = 0

    # -- lifecycle ------------------------------------------------------
    async def start(self, *, wait_ready: bool = True) -> None:
        """Launch every slot; optionally block until all are up."""
        for slot in self._slots.values():
            slot.stop_requested = False
            slot.task = asyncio.create_task(self._run_slot(slot))
        if wait_ready:
            await self.wait_all_up(self.start_timeout)

    async def wait_all_up(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            states = [s.state for s in self._slots.values()]
            if all(state == "up" for state in states):
                return
            if any(s.task is not None and s.task.done() for s in self._slots.values()):
                for slot in self._slots.values():
                    if slot.task is not None and slot.task.done():
                        slot.task.result()  # surface the crash
            await asyncio.sleep(0.05)
        raise ReplicaSpawnError(
            f"replicas not all up within {timeout:g}s: "
            + ", ".join(f"{n}={s.state}" for n, s in sorted(self._slots.items()))
        )

    async def stop(self, *, drain_timeout: float = 30.0) -> None:
        """Stop supervising, SIGTERM every replica, reap them all."""
        for slot in self._slots.values():
            slot.stop_requested = True
            if slot.task is not None:
                slot.task.cancel()
        for slot in self._slots.values():
            if slot.task is not None:
                try:
                    await slot.task
                except (asyncio.CancelledError, Exception):  # noqa: BLE001
                    pass
        await asyncio.gather(
            *(self._shutdown_slot(s, drain_timeout) for s in self._slots.values())
        )

    async def _shutdown_slot(self, slot: _Slot, drain_timeout: float) -> None:
        process = slot.process
        if process is None:
            slot.state = "stopped"
            return
        if slot.state == "up":
            self.on_down(slot.config.name)
        process.terminate()
        exited = await asyncio.to_thread(process.wait, drain_timeout)
        if exited is None:
            process.kill()
            await asyncio.to_thread(process.wait, 10.0)
        if hasattr(process, "close"):
            process.close()
        slot.state = "stopped"

    # -- one slot's supervision loop ------------------------------------
    async def _run_slot(self, slot: _Slot) -> None:
        while not slot.stop_requested:
            slot.state = "starting"
            process = self.factory(slot.config)
            try:
                address = await asyncio.to_thread(process.start, self.start_timeout)
            except Exception:  # noqa: BLE001 — spawn failure = backoff + retry
                slot.process = process
                slot.state = "down"
                if slot.stop_requested:
                    return
                await self._backoff(slot)
                continue
            slot.process = process
            slot.address = address
            slot.consecutive_failures = 0
            slot.up_since = time.monotonic()
            slot.state = "up"
            self.on_up(slot.config.name, address[0], address[1])

            healthy = await self._probe_until_down(slot, process)
            if slot.stop_requested:
                return
            # The slot is down: unroute it, reap the process, back off.
            self.on_down(slot.config.name)
            slot.state = "down"
            process.kill()
            await asyncio.to_thread(process.wait, 10.0)
            if hasattr(process, "close"):
                process.close()
            if (
                healthy is not None
                and slot.up_since is not None
                and time.monotonic() - slot.up_since >= self.stable_seconds
            ):
                slot.restarts = 0  # a long healthy run resets the backoff
            await self._backoff(slot)

    async def _probe_until_down(self, slot: _Slot, process) -> "float | None":
        """Probe until the replica is down; returns last healthy time."""
        last_ok: float | None = time.monotonic()
        while not slot.stop_requested:
            try:
                await asyncio.sleep(self.probe_interval)
            except asyncio.CancelledError:
                slot.stop_requested = True
                raise
            if slot.stop_requested:
                return last_ok
            if process.poll() is not None:
                return last_ok  # crashed — the run loop restarts it
            try:
                health = await self.probe(
                    slot.address[0], slot.address[1], self.probe_timeout
                )
            except asyncio.CancelledError:
                slot.stop_requested = True
                raise
            except Exception:  # noqa: BLE001 — silent probe
                slot.consecutive_failures += 1
                if slot.consecutive_failures >= self.fail_threshold:
                    return last_ok  # hung — restart it
            else:
                # Busy replicas still answer (inflight > 0); any timely
                # 200 means alive, so the failure streak resets.
                slot.consecutive_failures = 0
                slot.last_health = health
                last_ok = time.monotonic()
        return last_ok

    async def _backoff(self, slot: _Slot) -> None:
        slot.restarts += 1
        self.restarts_total += 1
        delay = min(
            self.backoff_cap,
            self.restart_backoff * 2 ** min(slot.restarts - 1, 8),
        )
        try:
            await asyncio.sleep(delay)
        except asyncio.CancelledError:
            slot.stop_requested = True
            raise

    # -- operator actions -----------------------------------------------
    async def drain_replica(
        self, replica_id: "int | str", *, drain_timeout: float = 30.0
    ) -> dict:
        """Unroute + SIGTERM one replica; it stays down until restarted."""
        slot = self._slot(replica_id)
        if slot.state in ("draining", "stopped"):
            return self._slot_snapshot(slot)
        slot.stop_requested = True
        if slot.task is not None:
            slot.task.cancel()
            try:
                await slot.task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
            slot.task = None
        was_up = slot.state == "up"
        slot.state = "draining"
        if was_up:
            self.on_down(slot.config.name)
        process = slot.process
        if process is not None:
            process.terminate()
            exited = await asyncio.to_thread(process.wait, drain_timeout)
            if exited is None:
                process.kill()
                await asyncio.to_thread(process.wait, 10.0)
            if hasattr(process, "close"):
                process.close()
        slot.state = "stopped"
        return self._slot_snapshot(slot)

    async def start_replica(self, replica_id: "int | str") -> dict:
        """Relaunch a drained/stopped replica slot."""
        slot = self._slot(replica_id)
        if slot.task is not None and not slot.task.done():
            return self._slot_snapshot(slot)
        slot.stop_requested = False
        slot.task = asyncio.create_task(self._run_slot(slot))
        return self._slot_snapshot(slot)

    # -- introspection --------------------------------------------------
    def _slot(self, replica_id: "int | str") -> _Slot:
        name = str(replica_id)
        if name not in self._slots:
            raise KeyError(f"no such replica: {name}")
        return self._slots[name]

    def states(self) -> dict[str, str]:
        return {name: slot.state for name, slot in sorted(self._slots.items())}

    def _slot_snapshot(self, slot: _Slot) -> dict:
        process = slot.process
        return {
            "replica_id": slot.config.name,
            "state": slot.state,
            "address": list(slot.address) if slot.address else None,
            "pid": getattr(process, "pid", None),
            "restarts": slot.restarts,
            "consecutive_failures": slot.consecutive_failures,
            "uptime_seconds": (
                time.monotonic() - slot.up_since
                if slot.state == "up" and slot.up_since is not None
                else None
            ),
            "last_health": {
                k: slot.last_health[k]
                for k in ("status", "inflight", "uptime_seconds")
                if k in slot.last_health
            },
        }

    def snapshot(self) -> dict:
        return {
            "replicas": {
                name: self._slot_snapshot(slot)
                for name, slot in sorted(self._slots.items())
            },
            "restarts_total": self.restarts_total,
            "probe_interval_seconds": self.probe_interval,
            "fail_threshold": self.fail_threshold,
        }
