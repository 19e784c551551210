"""CI smoke test for `repro cluster`.

Boots the real router as a subprocess (which spawns and supervises two
replica subprocesses of its own), then checks the cluster contract end
to end:

* **shard affinity** — the same job twice reaches the same replica, and
  the second answer is served warm (from a cache tier or the replica's
  own result cache);
* **placement spread** — a seed-varied workload reaches both replicas;
* **kill under load** — one replica is SIGKILLed mid-burst and every
  client request must still succeed (router failover + client retries);
* **self-healing** — the supervisor restarts the killed replica and the
  fleet reports two routable replicas again;
* **drain** — SIGTERM exits 0 after finishing in-flight work.

The final aggregate ``/stats`` snapshot is written to
CLUSTER_STATS.json and uploaded as a CI artifact.  Run from the repo
root:

    PYTHONPATH=src python scripts/cluster_smoke.py
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.serve.client import ServeClient, ServeError  # noqa: E402

SMALL = {"dataset": "cora", "scale": 0.2, "hidden": 16, "layers": 1}


def check(condition: bool, label: str) -> None:
    status = "ok" if condition else "FAIL"
    print(f"smoke: {label}: {status}", flush=True)
    if not condition:
        raise SystemExit(f"smoke check failed: {label}")


def boot(cache_dir: str) -> tuple[subprocess.Popen, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    env["REPRO_CACHE_DIR"] = cache_dir
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "cluster", "--port", "0",
         "--replicas", "2",
         "--probe-interval", "0.25", "--fail-threshold", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    # The router announces itself only after both replicas are up; their
    # forwarded "listening on" lines come first, so match on the prefix.
    deadline = time.monotonic() + 180.0
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line and process.poll() is not None:
            raise SystemExit("smoke: cluster died during startup")
        print(f"smoke: boot: {line.rstrip()}", flush=True)
        if line.startswith("repro-cluster:") and "listening on" in line:
            port = int(line.rsplit(":", 1)[1])
            pump = threading.Thread(
                target=lambda: [None for _ in process.stdout], daemon=True
            )
            pump.start()
            return process, port
    raise SystemExit("smoke: cluster never reported its port")


def main() -> int:
    with tempfile.TemporaryDirectory() as cache_dir:
        process, port = boot(cache_dir)
        try:
            client = ServeClient("127.0.0.1", port, timeout=120.0, retries=4)
            health = client.healthz()
            check(health["status"] == "ok", "healthz is ok")
            check(health["replicas_up"] == 2, "two replicas routable")

            # Shard affinity: the same job lands on the same replica,
            # and the repeat is warm — answered by the owner or by the
            # router reading the owner's shard.
            first = client.simulate(SMALL)
            second = client.simulate(SMALL)
            check(first["key"] == second["key"], "stable job key")
            check(first["cached"] is False, "first request computed")
            check(second["cached"] is True, "second request served warm")
            owner = first.get("replica")
            check(
                second.get("replica") in (owner, None),
                f"repeat stayed on replica {owner} (or a router tier)",
            )

            # Placement spread: seed-varied jobs reach both replicas.
            with ThreadPoolExecutor(4) as pool:
                spread = list(pool.map(
                    lambda seed: client.simulate({**SMALL, "seed": seed}),
                    range(1, 9),
                ))
            replicas_used = {p.get("replica") for p in spread} - {None}
            check(
                len(replicas_used) == 2,
                f"workload spread across both replicas ({sorted(replicas_used)})",
            )

            # Kill one replica mid-burst: zero client-visible failures.
            stats = client.stats()
            victim_pid = None
            for state in stats["supervisor"]["replicas"].values():
                if state["state"] == "up" and state["pid"]:
                    victim_pid = state["pid"]
                    break
            check(victim_pid is not None, "found a replica pid to kill")

            fired = [0]

            def kill_when_loaded() -> None:
                while fired[0] < 4:
                    time.sleep(0.05)
                os.kill(victim_pid, signal.SIGKILL)
                print(f"smoke: killed replica pid {victim_pid}", flush=True)

            killer = threading.Thread(target=kill_when_loaded)
            killer.start()

            def fire(seed: int) -> bool:
                fired[0] += 1
                try:
                    client.simulate({**SMALL, "seed": 100 + seed})
                    return True
                except ServeError:
                    return False

            with ThreadPoolExecutor(8) as pool:
                outcomes = list(pool.map(fire, range(24)))
            killer.join()
            failed = len(outcomes) - sum(outcomes)
            check(failed == 0, f"zero failed requests during kill ({failed})")

            # Self-healing: the supervisor restarts the dead replica.
            healed = False
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                health = client.healthz()
                if health["replicas_up"] == 2:
                    healed = True
                    break
                time.sleep(0.5)
            check(healed, "killed replica restarted and routable again")

            snapshot = client.stats()
            check(
                snapshot["supervisor"]["restarts_total"] >= 1,
                "supervisor recorded the restart",
            )
            Path("CLUSTER_STATS.json").write_text(
                json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
            )
            print("smoke: wrote CLUSTER_STATS.json", flush=True)

            # SIGTERM drain: router drains, replicas drain, exit 0.
            process.send_signal(signal.SIGTERM)
            exit_code = process.wait(timeout=120.0)
            check(exit_code == 0, "SIGTERM drained and exited 0")
        finally:
            if process.poll() is None:
                process.kill()
            process.stdout.close()
            process.wait()
    print("smoke: all checks passed", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
