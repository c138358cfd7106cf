"""Run the corpus workload's verify route and check on every equation of the
draw pools and print the ones that raise, fail, run out of memory or time,
then the slowest ones.

    python3 bench/screen.py

Each equation runs in a forked child with a 2 GiB address-space limit and a
60 s time limit, one child at a time.  An equation it prints belongs in
corpus.EXCLUDED (and in a FOUND line of CHANGES.md) before runs may draw it:
a run's failed count must not depend on its seed.
"""

import multiprocessing
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import corpus  # noqa: E402
import workloads  # noqa: E402

MEMORY_LIMIT = 2 << 30
TIME_LIMIT = 60


def _child(conn, eq) -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
    op = workloads.Op(corpus.render(eq), (eq,))
    try:
        ok = workloads.CorpusCheck()(op, workloads.corpus_run(eq))
        why = "wrong answer"
    except Exception as exc:  # reported to the parent
        ok, why = False, repr(exc)[:200]
    conn.send((ok, why))
    conn.close()


def screen(eq) -> tuple[bool, str, float]:
    ctx = multiprocessing.get_context("fork")
    parent, child = ctx.Pipe(duplex=False)
    start = time.perf_counter()
    proc = ctx.Process(target=_child, args=(child, eq))
    proc.start()
    child.close()
    try:
        ok, why = (parent.recv() if parent.poll(TIME_LIMIT)
                   else (False, f"over {TIME_LIMIT} s"))
    except EOFError:
        ok, why = False, "child died (out of memory?)"
    finally:
        if proc.is_alive():
            proc.kill()
        proc.join()
        parent.close()
    return ok, why, time.perf_counter() - start


def main() -> None:
    timings = []
    for nvars in (2, 3, 4):
        for eq in corpus.pool(nvars):
            ok, why, seconds = screen(eq)
            timings.append((seconds, corpus.render(eq)))
            if not ok:
                print(f"FAIL {corpus.render(eq)}: {why}\n     {eq!r}",
                      flush=True)
    timings.sort(reverse=True)
    print(f"{len(timings)} equations in {sum(t for t, _ in timings):.1f} s; "
          "slowest:")
    for seconds, label in timings[:10]:
        print(f"  {seconds * 1000:8.1f} ms  {label}")


if __name__ == "__main__":
    main()
