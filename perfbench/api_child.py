"""Library workload: solve generated scenarios in one interpreter.

    python perfbench/api_child.py JOB_JSON

The job names the scenarios, the mode and where to write the result.  The
child imports jamgame, builds the parameters, solves one scenario untimed as
a warm-up and prints ``ready``; the parent's set-up time ends there.  In
``setup`` mode it then exits.  In ``run`` mode it solves whole rounds of the
scenario list, timing each scenario, until the time is up.  In ``trace``
mode it alternates untraced and traced rounds and returns the spans of the
last traced round.  Results of the first round
go back to the parent for checking; later rounds must reproduce them.
"""

import json
import sys
import time


def solve(jg, p, start):
    """One operation: the five calls a user of the library makes per scenario."""
    ne = jg.nash_closed_form(p)
    trace = jg.brd(p, start, with_certificate=True)
    se = jg.stackelberg_exact(p)
    approx = jg.stackelberg_approx(p)
    report = jg.improvement_report(p)
    return ne, trace, se, approx, report


def as_json(res) -> dict:
    ne, trace, se, approx, report = res
    cert = trace.certificate
    return {
        "ne": [ne.profile.x, ne.profile.y, ne.regime.value, ne.utilities.u_t, ne.utilities.u_j],
        "brd": {"iterates": [[s.x, s.y] for s in trace.iterates], "converged": trace.converged,
                "iterations_used": trace.iterations_used},
        "cert": [cert.jb_max, cert.predicted_max_iterations],
        "se": [se.profile.x, se.profile.y],
        "approx": approx.profile.x,
        "report": {"u_t_ne": report.u_t_ne, "u_t_se": report.u_t_se, "u_j_ne": report.u_j_ne,
                   "u_j_se": report.u_j_se, "improved": report.improved},
    }


def fingerprint(res) -> tuple:
    ne, trace, se, approx, report = res
    return (ne.profile.x, ne.profile.y, trace.iterations_used, trace.iterates[-1].x,
            se.profile.x, approx.profile.x, report.u_t_se, report.improved)


def run_round(jg, cases, times):
    out = []
    for p, start in cases:
        t0 = time.perf_counter_ns()
        try:
            res = solve(jg, p, start)
        except (jg.JamGameError, ValueError) as exc:
            res = exc
        times.append(time.perf_counter_ns() - t0)
        out.append(res)
    return out


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    import jamgame as jg

    cases = [(jg.GameParams(**s["params"]), jg.StrategyProfile(*s["start"])) for s in job["scenarios"]]
    solve(jg, *cases[0])
    print("ready", flush=True)
    if job["mode"] == "setup":
        return 0

    seconds, min_rounds = job["seconds"], job["min_rounds"]
    times: list[int] = []
    first = None
    mismatches = failed = 0
    tracer = None
    traced_ns, untraced_ns = [], []
    if job["mode"] == "trace":
        from tracer import Tracer
        tracer = Tracer()

    t_start = time.perf_counter()
    rounds = 0
    while True:
        traced = tracer is not None and rounds % 2 == 1
        if traced:  # rounds repeat exactly, so the spans of the last traced round suffice
            tracer.spans.clear()
            tracer.install()
        t0 = time.perf_counter_ns()
        results = run_round(jg, cases, times)
        (traced_ns if traced else untraced_ns).append(time.perf_counter_ns() - t0)
        if traced:
            tracer.uninstall()
        failed += sum(isinstance(r, Exception) for r in results)
        if first is None:
            first = results
        else:
            mismatches += sum(
                isinstance(a, Exception) != isinstance(b, Exception)
                or (not isinstance(a, Exception) and fingerprint(a) != fingerprint(b))
                for a, b in zip(first, results)
            )
        rounds += 1
        elapsed = time.perf_counter() - t_start
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
            break

    result = {
        "rounds": rounds,
        "times_ns": times,
        "first": [None if isinstance(r, Exception) else as_json(r) for r in first],
        "errors": [repr(r) for r in first if isinstance(r, Exception)],
        "failed": failed,
        "mismatches": mismatches,
    }
    if tracer is not None:
        result.update(spans=tracer.spans, traced_ns=traced_ns, untraced_ns=untraced_ns)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
