"""Regenerate the expectations in ``data/`` from the current program.

    python3 perfbench/make_data.py

Runs every benchmark input once, unrelabelled, through the same
in-process CLI path as ``run.py`` and records what the program prints:
the census lines in order, per-class invariants for ``sweep``, output
digests for ``corpus`` and canonical texts for ``canon``.  Operations that
overrun their workload's budget in ``run.BUDGETS_S`` (read here as
wall-clock seconds) or exit non-zero are written to
``known_failures.json``.  Only rerun it when a change is meant to alter
outputs, and review the diff.
"""

from __future__ import annotations

import json
import signal
import sys

import run
import workloads as w


def capture(cli, argv, stdin: str, budget: float) -> tuple[str, str]:
    """(outcome, stdout) of one command; stdout is empty unless it finished."""
    op = w.Op("capture", tuple(argv), stdin, lambda out: None)
    outcome, _, out = run.execute(cli, op, budget)
    return outcome, (out if outcome == "ok" else "")


def dump(name: str, doc) -> None:
    with open(w.DATA / name, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    signal.signal(signal.SIGALRM, run._alarm)
    cli = run.load_package()
    from greechie import corpus

    w.DATA.mkdir(exist_ok=True)
    known: dict[str, str] = {}

    census = {}
    for a, b in w.CENSUS_SPECS:
        outcome, out = capture(cli, ["generate", "--atoms", str(a), "--blocks", str(b)], "", 120)
        assert outcome == "ok", (a, b, outcome)
        census[f"{a},{b}"] = out.splitlines()
    dump("census.json", census)

    sweep = {}
    for lines in census.values():
        for line in lines:
            outcome, out = capture(cli, ["states", "--strong", "--zero-one", "-"], line + "\n",
                                   run.BUDGETS_S["sweep"])
            assert outcome == "ok", (line, outcome)
            doc = json.loads(out)
            sweep[line] = {
                "classification": doc["classification"],
                "atom_ranges": sorted(doc["atom_ranges"]),
                "strong": doc["strong"]["admits_strong_set"],
                "zero_one_count": doc["zero_one"]["count"],
                "strong_01": doc["zero_one"]["admits_strong_01_set"],
            }
    dump("sweep.json", sweep)

    entries = [
        {
            "name": e.name,
            "line": e.mmp_line,
            "classification": e.state_classification,
            "value": None if e.unique_state_value is None else str(e.unique_state_value),
            "strong": e.admits_strong_set,
        }
        for e in corpus.ENTRIES
    ]
    outputs = {}
    for e in entries:
        for cmd, argv in w.CORPUS_COMMANDS.items():
            name = f"corpus:{cmd}:{e['name']}"
            outcome, out = capture(cli, argv, e["line"] + "\n", run.BUDGETS_S["corpus"])
            if outcome == "ok":
                outputs[name] = {"sha256": w.sha256(out)}
            else:
                known[name] = outcome
    outcome, out = capture(cli, ["corpus", "--check"], "", 60)
    assert outcome == "ok", outcome
    outputs["corpus:check"] = {"sha256": w.sha256(out)}
    dump("corpus.json", {"entries": entries, "outputs": outputs})

    canon = {}
    inputs = [(e["name"], e["line"], None) for e in entries] + w.families()
    for name, line, aut in inputs:
        outcome, out = capture(cli, ["canon", "-"], line + "\n", run.BUDGETS_S["canon"])
        if outcome == "ok":
            text, count = out.split()
            assert aut is None or int(count) == aut, (name, count, aut)
            canon[name] = {"canonical": text, "aut": int(count)}
        else:
            canon[name] = {"canonical": None, "aut": aut}
            known[f"canon:canon:{name}"] = outcome
    dump("canon.json", canon)
    dump("known_failures.json", known)
    print(json.dumps(known, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
