"""Check that ``repro obs report`` prints everything the retired readers did.

Before the read side was folded into one page, a run record was read
through four commands: ``obs report``, ``obs watch``, ``obs explain`` and
``ft report``.  Given a checkout that still has the three retired
commands and one record directory per case, this script runs them there
and runs ``obs report`` from this tree, then checks that every table row
and every audit event (by ``seq``) that a retired view printed appears in
the report, or lies in the ``seq`` range the timeline's elision line
says it left out.

Exempt, because the report prints them differently or on purpose not at
all: view titles and rulers, placeholder lines in parentheses, the
"correlated causes" table (its counts are the audit table's), the
"causal timeline (tail)" (its order mixed units), and the regime-shift
list, whose entries are matched by their fields against the timeline's
``latency_regime_shift`` events instead.

Usage::

    python docs/measurements/check_reader_parity.py OLD_TREE RECORD [RECORD ...]

``OLD_TREE`` is a checkout whose ``src/`` has the retired readers.
Exit 0 when every record passes, 1 otherwise, printing what is missing.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[2]
RETIRED = (["obs", "watch"], ["obs", "explain"], ["ft", "report"])
#: blocks (a title line up to the next blank line) that are not checked line by line
EXEMPT_BLOCKS = ("correlated causes", "causal timeline (tail)", "regime shifts (")
#: title lines the report words differently (a view's name, a list the timeline replaced)
TITLES = (
    "repro obs explain", "repro ft report", "failure timeline (", "health & SLO (",
    "telemetry windows (",
)
EVENT = re.compile(r"^\s*#(\d+) (\S+)")
ELIDED = re.compile(r"^\s*\.\.\. (\d+) events left out \(#(\d+) to #(\d+)\)")


def run(tree: Path, argv, record: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "repro", *argv, record],
        env=env, capture_output=True, text=True, cwd=tree,
    )
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} {record}: exit {done.returncode}\n{done.stderr}")
    return done.stdout


def blocks(text: str):
    """``(title, lines)`` per blank-line separated block."""
    block = []
    for line in text.splitlines() + [""]:
        if line.strip():
            block.append(line.rstrip())
        elif block:
            yield block[0], block
            block = []


def shown_and_elided(report: str):
    shown, elided = set(), []
    for line in report.splitlines():
        if match := EVENT.match(line):
            shown.add(int(match.group(1)))
        elif match := ELIDED.match(line):
            elided.append((int(match.group(2)), int(match.group(3))))
    return shown, elided


def shift_fields(line: str):
    return dict(re.findall(r"(\w+)=(\S+)", line))


def check(old_tree: Path, record: str) -> list:
    report = run(HERE, ["obs", "report"], record)
    report_lines = set(line.rstrip() for line in report.splitlines())
    shown, elided = shown_and_elided(report)
    # a listed shift is the journal's event with the same window, metric and value
    shift_seqs = {
        (str(event.get("window")), str(event.get("metric")), str(event.get("current"))): event["seq"]
        for event in map(json.loads, Path(record, "audit.jsonl").read_text().splitlines())
        if event.get("kind") == "latency_regime_shift"
    }

    def accounted(seq: int) -> bool:
        return seq in shown or any(low <= seq <= high for low, high in elided)

    missing = []
    for argv in RETIRED:
        view = " ".join(argv)
        for title, lines in blocks(run(old_tree, argv, record)):
            if title.startswith("regime shifts ("):
                for line in lines[1:]:
                    want = shift_fields(line)
                    seq = shift_seqs.get((want["window"], want["metric"], want["current"]))
                    if seq is None or not accounted(seq):
                        missing.append(f"{view}: regime shift {line.strip()}")
                continue
            if title.startswith(EXEMPT_BLOCKS) or (
                len(lines) == 2 and lines[1].startswith("(")  # a title and its placeholder
            ):
                continue
            for line in lines:
                stripped = line.strip()
                if (
                    set(stripped) <= {"-", " ", "="}
                    or stripped.startswith("(")
                    or stripped.startswith("... and ")
                    or line.startswith(TITLES)
                ):
                    continue
                if match := EVENT.match(line):
                    if not accounted(int(match.group(1))):
                        missing.append(f"{view}: event #{match.group(1)}")
                elif line not in report_lines:
                    missing.append(f"{view}: row {line!r}")
    return missing


def main(argv) -> int:
    if len(argv) < 2:
        print(__doc__.split("Usage::")[1], file=sys.stderr)
        return 2
    old_tree, records = Path(argv[0]).resolve(), argv[1:]
    failed = False
    for record in records:
        missing = check(old_tree, record)
        print(f"{record}: {'ok' if not missing else f'{len(missing)} missing'}")
        for entry in missing:
            print(f"  {entry}")
        failed = failed or bool(missing)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
