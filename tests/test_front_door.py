"""Seeded mutation fuzz of the command line over instance files.

Each case mutates one instance file (a value swapped for a hostile one, an
entry deleted or duplicated, the text truncated or a byte changed) and runs
it through ``cli.main`` for every command.  The files are the committed
``instances/*.json``, and then the largest instances of the seeded corpora in
``corpus.py`` plus one alldiff above the oracle's enumeration cap, so the
size guard's exit 5 is fuzzed too.  Whatever the file says,
the program must answer with an exit status from the table in ``cli`` and a
message, never a traceback, and its stdout and its stderr must each stay
within a fixed multiple of the file's size: no input makes the work of
reporting it unbounded.
"""

import json
import random
from pathlib import Path

from rcfilter import weighted_instance
from rcfilter.cli import EXIT_SIZE, main
from rcfilter.model import instance_to_dict
from rcfilter.oracle import MAX_ALLDIFF_VARS

from corpus import alldiff_corpus, path_corpus

INSTANCES = sorted((Path(__file__).resolve().parent.parent / "instances").glob("*.json"))
COMMANDS = ("filter", "oracle", "verify", "bound")
EXIT_CODES = {0, 1, 2, 3, 4, 5}
CASES = 600
GENERATED_CASES = 400
OUTPUT_PER_BYTE = 16  # output bytes allowed per byte of the file, beyond a fixed allowance
OUTPUT_ALLOWANCE = 512

NUMBERS = (0, 1, 2, -1, 7, 10**6, 10**30, -(10**30))
NOT_NUMBERS = (1.5, True, None, "0", [], {}, [0, 0, 0])


def _slots(node, out):
    """Every (container, key) pair below node, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in list(items):
        out.append((node, key))
        if isinstance(child, (dict, list)):
            _slots(child, out)
    return out


def _mutate(rng: random.Random, text: str) -> bytes:
    if rng.random() < 0.2:
        raw = bytearray(text.encode())
        if rng.random() < 0.5:
            return bytes(raw[: rng.randrange(len(raw))])
        raw[rng.randrange(len(raw))] = rng.randrange(256)
        return bytes(raw)
    data = json.loads(text)
    for _ in range(rng.randint(1, 3)):
        slots = _slots(data, [])
        if not slots:
            break
        # half the time a top-level field, such as n_vars, z_max or the sink
        top = [(node, key) for node, key in slots if node is data or node is data.get("path")]
        node, key = rng.choice(top if rng.random() < 0.5 else slots)
        action = rng.random()
        if action < 0.5 and isinstance(node[key], int):
            node[key] = rng.choice((node[key] + 1, node[key] - 1, *NUMBERS))
        elif action < 0.6:
            node[key] = rng.choice(NUMBERS + NOT_NUMBERS)
        elif action < 0.8 and isinstance(node, list):
            del node[key]
        elif isinstance(node, list):
            node.insert(key, json.loads(json.dumps(node[key])))
        elif action < 0.9:
            del node[key]
    return json.dumps(data).encode()


def _fuzz(rng: random.Random, texts: list, cases: int, folder: Path, capsys) -> set:
    """Run ``cases`` mutations of the texts through every command; the exit codes seen.

    Case n is written to its own file, ``mutated-{n}.json`` in ``folder``:
    writing a new file is far cheaper than replacing a file's contents on
    some file systems.
    """
    codes = set()
    for case in range(cases):
        content = _mutate(rng, rng.choice(texts))
        path = folder / f"mutated-{case}.json"
        path.write_bytes(content)
        for command in COMMANDS:
            code = main([command, str(path)])
            out, err = capsys.readouterr()
            where = f"case {case}, {command}: {content[:300]!r}"
            assert code in EXIT_CODES, where
            assert "Traceback" not in err, where
            limit = OUTPUT_PER_BYTE * len(content) + OUTPUT_ALLOWANCE
            assert len(out.encode()) <= limit, where
            assert len(err.encode()) <= limit, where
            codes.add(code)
    return codes


def test_mutated_instances_exit_cleanly(tmp_path, capsys):
    texts = [p.read_text() for p in INSTANCES]
    codes = _fuzz(random.Random(2022), texts, CASES, tmp_path, capsys)
    # the mutations reach the parser, validate and the solver paths alike
    assert {0, 1, 2, 3} <= codes, codes


def _above_cap_alldiff(rng: random.Random):
    # a union of three permutations, so every edge lies on a support
    n = MAX_ALLDIFF_VARS + 1
    edges = set()
    for _ in range(3):
        p = list(range(n))
        rng.shuffle(p)
        edges.update(enumerate(p))
    triples = [(i, j, rng.randint(0, 9)) for i, j in sorted(edges)]
    return weighted_instance("alldiff", n, range(n), triples, z_max=n * 3)


def test_mutated_generated_instances_exit_cleanly(tmp_path, capsys):
    rng = random.Random(2023)
    alldiff = [i for i in alldiff_corpus(200) if i.n_vars == 5][:3]
    paths = sorted(path_corpus(100), key=lambda i: -len(i.edges))[:3]
    instances = alldiff + paths + [_above_cap_alldiff(rng)]
    texts = [json.dumps(instance_to_dict(i)) for i in instances]
    codes = _fuzz(rng, texts, GENERATED_CASES, tmp_path, capsys)
    assert {0, 1, 2, 3, EXIT_SIZE} <= codes, codes
