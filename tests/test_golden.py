"""The engine runs the fixed corpus of `engine_corpus.py` exactly as
recorded in `tests/golden/engine_runs.json`: same answers in the same
order, same steps at each answer, same ending and exec status."""

import json

from engine_corpus import GOLDEN, corpus, record


def test_engine_runs_match_the_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    items = corpus()
    assert [entry["name"] for entry in golden] == [i[0] for i in items]
    changed = [(entry, now) for entry, now in
               zip(golden, (record(*item) for item in items))
               if now != entry]
    assert not changed, "\n".join(
        f"{old['name']}:\n  was {old}\n  now {now}"
        for old, now in changed[:5])


def test_golden_file_is_the_rendered_corpus():
    # the file is written by engine_corpus.render(); a hand edit that
    # parses the same but differs in bytes is caught here
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    text = "[\n" + ",\n".join(json.dumps(e, ensure_ascii=True)
                              for e in golden) + "\n]\n"
    assert GOLDEN.read_text(encoding="utf-8") == text
