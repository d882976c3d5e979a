"""The README cites only files that exist in the checkout."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def cited_bench_files(text):
    """Every BENCH file the text names, ``BENCH_<tag>_{parent,change}.json``
    expanded to its two names."""
    names = set()
    for tag, sides in re.findall(r"BENCH_(\w+?)_\{(\w+(?:,\w+)*)\}(?:\.json)?", text):
        names.update(f"BENCH_{tag}_{side}.json" for side in sides.split(","))
    names.update(re.findall(r"BENCH_\w+\.json", text))
    return names


def cited_paths(text):
    """Every ``tests/``, ``tools/``, ``scenarios/`` or ``perfbench/`` path the
    text names, without a pytest ``::`` node or a closing full stop."""
    paths = re.findall(r"(?<![\w/.])(?:tests|tools|scenarios|perfbench)/[\w./-]*[\w/]", text)
    return {path.rstrip("/") for path in paths}


def test_cited_names_are_found_in_text():
    text = ("see BENCH_a_b_{parent,change}.json, BENCH_c_change.json and "
            "`tests/test_x.py::test_y`, tools/manifest.py.")
    assert cited_bench_files(text) == {
        "BENCH_a_b_parent.json", "BENCH_a_b_change.json", "BENCH_c_change.json"}
    assert cited_paths(text) == {"tests/test_x.py", "tools/manifest.py"}


def test_every_bench_file_the_readme_cites_exists():
    cited = cited_bench_files(README)
    assert cited, "the README cites no BENCH file"
    assert sorted(name for name in cited if not (ROOT / name).is_file()) == []


def test_every_repository_path_the_readme_cites_exists():
    cited = cited_paths(README)
    assert cited, "the README cites no repository path"
    assert sorted(path for path in cited if not (ROOT / path).exists()) == []
