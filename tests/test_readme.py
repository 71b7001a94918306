"""The README's examples run as written."""

import json
import random
import re
from pathlib import Path

from sgverify import parse_instance, sequence_from_config
from sgverify.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_library_example_runs():
    section = README.split("\n## Library\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})


def test_readme_sequence_config_example_passes_every_check(tmp_path):
    block = re.search(r"A sequence config is JSON:\s*```json\n(.*?)```", README, re.S).group(1)
    assert sequence_from_config(json.loads(block)).n == 2
    path = tmp_path / "seq.json"
    path.write_text(block)
    assert main(["check", str(path), "--ineq", "all", "--out", str(tmp_path / "out.json")]) == 0


def test_readme_instance_specs_parse_and_round_trip_elements():
    paragraph = re.search(r"\nInstance specification strings:(.*?)\n\n", README, re.S).group(1)
    specs = [tag for tag in re.findall(r"`([^`]+)`", paragraph) if tag[0].isalpha()]
    assert len(specs) == 11, specs
    rng = random.Random(7)
    for spec in specs:
        inst = parse_instance(spec)
        for _ in range(10):
            x = inst.random_element(rng)
            back = inst.element_from_json(json.loads(json.dumps(inst.element_to_json(x))))
            assert inst.elements_equal(x, back, tol=1e-15), (spec, x, back)
