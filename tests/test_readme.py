"""The README's examples run as written."""

import json
import random
import re
import shlex
from fractions import Fraction
from pathlib import Path

from sgverify import parse_instance, sequence_from_config
from sgverify.cli import main
from sgverify.inequalities import INEQUALITIES

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


def test_readme_lists_every_inequality_with_its_flags():
    rows = re.findall(r"\n\| `([a-z-]+)` \| (`[^|`]*`)? ?\| (`[^|`]*`)? ?\| (yes)? ?\|", README)
    listed = {name: (required.strip("`").split(), optional.strip("`").split(), mc == "yes")
              for name, required, optional, mc in rows}
    assert list(listed) == list(INEQUALITIES)
    for name, row in INEQUALITIES.items():
        flags = [f"--{flag}" for flag in row.required], [f"--{flag}" for flag in row.optional]
        assert listed[name] == (*flags, row.takes_mc), name
    kinds = re.search(r"Flags `([^`]*)` take integers,\s+`([^`]*)` finite floats", README)
    readme_kinds = {flag: kind for kind, text in zip((int, float), kinds.groups())
                    for flag in text.split()}
    for row in INEQUALITIES.values():
        for flag, kind in row.flags.items():
            assert readme_kinds.get(f"--{flag}", Fraction) is kind, flag
    sweeps = re.search(r"`sweep --constant` estimates the constant of(.*?)\.", README, re.S)
    assert dict(re.findall(r"`([a-z-]+)` \(`([a-z0-9-]+)`\)", sweeps.group(1))) == {
        name: row.sweep.constant for name, row in INEQUALITIES.items() if row.sweep
    }


def test_readme_cli_examples_exit_as_documented(tmp_path, monkeypatch):
    block = re.search(r"\n## Command line\n.*?```sh\n(.*?)```", README, re.S).group(1)
    config = re.search(r"A sequence config is JSON:\s*```json\n(.*?)```", README, re.S).group(1)
    (tmp_path / "seq.json").write_text(config)
    monkeypatch.chdir(tmp_path)
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("sgverify ")]
    assert len(lines) == 12
    for line in lines:
        expected = 1 if "# exits 1" in line else 0
        assert main(shlex.split(line, comments=True)[1:]) == expected, line
