"""README's Configuration, Exit codes and Library sections against the code."""

import json
import re
from pathlib import Path

import hyperspectra
from hyperspectra import cli, errors, gaussian, hypergraph, oracle, spectral, theory

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def section(title: str) -> str:
    """The text of README's ``### title`` section, up to the next heading."""
    match = re.search(rf"^### {re.escape(title)}\n(.*?)(?=^#)", README, re.M | re.S)
    assert match, f"README has no section {title!r}"
    return match[1]


def test_readme_config_keys_match_defaults():
    block = re.search(r"```\n(.*?)```", section("Configuration"), re.S)[1]
    # drop the value shapes (r: [..], budget: {max_edges}), keep the key names
    names = re.sub(r":\s*(\[[^]]*\]|\{[^}]*\})", "", block)
    assert [name.strip() for name in names.split(",")] == list(cli._DEFAULTS)


def test_readme_defaults_match_defaults():
    line = re.search(r"^Defaults: (.*?)\. ", section("Configuration"), re.M | re.S)[1]
    documented = {}
    for item in re.findall(r"`([^`]*)`", line):
        key, value = item.split(" ", 1)
        # budget's object writes its key bare
        documented[key] = json.loads(re.sub(r"(\w+):", r'"\1":', value))
    assert documented == {k: v for k, v in cli._DEFAULTS.items() if v is not None}


def test_readme_exit_codes_match_cli_docstring():
    documented = [int(c) for c in re.findall(r"^- `(\d+)`:", section("Exit codes"), re.M)]
    doc = re.search(r"^Exit codes: (.*?)\.\n", cli.__doc__, re.M | re.S)[1]
    declared = [int(part.split()[0]) for part in doc.split(";")]
    assert documented == declared == [0, 1, 2, 3, 4, 5]


def test_readme_library_names_every_public_name():
    library = re.search(r"^## Library\n(.*?)(?=^## )", README, re.M | re.S)[1]
    missing = [name for name in hyperspectra.__all__ if not re.search(rf"`{name}[`(]", library)]
    assert missing == []


def test_readme_private_names_exist():
    modules = (hyperspectra, cli, errors, gaussian, hypergraph, oracle, spectral, theory)
    names = set(re.findall(r"`(_\w+)[`(]", README))
    assert names
    assert [name for name in sorted(names) if not any(hasattr(m, name) for m in modules)] == []
