"""README statements that must follow the code."""

import re
from pathlib import Path

from milrank import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_lists_the_config_keys_in_schema_order():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Training configuration\n", 1)[1].split("\n## ", 1)[0]
    sentence = section.split("The keys are ", 1)[1].split(". ", 1)[0]
    assert re.findall(r"`([^`]+)`", sentence) == ["TrainingConfig", *cli._SCHEMA]
