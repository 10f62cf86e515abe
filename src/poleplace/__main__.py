"""``python -m poleplace``: the ``poleplace`` command."""
from .cli import run

run()
