"""``python -m krein``: the ``krein`` command line."""

from .cli import entrypoint

entrypoint()
