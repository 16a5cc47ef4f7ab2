"""``python -m colored_descents``: the ``colored-descents`` command."""
from .cli import console_main

if __name__ == "__main__":
    console_main()
