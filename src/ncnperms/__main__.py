"""``python -m ncnperms``: the same entry point as the ``ncnperms`` console script."""

from .cli import entry_point

if __name__ == "__main__":
    entry_point()
