"""``python -m grade3``: the ``grade3`` command."""

from grade3.cli import run

if __name__ == "__main__":
    run()
