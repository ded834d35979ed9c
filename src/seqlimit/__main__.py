"""Entry point of `python -m seqlimit`."""

from .cli import main

main()
