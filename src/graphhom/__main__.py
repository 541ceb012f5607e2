"""`python -m graphhom`: the same command line as the `graphhom` script."""

from .cli import main

if __name__ == "__main__":
    main()
