"""``python -m edgeslide``: the entry point of the ``edgeslide`` console
script."""
from .cli import main

if __name__ == "__main__":
    main()
