"""ergodyn: work-driven quantum time evolution on truncated Fock spaces."""

__version__ = "0.1.0"
