"""The :class:`Protein` record used throughout the package."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sequences.alphabet import validate_sequence
from repro.sequences.encoding import encode

__all__ = ["Protein"]


@dataclass(frozen=True)
class Protein:
    """An immutable named protein sequence.

    Attributes
    ----------
    name:
        Systematic identifier (the paper uses yeast ORF names such as
        ``YBL051C``).  Must be non-empty and whitespace-free so it can be
        used as a FASTA header token and a graph-vertex key.
    sequence:
        Residue string over the 20 standard amino acids.
    annotations:
        Free-form metadata (cellular component, abundance, stressor link);
        populated by :mod:`repro.synthetic` and read by :mod:`repro.wetlab`.
    """

    name: str
    sequence: str
    annotations: dict[str, object] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if not self.name or any(ch.isspace() for ch in self.name):
            raise ValueError(f"protein name must be a non-empty token, got {self.name!r}")
        object.__setattr__(self, "sequence", validate_sequence(self.sequence, name=f"protein {self.name}"))

    @classmethod
    def trusted(cls, name: str, sequence: str, encoded: np.ndarray) -> "Protein":
        """A protein rebuilt from parts another :class:`Protein` already
        validated — a shared proteome's name, residues and ``encoded``
        view — without validating them again."""
        protein = object.__new__(cls)
        object.__setattr__(protein, "name", name)
        object.__setattr__(protein, "sequence", sequence)
        object.__setattr__(protein, "annotations", {})
        protein.__dict__["_encoded"] = encoded
        return protein

    def __len__(self) -> int:
        return len(self.sequence)

    @property
    def encoded(self) -> np.ndarray:
        """``uint8`` index-array form of the sequence (cached per instance)."""
        cached = self.__dict__.get("_encoded")
        if cached is None:
            cached = encode(self.sequence)
            cached.setflags(write=False)
            self.__dict__["_encoded"] = cached
        return cached

    def with_annotations(self, **annotations: object) -> "Protein":
        """Return a copy carrying additional annotations."""
        merged = {**self.annotations, **annotations}
        return Protein(self.name, self.sequence, merged)

    def __repr__(self) -> str:  # keep long sequences readable in logs
        seq = self.sequence if len(self.sequence) <= 12 else self.sequence[:9] + "..."
        return f"Protein(name={self.name!r}, sequence={seq!r}, length={len(self)})"
