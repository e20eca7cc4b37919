"""Tokenizers for the numpy encoders, and the one reader of the encoder's
input layout, ``normal [AUX] aux`` (``variants`` joins it).

``encode(text)`` splits the text at each literal ``[AUX]``, gives each
separator one reserved id and each segment its content ids;
``MultiTaskModel.encode_texts`` adds [CLS] and keeps a prefix, so an
over-long input loses its auxiliary tail first.  Each segment is cleaned as
BERT's ``BasicTokenizer`` does (:func:`clean_text`), so a format mark such as
U+200F (RLM) never turns a word into another word or into [UNK].

- HashWordTokenizer: stateless whitespace tokenizer that hashes words into a
  fixed-size id space. Used by the toy encoder; needs no vocabulary file.
- WordPieceTokenizer: greedy longest-match subword tokenizer over a
  ``vocab.txt``, for encoders loaded from pretrained BERT-style weights.
"""

from __future__ import annotations

import unicodedata
import zlib

from .errors import VocabInvalid

AUX_TOKEN = "[AUX]"
MAX_CHARS_PER_WORD = 100     # a longer word is one [UNK], as in BERT's WordPiece


def clean_text(text: str) -> str:
    """``text`` as ``BasicTokenizer._clean_text`` leaves it: U+0000, U+FFFD and
    every character of category ``C*`` but ``\\t\\n\\r`` dropped, and
    ``\\t\\n\\r`` and category ``Zs`` mapped to a space."""
    return "".join(" " if ch in "\t\n\r" or unicodedata.category(ch) == "Zs" else ch
                   for ch in text if ch in "\t\n\r" or
                   (ch != "\ufffd" and not unicodedata.category(ch).startswith("C")))


def _nfc(text: str) -> str:
    return unicodedata.normalize("NFC", text)


class _Tokenizer:
    """The one ``encode``: the text split at each ``[AUX]``, each separator
    ``aux_id``, each segment the ids a subclass's ``_segment_ids`` gives."""

    def encode(self, text: str) -> list[int]:
        first, *rest = text.split(AUX_TOKEN)
        ids = self._segment_ids(first)
        for segment in rest:
            ids += [self.aux_id, *self._segment_ids(segment)]
        return ids


class HashWordTokenizer(_Tokenizer):
    """Hash lowercased whitespace-separated words into ``vocab_size`` buckets.

    Ids 0..3 are reserved: [PAD]=0, [UNK]=1, [CLS]=2, [AUX]=3.  The hash is
    crc32, so ids are stable across processes and runs.
    """

    pad_id = 0
    unk_id = 1
    cls_id = 2
    aux_id = 3
    n_reserved = 4

    def __init__(self, vocab_size: int = 512):
        if vocab_size <= self.n_reserved:
            raise ValueError(f"vocab_size must exceed {self.n_reserved}")
        self.vocab_size = vocab_size

    def _segment_ids(self, segment: str) -> list[int]:
        buckets = self.vocab_size - self.n_reserved
        return [self.n_reserved + zlib.crc32(word.lower().encode("utf-8")) % buckets
                for word in _nfc(clean_text(segment)).split()]


class WordPieceTokenizer(_Tokenizer):
    """Greedy longest-match-first WordPiece over a BERT-style vocab.txt."""

    def __init__(self, vocab: dict[str, int], do_lower_case: bool = False,
                 strip_accents: bool | None = None, source: str = "vocab"):
        """``source`` names the vocabulary in errors (the file it came from).
        As in ``BertTokenizer``, an unset ``strip_accents`` follows
        ``do_lower_case``; stripping drops combining marks (category ``Mn``
        after NFD), Arabic harakat among them."""
        missing = [t for t in ("[PAD]", "[UNK]", "[CLS]") if t not in vocab]
        if missing:
            raise VocabInvalid(f"{source} has no {', '.join(missing)} token")
        self.vocab = vocab
        self.do_lower_case = do_lower_case
        self.strip_accents = do_lower_case if strip_accents is None else bool(strip_accents)
        self.pad_id = vocab["[PAD]"]
        self.unk_id = vocab["[UNK]"]
        self.cls_id = vocab["[CLS]"]
        # [AUX] is not in pretrained vocabs: the first of these slots there takes it
        slot = next((t for t in (AUX_TOKEN, "[unused0]", "[SEP]") if t in vocab), None)
        if slot is None:
            raise VocabInvalid(f"{source} has no {AUX_TOKEN}, [unused0] or [SEP] token, so "
                               f"the {AUX_TOKEN} separator would share [UNK]'s id")
        self.aux_id = vocab[slot]

    @classmethod
    def from_vocab_file(cls, path, **kwargs) -> "WordPieceTokenizer":
        vocab: dict[str, int] = {}
        try:
            with open(path, encoding="utf-8") as fh:
                for i, line in enumerate(fh):
                    vocab[line.rstrip("\n")] = i
        except (OSError, UnicodeDecodeError) as e:   # a directory, unreadable, not UTF-8
            raise VocabInvalid(f"{path} is not a readable UTF-8 text file: {e}") from e
        return cls(vocab, source=str(path), **kwargs)

    @staticmethod
    def _is_punct(ch: str) -> bool:
        cp = ord(ch)
        if (33 <= cp <= 47) or (58 <= cp <= 64) or (91 <= cp <= 96) or (123 <= cp <= 126):
            return True
        return unicodedata.category(ch).startswith("P")

    def _basic_tokens(self, text: str) -> list[str]:
        """Words of the cleaned text split at whitespace, each punctuation
        character a word of its own."""
        text = _nfc(clean_text(text))
        if self.do_lower_case:
            text = text.lower()
        if self.strip_accents:
            text = "".join(ch for ch in unicodedata.normalize("NFD", text)
                           if unicodedata.category(ch) != "Mn")
        return "".join(f" {ch} " if self._is_punct(ch) else ch for ch in text).split()

    def _wordpiece(self, word: str) -> list[int]:
        if len(word) > MAX_CHARS_PER_WORD:
            return [self.unk_id]
        ids: list[int] = []
        start = 0
        while start < len(word):
            end = len(word)
            piece_id = None
            while start < end:
                piece = word[start:end]
                if start > 0:
                    piece = "##" + piece
                if piece in self.vocab:
                    piece_id = self.vocab[piece]
                    break
                end -= 1
            if piece_id is None:
                return [self.unk_id]
            ids.append(piece_id)
            start = end
        return ids

    def _segment_ids(self, segment: str) -> list[int]:
        return [i for word in self._basic_tokens(segment) for i in self._wordpiece(word)]
