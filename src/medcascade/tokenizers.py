"""Tokenizers for the numpy encoders, and the one writer of the encoder's
input layout.

``encode(text)`` gives a text's content ids.  ``encode_pair(text, aux,
max_len)`` lays out ``[CLS] text``, then ``[SEP] aux`` when there is an aux
text, and keeps a prefix of ``max_len`` ids, so an over-long input loses its
aux tail first.  Text is cleaned as BERT's ``BasicTokenizer`` does
(:func:`clean_text`), so a format mark such as U+200F (RLM) never turns a word
into another word or into [UNK].

- HashWordTokenizer: stateless whitespace tokenizer that hashes words into a
  fixed-size id space. Used by the toy encoder; needs no vocabulary file.
- WordPieceTokenizer: greedy longest-match subword tokenizer over a
  ``vocab.txt``, for encoders loaded from pretrained BERT-style weights.
"""

from __future__ import annotations

import unicodedata
import zlib

from .errors import VocabInvalid

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
    """The one input layout, over a subclass's ``encode``."""

    def encode_pair(self, text: str, aux: str, max_len: int) -> list[int]:
        """``[CLS] text``, then ``[SEP] aux`` if ``aux`` is not empty, cut to
        its first ``max_len`` ids."""
        ids = [self.cls_id, *self.encode(text)]
        if aux:
            ids += [self.sep_id, *self.encode(aux)]
        return ids[:max_len]


class HashWordTokenizer(_Tokenizer):
    """Hash lowercased whitespace-separated words into ``vocab_size`` buckets.

    Ids 0..3 are reserved: [PAD]=0, [UNK]=1, [CLS]=2, [SEP]=3.  The hash is
    crc32, so ids are stable across processes and runs.
    """

    pad_id = 0
    unk_id = 1
    cls_id = 2
    sep_id = 3
    n_reserved = 4

    def __init__(self, vocab_size: int = 512):
        if vocab_size <= self.n_reserved:
            raise ValueError(f"vocab_size must exceed {self.n_reserved}")
        self.vocab_size = vocab_size

    def encode(self, text: str) -> list[int]:
        buckets = self.vocab_size - self.n_reserved
        return [self.n_reserved + zlib.crc32(word.lower().encode("utf-8")) % buckets
                for word in _nfc(clean_text(text)).split()]


class WordPieceTokenizer(_Tokenizer):
    """Greedy longest-match-first WordPiece over a BERT-style vocab.txt."""

    def __init__(self, vocab: dict[str, int], do_lower_case: bool = False,
                 strip_accents: bool | None = None, source: str = "vocab"):
        """``source`` names the vocabulary in errors (the file it came from).
        As in ``BertTokenizer``, an unset ``strip_accents`` follows
        ``do_lower_case``; stripping drops combining marks (category ``Mn``
        after NFD), Arabic harakat among them."""
        missing = [t for t in ("[PAD]", "[UNK]", "[CLS]", "[SEP]") if t not in vocab]
        if missing:
            raise VocabInvalid(f"{source} has no {', '.join(missing)} token")
        self.vocab = vocab
        self.do_lower_case = do_lower_case
        self.strip_accents = do_lower_case if strip_accents is None else bool(strip_accents)
        self.pad_id = vocab["[PAD]"]
        self.unk_id = vocab["[UNK]"]
        self.cls_id = vocab["[CLS]"]
        self.sep_id = vocab["[SEP]"]

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

    def encode(self, text: str) -> list[int]:
        return [i for word in self._basic_tokens(text) for i in self._wordpiece(word)]
