#!/usr/bin/env python3
# Caption preprocessing: normalization, WordPiece tokenization, text encoding.

import numpy as np

from acre import encoder

# Normalization lowercases, strips punctuation, and collapses whitespace.
for raw in ("A Dog Barks, loudly!", "it's 5 o'clock", "  Rain   on a WINDOW... "):
    print(f"{raw!r:<32} -> {encoder.normalize_text(raw)!r}")

# Greedy longest-match-first WordPiece over the shipped vocabulary.
# '##' marks continuation pieces; a word with no cover becomes [UNK].
vocab = encoder.Vocabulary.default()
print(f"\nvocabulary: {len(vocab)} pieces")
for text in ("a dog barks near running water", "xylophone music", "крик"):
    ts = encoder.tokenize(encoder.normalize_text(text), vocab)
    print(f"{text!r:<34} -> {ts.pieces}")

# Sequences are capped at 32 content tokens plus the class token.
long_caption = " ".join(["water"] * 50)
ts = encoder.tokenize(long_caption, vocab)
print(f"\n50-word caption -> {ts.content_length} content tokens + class token")

# The frozen text encoder returns the class-token output as the embedding. Its
# seed and its vocabulary size (the embedding table's rows) come from the caller.
params = encoder.EncoderParams(seed=11)
a = encoder.text_encode(encoder.tokenize("dog barks near water", vocab), params, len(vocab))
b = encoder.text_encode(encoder.tokenize("water barks near dog", vocab), params, len(vocab))
print(f"\ntext embedding width: {a.shape[0]}")
print("word order changes the embedding:", float(np.abs(a - b).max()) > 1e-6)
