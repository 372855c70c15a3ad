"""Self-test of the input generator: byte-deterministic per seed.

Run with ``python3 bench/test_corpus.py`` (or ``python3 -m pytest bench``).
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import corpus  # noqa: E402

MAKERS = (corpus.convert_corpus, corpus.validate_corpus, corpus.query_documents)


def texts(make, seed):
    return [(f.name, f.text.encode("utf-8")) for f in make(seed)]


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for make in MAKERS:
            self.assertEqual(texts(make, 7), texts(make, 7), make.__name__)
        docs = list(corpus.query_documents(7))
        self.assertEqual(corpus.query_requests(7, docs),
                         corpus.query_requests(7, docs))

    def test_other_seed_other_bytes(self):
        for make in MAKERS:
            self.assertNotEqual(texts(make, 7), texts(make, 8), make.__name__)
        self.assertNotEqual(
            corpus.query_requests(7, list(corpus.query_documents(7))),
            corpus.query_requests(8, list(corpus.query_documents(8))))

    def test_seed_keeps_the_sizes(self):
        # Which validate files end in an injected empty block follows the
        # seed; the blocks that hold rows do not.
        for make in MAKERS:
            shape = [sorted((f.rows, f.modality, [b for b in f.blocks if b])
                            for f in make(seed))
                     for seed in (7, 8)]
            self.assertEqual(shape[0], shape[1], make.__name__)


if __name__ == "__main__":
    unittest.main()
