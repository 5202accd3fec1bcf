"""Frozen reference implementations the product code is tested against.

* :mod:`tests.oracles.htmlparse` -- the per-character tokenizer, the
  callback entity decoder and the six-traversal cleanser.
* :mod:`tests.oracles.rules` -- the per-node conversion rules.
* :mod:`tests.oracles.tagger` -- the naive tagger and a serial corpus
  baseline.
"""
