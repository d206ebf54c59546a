import output_digest

# SHA-256 of output_digest's text (about 1 s to make), the same on Python
# 3.10-3.13. A change that alters an output on purpose re-pins it with
# `python tests/output_digest.py` and says why in CHANGES.md; a digest that
# differs on one Python version is a real difference there, not something to
# round away.
DIGEST = "f4412a4f19d1bd6f543824993b19e87912b8832b25a18d15ebb0d568c07a8187"


def test_outputs_match_the_pinned_digest():
    assert output_digest.digest() == DIGEST
