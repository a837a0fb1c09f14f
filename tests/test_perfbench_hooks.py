"""The benchmark's traced run wraps package functions by name
(``perfbench/tracing.py``); a rename that breaks one of those names
fails here rather than only in a traced benchmark run."""

import sys
from pathlib import Path

import msa_forge

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import tracing  # noqa: E402


def test_every_traced_name_resolves_and_nothing_is_wrapped():
    sites = tracing.Sites()  # raises AttributeError for a name that is gone
    found = {(site.module, site.path) for *_, site in sites.entries}
    assert found == {(site.module, site.path) for site in tracing._site_table(msa_forge)}
    assert sites.touched() == []
