"""Every ordered pair of catalogue NFs against the original chain.

ROADMAP item 17 (a): each ordered pair of the 12 ``NF_CATALOGUE`` NFs
(132 chains), and a seeded sample of triples, runs through the
differential runner over three TCP flows that each carry a handshake and
a FIN.  Output and per-flow NF state must equal the original chain's.

The pairs that diverge today are pinned ``xfail(strict=True)`` with the
kind of divergence: an SF of an NF upstream of a rewriter sees the
rewrites of the NFs after it on the fast path (item 17).  One triple
whose three pairs are all clean diverges too, and is pinned the same
way as a named case.  The marks come off when item 17 (b) lands; a
chain that starts passing fails its mark.
"""

import itertools
import random

import pytest

from repro.cli import NF_CATALOGUE
from repro.core.verification import differential
from repro.traffic import FlowSpec, TrafficGenerator

NAMES = sorted(NF_CATALOGUE)

#: (upstream, downstream) -> the divergence kinds the runner reports today
DIVERGING = {
    ("firewall", "vpn-encap"): {"state"},
    ("monitor", "gateway"): {"state"},
    ("monitor", "maglev"): {"state"},
    ("monitor", "nat"): {"state"},
    ("monitor", "vpn-encap"): {"state"},
    ("nat", "vpn-encap"): {"state"},
    ("snort", "vpn-encap"): {"state"},
    ("vpn-encap", "firewall"): {"state"},
    ("vpn-encap", "gateway"): {"bytes"},
    ("vpn-encap", "monitor"): {"state"},
    ("vpn-encap", "nat"): {"state"},
    ("vpn-encap", "snort"): {"state"},
}

#: triples with no diverging pair that diverge all the same, with their
#: kinds: Monitor between an encapsulation and its terminator counts the
#: wrapped packet on the fast path (ROADMAP item 17 (b)); the seeded
#: sample below does not draw it
DIVERGING_TRIPLES = {
    ("gateway", "monitor", "terminator"): {"state"},
}

#: triples with no diverging pair among their NFs (in chain order)
CLEAN_TRIPLES = [
    triple
    for triple in itertools.permutations(NAMES, 3)
    if not any(pair in DIVERGING for pair in itertools.combinations(triple, 2))
]


def trace():
    specs = [
        FlowSpec.tcp(f"10.9.{i}.2", f"99.9.0.{i + 1}", 5000 + i, 80, packets=6,
                     payload=b"GET / exploit %d" % i, handshake=True, fin=True)
        for i in range(3)
    ]
    return TrafficGenerator(specs, interleave="round_robin", seed=5).packets()


def chain_of(names):
    return lambda: [NF_CATALOGUE[name](index) for index, name in enumerate(names)]


def pair_cases():
    for pair in itertools.permutations(NAMES, 2):
        kinds = DIVERGING.get(pair)
        marks = [pytest.mark.xfail(
            strict=True, reason=f"ROADMAP item 17: {'/'.join(sorted(kinds))} divergence"
        )] if kinds else []
        yield pytest.param(pair, id=",".join(pair), marks=marks)


def divergence_kinds(names):
    report = differential(chain_of(names), trace())
    return {divergence.kind for divergence in report.divergences}, report


def test_the_matrix_is_every_ordered_pair():
    assert len(NAMES) == 12 and len(list(pair_cases())) == 132
    assert set(DIVERGING) <= set(itertools.permutations(NAMES, 2))
    assert set(DIVERGING_TRIPLES) <= set(CLEAN_TRIPLES)


@pytest.mark.parametrize("pair", pair_cases())
def test_pair_is_equivalent_in_output_and_state(pair):
    kinds, report = divergence_kinds(pair)
    assert not kinds, report.summary()


@pytest.mark.parametrize("pair", sorted(DIVERGING), ids=",".join)
def test_a_pinned_pair_diverges_in_its_kind(pair):
    """The xfail marks above pin *that* a pair diverges; this pins how."""
    assert divergence_kinds(pair)[0] == DIVERGING[pair]


@pytest.mark.parametrize("triple", [
    pytest.param(triple, id=",".join(triple), marks=pytest.mark.xfail(
        strict=True, reason=f"ROADMAP item 17 (b): {'/'.join(sorted(kinds))} divergence"
    ))
    for triple, kinds in sorted(DIVERGING_TRIPLES.items())
])
def test_named_triple_is_equivalent_in_output_and_state(triple):
    kinds, report = divergence_kinds(triple)
    assert not kinds, report.summary()


@pytest.mark.parametrize("triple", sorted(DIVERGING_TRIPLES), ids=",".join)
def test_a_pinned_triple_diverges_in_its_kind(triple):
    assert divergence_kinds(triple)[0] == DIVERGING_TRIPLES[triple]


@pytest.mark.parametrize(
    "triple", random.Random(2019).sample(CLEAN_TRIPLES, 24), ids=",".join
)
def test_sampled_triple_is_equivalent_in_output_and_state(triple):
    kinds, report = divergence_kinds(triple)
    assert not kinds, report.summary()
