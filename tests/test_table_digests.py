"""Pinned digests of G, S(G), M(G) and T(G) for graphs across the table's
regimes: a tree and cacti whose derived tables are read off G's, paths on
both sides of the byte and lane limits (where S, M or T fall back to BFS,
or G's own rows are tuples), a long cycle, a complete graph and G_6.

Each digest covers (n, edges, adjacency, distances) with the row types, so
any change to how a table is built that alters a byte of any of them, or
the type of a row, fails here.  S, M and T are derived from one G in that
order, so blocks that G caches for one derivation serve the next."""

import hashlib

import pytest

from mdimlab import (complete_graph, cycle_graph, gn_graph, middle, path_graph, random_cactus,
                     random_tree, subdivision, total)


def _digest(g):
    h = hashlib.sha256(repr((g.n, g.edges, g.adjacency)).encode())
    for row in g.distances:
        h.update(type(row).__name__.encode())
        h.update(row if type(row) is bytes else repr(row).encode())
    return h.hexdigest()[:24]


GRAPHS = {
    "tree600": lambda: random_tree(600, 1),
    "cactus600-30": lambda: random_cactus(600, 30, 2),
    "cactus300-75": lambda: random_cactus(300, 75, 3),
    **{f"path{n}": (lambda n=n: path_graph(n)) for n in (128, 129, 255, 256, 257, 300)},
    "C300": lambda: cycle_graph(300),
    "K12": lambda: complete_graph(12),
    "G6": lambda: gn_graph(6)[0],
}

DIGESTS = {
    "tree600": ["36a1899934fbf289df01cea8", "6d48f5f4b1548849e96566f9", "7b7cdf7248c54f61f347535a", "167c8438c93052023ad1665f"],
    "cactus600-30": ["315d7ac1c051e36c5cd52fbe", "82edd1ecb158d94b45bfd801", "c28b257d094e140b61585c25", "0c5fbf82e4a3964c0773a45f"],
    "cactus300-75": ["71f6c64247ec7a83bc951ff7", "377ead93ddbd24c3f7296be9", "076e779dff203a809bc44749", "0f84c93d2200928771410c23"],
    "path128": ["7261964a6c248f2fb4ef9839", "dab67f5fba4b7918068d434d", "a1c1b959a0a30647cca40f9a", "f46a5da99bf6fb4492ce0f0d"],
    "path129": ["7266e49bf577f16bb1849fa6", "448b3d988d826440b95f70d5", "88784591872e01f24b72343d", "10194de2259ba7aae38f9425"],
    "path255": ["a509af0d10d25a20f3f2ad6e", "5c84bb3851670e8787a3531c", "cca624fe500a8a211d230957", "05f1be0dacdb3fdc4b242a5a"],
    "path256": ["d5ab67bd17ef3a4d0855d77a", "c6ccfed5faff7f50fa1a62cc", "f13f1b6eca79f1ca4c9e7b20", "75f6b7b32c2399f80cf42682"],
    "path257": ["0f1156cdc30a4608009e5164", "03c81f18be0bad9d6f8d52ac", "19bbc63d919027bf2d09f177", "18eee527e04f38e52ca7e74b"],
    "path300": ["9418a869bb98c90d5e481726", "cd9a1c8cf13b43b196ff2fc8", "df85a3eef4f42a72e89889d5", "9ae2a2f8db4516b5e9df7873"],
    "C300": ["39483489ddd9be4c0da69a4a", "823b23c4b3459a7d61b5f224", "badffc69518aff78ad6f8f8d", "087638a1bb7d0f8af3c04b90"],
    "K12": ["d12a2d4c6f5e5b59fd3f809b", "b739501e3abaf169679d6511", "b83eb32e860495e07d77de88", "cde22ed1ece43a700211092a"],
    "G6": ["87725413afeaf18fc750be35", "f9e5a71be9fc2a1f1dc53235", "3df7a74c693825757bd9023b", "700619120d81ca7c1fd249b9"],
}


@pytest.mark.parametrize("name", GRAPHS)
def test_tables_match_their_pinned_digests(name):
    g = GRAPHS[name]()
    got = [_digest(g)] + [_digest(derive(g).graph) for derive in (subdivision, middle, total)]
    assert got == DIGESTS[name]
