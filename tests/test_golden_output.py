"""Regression guards for the complex builder and the polynomials.

The sha256 digests pin the exact bytes that `dump`, `cohomology --json` and
`poly --json` print, and the cohomology tables of the whole corpus, so any
change to basis order, signs, block layout, cohomology (torsion included) or
to a polynomial shows up here.
The corruption tests overwrite or kill entries of per-edge target arrays
and prove that `build_complex` still runs both of its run-time
verifications: bidegree preservation, named at the first faulty entry in
source order, and d^2 = 0.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

import graphhom.cube as cube
import graphhom.homology as homology
from graphhom.cli import POLY_CHOICES, run
from graphhom.homology import tutte_cohomology
from graphhom.multigraph import (
    bigon,
    cycle_graph,
    from_json_dict,
    multiedge_graph,
    to_json_dict,
    tree_graph,
)
from test_homology import ROUTE_GRAPHS

GRAPHS = Path(__file__).resolve().parents[1] / "graphs"

# A loop, a parallel pair, a merge with a bystander component and an isolated vertex.
MIXED = {"vertices": 5, "edges": [[0, 1], [1, 2], [2, 0], [2, 2], [1, 2]]}
K4 = {"vertices": 4, "edges": [[u, v] for u in range(4) for v in range(u + 1, 4)]}
K5 = {"vertices": 5, "edges": [[u, v] for u in range(5) for v in range(u + 1, 5)]}
# Loopless, 12 edges: a hexagon, three doubled sides and the three long diagonals.
MULTI12 = {
    "vertices": 6,
    "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0],
              [0, 1], [2, 3], [4, 5], [0, 3], [1, 4], [2, 5]],
}

DIGESTS = {
    ("bigon", "dump", "yamada"): "d83ddc9ed9b501c50f5b0f3f89e308c24c7fa1a465beeb94c0b649c375c8487d",
    ("bigon", "dump", "tutte"): "31219c66e3bf66601782d82ede64bf329e7fbceb8906452baeeb9abd059045d7",
    ("bigon", "cohomology", "yamada"): "4d55dc227f295eb3703eeaab99661e7e4032f95fd90b3365267f6a37c6cba6a0",
    ("bigon", "cohomology", "tutte"): "2558a7a65e6c53b11e53d0a00c5c9936659c45fc1a3d8ab4e193235dc7f8ecd2",
    ("triangle", "dump", "yamada"): "fac5cc55aa581c7123e75fa8fbe9cfed660c4dc6eee29ed8f099599a14b59765",
    ("triangle", "dump", "tutte"): "1629a2d01093c6ece0637bd318b4134fd2e1d772733edb486b1f0a159bc47b43",
    ("triangle", "cohomology", "yamada"): "6efb5b63f90b9f0503f42cbd511941c3b18d69b179ef910e780f586ce81bc6ad",
    ("triangle", "cohomology", "tutte"): "d6f86f083b142d41d62e796a5c7083f208b472d6a692a0f01d2f1edd57b2ef94",
    ("cycle5", "dump", "yamada"): "1c73b9f6b46c0638e6862168a1e989ad4590604a25125cfd16211f97851b7b33",
    ("cycle5", "dump", "tutte"): "1af11cf96fbfd00a7b62de40b509884c59d489fa3f02a3b0c1efe5bf46eff0d6",
    ("cycle5", "cohomology", "yamada"): "5c6834cbb9bf9f45f5ddac4950735901ca05e603ba2010f2ffe3b6486d597c7f",
    ("cycle5", "cohomology", "tutte"): "0aea8cc537fa372fc4ac6f6f384a5e4ddde1e54e668d1892cd621ddee785a4d4",
    ("mixed", "dump", "yamada"): "4737d16442e14e72cee208789936366d2f2992e784f424d7d51d0c25c1ba74a6",
    ("mixed", "dump", "tutte"): "3fb0c8299b54ddc5a09fb63cff318e0b91638f625dc7b4b4b9a4858688b24667",
    ("mixed", "cohomology", "yamada"): "7394632c8a26cb89422cec334e52660c9491ae5b653bb6608b02fda3d04b9c23",
    ("mixed", "cohomology", "tutte"): "87baad9f7eadae9720184a9b19be91bfae88c80487c9f249192394cd8d57e957",
    ("K4", "cohomology", "yamada"): "74e85f3ceefe21c8c771fd9c9b4d0d5c6e767ed0d562cf1e38c69c66a3968143",
    ("K4", "dump", "tutte"): "c01ae1ef2a42e5d0fe0d955cb7e970cbac43536f8559e0e7ad5beb7677e3356f",
    ("cycle6", "dump", "yamada"): "001b930c76c0fd79da626e5081181d8c0d75db6c93717e48d61c0327b481dbd8",
    ("cycle6", "cohomology", "yamada"): "8b4712cb4564502cffa8a05aad1dfa29b2a5a75365211e1df8376f31e31f4820",
    # the two graphs of the benchmark's coh-elim workload, in canonical edge order
    ("cycle8", "cohomology", "tutte"): "e7387613e89304606df7f9f8a59e3032060ba4ca7e39a7fdd0874197d398f78f",
    ("path6", "cohomology", "yamada"): "6647b3f44c377ed208be90d2157430827f1d497d5e10aa0639ca93259f563c32",
    # two ladder rungs, pinned from the output before the pivot queue was keyed by row
    ("K5", "cohomology", "tutte"): "547ba61364e2ff126fc7fe8246c9ef37f78eb5b99b634b678b5b9843a66c502b",
    ("cycle8", "cohomology", "yamada"): "aede6df4aca3891570b369ef177bdcbc2a847d6440c8170477c557f2857d6ea6",
}

# `cohomology` in text and with `--json`, both variants, of inputs of the two
# routes beyond the corpus, pinned from the output before the tutte route
# enumerated only the states with b1 >= 1 and the yamada route tallied once
# per class of minor.
WHEEL5 = {
    "vertices": 6,
    "edges": [[i, i % 5 + 1] for i in range(1, 6)] + [[0, i] for i in range(1, 6)],
}
TWO_TRIANGLES = {"vertices": 6, "edges": [[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3]]}
CYCLE5_WITH_A_LOOP = {"vertices": 5, "edges": [[i, (i + 1) % 5] for i in range(5)] + [[3, 3]]}
# Forests, pinned from the output before their state histograms were read in
# closed form: the star K_{1,5}, and paths of 3 and 2 edges with the
# isolated vertices 4 and 8.
STAR5 = {"vertices": 6, "edges": [[0, i] for i in range(1, 6)]}
TWO_PATHS = {"vertices": 9, "edges": [[0, 1], [1, 2], [2, 3], [5, 6], [6, 7]]}
ROUTE_DIGESTS = {
    ("cycle8", "tutte", "text"): "a9e66dc100379ccef867ec2c2fa2f72a2dc315ebfcd8c5f819ed3beacb93c593",
    ("cycle8", "tutte", "json"): "e7387613e89304606df7f9f8a59e3032060ba4ca7e39a7fdd0874197d398f78f",
    ("cycle8", "yamada", "text"): "2b5a2457c53f89b0fff4755806f24e8cd29fd978dfdce31518070c8c2aa0efb5",
    ("cycle8", "yamada", "json"): "aede6df4aca3891570b369ef177bdcbc2a847d6440c8170477c557f2857d6ea6",
    ("path6", "tutte", "text"): "8ce2aa55c621641ef17ce9afc3fa5d1d6596da8a0ff3325e6344e1fa48ffe442",
    ("path6", "tutte", "json"): "9d0e860b8364ef0515b1aed9156509ca7c5fd56ecaee8d8cc45aeb58898c653a",
    ("path6", "yamada", "text"): "4f2e4d0593b89eb7912387309e7174713cb540b499a57f8de3ce474de20d90e5",
    ("path6", "yamada", "json"): "6647b3f44c377ed208be90d2157430827f1d497d5e10aa0639ca93259f563c32",
    ("K4", "tutte", "text"): "2cc37a7c1a37da1e32bad19bce57403938fd58ce8e7d50ae768ca7b2a680cf64",
    ("K4", "tutte", "json"): "7e76851ae98416086524b4cc7b4fb638bb65e7f465e4b03440e4a52427ccc907",
    ("K4", "yamada", "text"): "69e7e2b6c131f2048d82d2e6e0442d9c697a9c7399ed09b0c01942e83d48708c",
    ("K4", "yamada", "json"): "74e85f3ceefe21c8c771fd9c9b4d0d5c6e767ed0d562cf1e38c69c66a3968143",
    ("wheel5", "tutte", "text"): "41b582c17a462ca5d9ec10ef65d4b4b82e69debc4a2cb49070ef4344ac1742a1",
    ("wheel5", "tutte", "json"): "a0ccc1e66c9d4e16861d388753da5162ac774c82a56cecf3dc3ae086d9b2f1cb",
    ("wheel5", "yamada", "text"): "485c22931a630cec0f3d4a1826a8158a5c4235769c6ae458fb899ef6d0da88e5",
    ("wheel5", "yamada", "json"): "5ce002f130ed8a7334961947cf31c188b0200215e4fff779978cae214965657b",
    ("multiedge7", "tutte", "text"): "4f2bb2a3a39ee3ccc85929d9cced9ae2d60a0884a02171587fbda417f68b7497",
    ("multiedge7", "tutte", "json"): "f9e4311000664a9f8b38d19e53042befec2851bbf1be36f5d703553663ff82dc",
    ("multiedge7", "yamada", "text"): "3479e961e52bbf3dfe992f5655d974fd3474fc89618fbce46dec5fec0749f257",
    ("multiedge7", "yamada", "json"): "99aba00ccf4f2b96836e7a2546aa255a6a10c546b816dd3c4cc8012567d17b96",
    ("two_triangles", "tutte", "text"): "af3e969e01797ad61b5cf2b4ad6bc6fe48cdfbf6b9efa89e97cdae386cbfa30a",
    ("two_triangles", "tutte", "json"): "fb10f686f0315eb7ea74b0b5703a28797f41a9b647c59670abe8eac4bdb9641f",
    ("two_triangles", "yamada", "text"): "ea9a52d8d6c37220f4b85ff614cdc4382261192e9fcbb7323d63f907ad54134d",
    ("two_triangles", "yamada", "json"): "0d81f19d73d21b32eb9b1ffbbd8073c1792a279340ac8adda56e25d313713c9b",
    ("cycle5_with_a_loop", "tutte", "text"): "17f4653ecaa313db7be909c054b5980428a3d1612ab73d051560969ec9a5e370",
    ("cycle5_with_a_loop", "tutte", "json"): "7ee5a076f120775ec55ad783c76b5ca89195239b64dc65cad0a8ab6e2db78629",
    ("cycle5_with_a_loop", "yamada", "text"): "ad74680677e5262fe62866ed5acd7d5dcc35513b18fcd3d1e0aa311b919f5ed2",
    ("cycle5_with_a_loop", "yamada", "json"): "854c480f2f4a903b70909af4b9cf0b98f676967cb14cf11ef34d6a783b591933",
    ("star5", "tutte", "text"): "a35aedbd81a674dafa711cb80a371f9d5654d7b711cdcaf8c8ac8959a3029b39",
    ("star5", "tutte", "json"): "8b0a5a0f67e63d3b633c5729dc4df8ecf678ea0d186d88604f9ae4a0bc25aa46",
    ("star5", "yamada", "text"): "373be1c81ca3919b42c8d098f1ed8064d6be956e40d8dcc5cf98ead9557f7951",
    ("star5", "yamada", "json"): "3eca6cdf389c201f604e77de6fae837ecad7f52415d39b6d651e7045d62ead68",
    ("two_paths", "tutte", "text"): "67ca87e703f5b11fcda4d62750ae654ada3e10cd165762c372d8ef1c1716b042",
    ("two_paths", "tutte", "json"): "1bca5b67af58a941d8fb8c9d107db8a63760655bace0e2904169b3add2d79671",
    ("two_paths", "yamada", "text"): "558dc118f5ea3bfd2d78ff941cf2e62a5b1f711e9331646cd8880ba88c563ef0",
    ("two_paths", "yamada", "json"): "0d90ce9cc4c7ba90cde5a8c83d1498767a844a00c41b3458bbdffbf8643472b5",
}

# `dump --height 0` of two vertices joined by seven parallel edges, yamada variant.
MULTIEDGE7_HEIGHT0_DIGEST = "65033d0bf19622ec7277f6e763dbfaf74f2d093d86b1a3ce6c0d9611ca7ede74"

# `dump --height h` of the 10-cycle in canonical edge order, tutte variant: the
# benchmark's dump-build graph (height 0) and its widest height.
CYCLE10_HEIGHT_DIGESTS = {
    0: "1d0301422ade780096515c413b0d11afe342302b0ad6d75e221fc762b16fcf22",
    5: "75cac36b08c6bb3fa042b33d4d116de22809f01ad0986246c9b889b62eab70db",
}

# Pinned from the output before block positions were worked out when a
# height is read rather than at build. `dump --height 0` of the benchmark's
# dump-build graphs in canonical edge order and shuffled by
# random.Random(2308) (multiedge7's seven edges are all parallel, so every
# order prints the same); `dump --height h` of K4 at every height; and the
# blocks of every height in the order their triplets were written, unsorted,
# since `_eliminate` reads them in that order.
DUMP_ORDER_DIGESTS = {
    ("multiedge7", "yamada", "canonical"): "65033d0bf19622ec7277f6e763dbfaf74f2d093d86b1a3ce6c0d9611ca7ede74",
    ("multiedge7", "yamada", "shuffled"): "65033d0bf19622ec7277f6e763dbfaf74f2d093d86b1a3ce6c0d9611ca7ede74",
    ("cycle10", "tutte", "canonical"): "1d0301422ade780096515c413b0d11afe342302b0ad6d75e221fc762b16fcf22",
    ("cycle10", "tutte", "shuffled"): "93b27b7ff6808283c6673893287b94dff977bff312c114497ebc1a76d9ed34aa",
}
K4_HEIGHT_DIGESTS = {
    ("yamada", 0): "68bd93a38d4d472bf4a1f90f697c8287c7fc3430946fea86468978bbaa534c16",
    ("yamada", 1): "f08b73a2b4b18c17b8c302e77f74dff2c8a125eba8583b9f6cfabb6315ed5850",
    ("yamada", 2): "2da1ec66e19973fb814f5d0ccb3d557f2aa3d7133f9e2248f14613346cc5886c",
    ("yamada", 3): "1e327361dd1aaf908a96dd2cdd4605e92676c1cd8dee643d125ded56d4f7b199",
    ("yamada", 4): "a602b5594d2baa559dbb651aeb5090570e9bc6bdb4d938ef180c8609534ffb57",
    ("yamada", 5): "9a90e55712a3d302d8c64626499bf17d1fc1241df69b93ae2f4335f360550dce",
    ("tutte", 0): "3f6ec25be11fcbc5999af3076b910e71e87ae0c87a683706c611303515ed4930",
    ("tutte", 1): "156672d90b367caa58e60a9303135b2e3e6b36d2a06ba3b255b782de8b9e1ffd",
    ("tutte", 2): "61be4c54df438a120a0a61b39871c19644dfc42b325403a8778f5546b49ee5b4",
    ("tutte", 3): "e014548bde4df37fdb4876e8fbbc276b82fdc096515a1592e4200065dd4dd828",
    ("tutte", 4): "f549d625ab2428fce92c8bbc14d85abbfe43aae99a494383d56e116a92d61712",
    ("tutte", 5): "645fe8cb6a321f235daf4ed50fadb86821e5f2da26f1acd321b628bd169c3f7e",
}
TRIPLET_DIGESTS = {
    ("K4", "yamada"): "9c7216f6c21a4fa8526ef3f0163a543b548fa047cc1da617063fafa6022b5298",
    ("K4", "tutte"): "84f5ba1e95934aad23626130fe39f59d7d6dcb3b03cfe334975cd4218c4f0a1a",
    ("cycle5", "yamada"): "b9ece4133284f58dfee16548840b7f61b313ec2cc9bf47db631412b8c4eac38e",
    ("cycle5", "tutte"): "b1c4a120ff9ff5e6ce9e167296ec460560743f9939b8c8bb8dcdc0c604913702",
    ("multiedge5", "yamada"): "0c575ede35786e0b1ff3a56a29fc67dba928fd23656cd25037dd6002a307132c",
    ("multiedge5", "tutte"): "8b23172842e047ad959168bb3573668831e1d2e5888b1e08946f0d6fabe00ead",
}
# The same over the blocks of every height of each cycle summand D_L that
# `tutte_cohomology` builds, keyed by (graph, L), pinned from the builds
# before D_L was the chromatic complex on its own states: the tutte complex
# restricted to the states with b1 >= L and given slots (b0, 0).
DL_TRIPLET_DIGESTS = {
    ("K4", 1): "dcce248348ec355dcfe9ea6ed6a8695569382d404b65f3e0064a554caf1ced3d",
    ("K4", 2): "67db19555307966b8d621d95b22a884af39379e9e95b2fdb1f4c07db68b29d79",
    ("K4", 3): "5f653d2f27a17935bee77240afac80bab64a78c94f54eccd85e230784e54f17a",
    ("K5", 1): "1fb9d328b11ec1bae70346bcaad36e274aaf1e6af5fc6024f8bc8aa2a9917745",
    ("K5", 2): "80603a73c1945f62f2f901fa158df0c00fc53b20956e355de61fe5939eb432c3",
    ("K5", 3): "5736c455aa5c3634e4dd210d534bef9f437b4cb63e6e6c4f94025aee111817af",
    ("K5", 4): "86805701b88cc598af0615fcff2bae24dbb1625df1079da63eec9caf920c444e",
    ("K5", 5): "9f1699a75811ce2ae6640c1b1f688b1cba59e9f81ef8015cbe24d425d03948d7",
    ("K5", 6): "5f653d2f27a17935bee77240afac80bab64a78c94f54eccd85e230784e54f17a",
    ("bouquet4", 1): "955aed44e15ca3485b0f2177dcb4e47eabc9f511337be261d67a4a07faccbcc8",
    ("bouquet4", 2): "792fed5a6aa35df8d1ca2d7f944b4534eb66844890c4b1bef6217bb2d56d597d",
    ("bouquet4", 3): "0679af7e6737f293aef8a62f640c79122f3597df7d710872149dfc6b4a29dd3a",
    ("bouquet4", 4): "5f653d2f27a17935bee77240afac80bab64a78c94f54eccd85e230784e54f17a",
    ("cycle5_with_a_loop", 1): "61c14044e53c904f4a74ee622b672cd28aee8f9c3f7fe13bc94873fabfa031b2",
    ("cycle5_with_a_loop", 2): "5f653d2f27a17935bee77240afac80bab64a78c94f54eccd85e230784e54f17a",
    ("cycle6", 1): "5f653d2f27a17935bee77240afac80bab64a78c94f54eccd85e230784e54f17a",
    ("cycle8", 1): "5f653d2f27a17935bee77240afac80bab64a78c94f54eccd85e230784e54f17a",
    ("mixed", 1): "7f91a43328e09617f3cf8bd753c395f1b20ccee825489100e2b7ff24ae6d066a",
    ("mixed", 2): "5ada2bf472516028e00af9953576db6d54ef736c063ae11abf530f3035cf71e4",
    ("mixed", 3): "10f5f8c85bf2bb71e4bd108effc116c7342c70b97a939baed104e22035cc1a47",
    ("multiedge7", 1): "88563d410b1776b375b2a1b359e232f37a6ab3d1b0e9089b11edb3bd9ff4b99b",
    ("multiedge7", 2): "d51077357113a061249c905406ca74534c26589cc223828b86c17fd6dbc3d036",
    ("multiedge7", 3): "dc4817ec6c03dc10a3fe0f6b5657810a12f5c6a3076f8f5de6b7b7f2bfa541f5",
    ("multiedge7", 4): "73febff6bd25608c18fa04478866c396a59dcf027cc45f5b94c9910b2207b34a",
    ("multiedge7", 5): "6c8e4e61fa3e9c9eac7da1c27f9bfc63c7738768879f00ba0a2d5827ec586c25",
    ("multiedge7", 6): "5f653d2f27a17935bee77240afac80bab64a78c94f54eccd85e230784e54f17a",
    ("triangle_and_two_points", 1): "10f5f8c85bf2bb71e4bd108effc116c7342c70b97a939baed104e22035cc1a47",
    ("two_triangles", 1): "7c15236170ee60c1695230dce3f1b8edff7fb4ee0149e635790e4a82c840da49",
    ("two_triangles", 2): "811b6e501f07b15a5acb16af0386089d2f5b66adfaf74d694dbbfa05fd76e21f",
    ("wheel5", 1): "c5b602edad999905e5d4d14c37a36cc2219d02945a4d42826dd4283791ef0aca",
    ("wheel5", 2): "3bbc1620de2c884b6aeb5f3e6b24d1a34f9bdf64645b5625f1b2c428d8910ab6",
    ("wheel5", 3): "24c229a89e4cbd7cb92bb798b68482cf586f2b8425bab06487a389c633e6360c",
    ("wheel5", 4): "9f1699a75811ce2ae6640c1b1f688b1cba59e9f81ef8015cbe24d425d03948d7",
    ("wheel5", 5): "5f653d2f27a17935bee77240afac80bab64a78c94f54eccd85e230784e54f17a",
}

POLY_DIGESTS = {
    ("bigon", "yamada"): "2e896845fbe61205c80242b9a62d34684af65f9d195273d6d5984919afd5255f",
    ("bigon", "g"): "fa0fc0144e1e3180df39261a7d0fadacf8ddf0e172d02ae129e2dbe3bd0f8127",
    ("bigon", "tutte"): "b37d95b77af1e7d2a2dfa1f66fef618444378201659102c3331f5a9226d62efb",
    ("bigon", "chromatic"): "907b5ad33193a9350b42e4dd3aac386812e396825f735e6c64d72a7806d97cee",
    ("bigon", "flow"): "665e46da2360295ea6c78710185c0176828cebb0a207a16a2eec13abb0d79299",
    ("bigon", "negami"): "936a27dd1e234e018f48ada79ee59dc6de8292f1ad9fcc52774c07c6b37302d4",
    ("triangle", "yamada"): "2e896845fbe61205c80242b9a62d34684af65f9d195273d6d5984919afd5255f",
    ("triangle", "g"): "85ac616b069d1a2e871415f52b8bc5097e2afd404531bf257f4cc6dccf04828d",
    ("triangle", "tutte"): "1db846257f4e17959d07854c5861f8dc9b7328484674b4fcb4983598252bcf89",
    ("triangle", "chromatic"): "4a28cbbf7b0dcf4e295446cc1d7076a5717f40140e56597ad9c4f9b1fbc212e8",
    ("triangle", "flow"): "665e46da2360295ea6c78710185c0176828cebb0a207a16a2eec13abb0d79299",
    ("triangle", "negami"): "879f64a7c11b85a7d11a00d7d79026e0256a8dde94f9b402cb78279cd9c7d855",
    ("cycle5", "yamada"): "2e896845fbe61205c80242b9a62d34684af65f9d195273d6d5984919afd5255f",
    ("cycle5", "g"): "2aa702aeea92467dc6dfae87ab3ea797939be708a1c0a507e565f9a0c4a2c376",
    ("cycle5", "tutte"): "786b9579e31ded6c4ddcf364ee8a455aa1664ff71aedaf704b442be0ad07c6c3",
    ("cycle5", "chromatic"): "dbcb39a5995f59b5ad1fdc37f1b11de4d25f3239b2aa4c4d350cfb5121922e58",
    ("cycle5", "flow"): "665e46da2360295ea6c78710185c0176828cebb0a207a16a2eec13abb0d79299",
    ("cycle5", "negami"): "98209d786359d6265ac9058dabd0b258754a9476226e9c3869c75cac4595b3ad",
    ("mixed", "yamada"): "2ffa2489db35c4cb9db996f4f22f3e5ce7f07bc29e1be3630c76c4ce608030e0",
    ("mixed", "g"): "7c97ee7a6e737f6c6ab88cf492afd691052904839734b226613fa9528e35676d",
    ("mixed", "tutte"): "b92e91ed81c3797d1fafb59879b6a2e499eb1ba27f82fe98ff4b6d1650e435f0",
    ("mixed", "chromatic"): "aa7e3d069b2d509c7ba6dfc643133e8600da3022f355e9d16bd617e3e878747a",
    ("mixed", "flow"): "e7d0dac79c873c7637b30df691bcf5a58f4e039562636845a593306c52114971",
    ("mixed", "negami"): "98209d786359d6265ac9058dabd0b258754a9476226e9c3869c75cac4595b3ad",
    ("K4", "yamada"): "fd155635610da83d9f913fcb24aab94fa5d32918b77a6b8039dce96ce4f90ae4",
    ("K4", "g"): "2e73f98c032542f3a129530cd8149bf12464469f30cdd66a982831b1b228783d",
    ("K4", "tutte"): "d54872e656d15d2965fa5baeea3540108cfe975c279cd9c0671f7e019684c44c",
    ("K4", "chromatic"): "7355d082b7628e635325b49a3400120281d6f0ce96575898cee95698567cd68b",
    ("K4", "flow"): "aedccc2cd6715a0b4d7a95e2baf48ef84bc8f0d675ed19ff50b58add706c02a2",
    ("K4", "negami"): "275b7eb8d37ed2d1702f1a97cd262cab0a316525a9dc02e72caa9d2e07ab77a1",
    ("multi12", "yamada"): "81edc33a40b0722f124df3e6c0ac912cb8adfb956d82d652452b34427474c791",
    ("multi12", "g"): "b57ecd218923ac1e14f2391cacf723a88f3895a278bbc39572bf30840ba0b672",
    ("multi12", "tutte"): "3c127a5b6c7d86b81de2186167304c4fb70059996f12704187ad09dd8483b97e",
    ("multi12", "chromatic"): "259179b29f74492890680da5639da5f62818ec6ce84265046f897ddac176dcaf",
    ("multi12", "flow"): "cbb62a6456cb5cbe7ab95a93d4a21991579017ab8964428d8258a19100d22722",
    ("multi12", "negami"): "667f50a80cf4c4f39d75e6905017a0e1b1b71d31b28cb83a43b2801f6fdab34e",
    ("path6", "yamada"): "aa7e3d069b2d509c7ba6dfc643133e8600da3022f355e9d16bd617e3e878747a",
    ("path6", "g"): "aa7e3d069b2d509c7ba6dfc643133e8600da3022f355e9d16bd617e3e878747a",
    ("path6", "tutte"): "a61310c6a6346f7f974b09438bd87da07868a9e98f2e26aed00c7680d8df9514",
    ("path6", "chromatic"): "65b3b6f20a0acc24f2628f25fb28d4e14e6bbada470e9c1eb49e6ecb9b915bfe",
    ("path6", "flow"): "aa7e3d069b2d509c7ba6dfc643133e8600da3022f355e9d16bd617e3e878747a",
    ("path6", "negami"): "275b7eb8d37ed2d1702f1a97cd262cab0a316525a9dc02e72caa9d2e07ab77a1",
    ("star5", "yamada"): "aa7e3d069b2d509c7ba6dfc643133e8600da3022f355e9d16bd617e3e878747a",
    ("star5", "g"): "aa7e3d069b2d509c7ba6dfc643133e8600da3022f355e9d16bd617e3e878747a",
    ("star5", "tutte"): "e845278a8c396ec90cad11a5f312f412911768efe3a4327429112fa11a879d33",
    ("star5", "chromatic"): "d956756ece1dc9b3a0d154d42dae9360744be9744865b157c20ff628b996066f",
    ("star5", "flow"): "aa7e3d069b2d509c7ba6dfc643133e8600da3022f355e9d16bd617e3e878747a",
    ("star5", "negami"): "98209d786359d6265ac9058dabd0b258754a9476226e9c3869c75cac4595b3ad",
    ("two_paths", "yamada"): "aa7e3d069b2d509c7ba6dfc643133e8600da3022f355e9d16bd617e3e878747a",
    ("two_paths", "g"): "aa7e3d069b2d509c7ba6dfc643133e8600da3022f355e9d16bd617e3e878747a",
    ("two_paths", "tutte"): "e845278a8c396ec90cad11a5f312f412911768efe3a4327429112fa11a879d33",
    ("two_paths", "chromatic"): "545c04540e0d362176a7d3cbec40c356081f1bb44b3850e6019f5efae989714c",
    ("two_paths", "flow"): "aa7e3d069b2d509c7ba6dfc643133e8600da3022f355e9d16bd617e3e878747a",
    ("two_paths", "negami"): "98209d786359d6265ac9058dabd0b258754a9476226e9c3869c75cac4595b3ad",
}


def _cycle_plus_chords(seed, vertices, edge_count):
    """Loopless multigraph: a cycle through every vertex in seeded random
    order plus seeded random chords, parallel ones allowed."""
    rng = random.Random(seed)
    order = rng.sample(range(vertices), vertices)
    edges = [[order[i], order[(i + 1) % vertices]] for i in range(vertices)]
    while len(edges) < edge_count:
        edges.append(rng.sample(range(vertices), 2))
    return {"vertices": vertices, "edges": edges}


# (seed, vertices, edges) of two graphs the size of the largest inputs of the
# poly-statesum benchmark workload; the digests are of the output of the
# previous, per-cell polynomial arithmetic of the deletion-contraction rows.
CHORD_GRAPHS = {"chords14": (2714, 8, 14), "chords15": (2715, 9, 15)}

CHORD_POLY_DIGESTS = {
    ("chords14", "yamada"): "a14e769fa151d81ae2cae1892a913108f7cb2482f97ecd358c85e6e8ac1b3ad8",
    ("chords14", "g"): "a0ac3a90683010606d95e04be10c4dc2cdbd4b063deb26052b5cc0d499e38966",
    ("chords14", "tutte"): "89ec865ec32a17d9c9b1171c82506006d55112450a9e3d875795b67787d050f8",
    ("chords14", "chromatic"): "b5ef9312ec4627441aa1a909c8600578481415c64e99fa714d9a43611714bfb1",
    ("chords14", "flow"): "e8fa73c727c8974648c67abf7554c740a299c876a17a0a9c8b81b42b01fad1d6",
    ("chords14", "negami"): "7abcce9ac7ed99d8ef7d6ab6f2b21fcebac886d9e4048466b19f55a6074688f4",
    ("chords15", "yamada"): "80d6d535d996dda96580f308fd50107c7ac85768bc2f1404851cf215fcb6ee3b",
    ("chords15", "g"): "e995961ad2b9c3b3dec6f3703355b692161b1a939286c9fdb381d13627ef0387",
    ("chords15", "tutte"): "cde7feb29b61f05b59ea0128be3f98f04c185900b7b0c9dcb3c74a0d8fe711cc",
    ("chords15", "chromatic"): "a27fca69a4f7b6baa7dde7c4df572d875fb16ca2c686f5b7b1672467b8d3e5f4",
    ("chords15", "flow"): "21cf220c710c6598073e467b400c5051b38c545fd5c3dd5ce67f8ef623d38177",
    ("chords15", "negami"): "980c684a8f058f9b7479dc9cb3a02db3adc732efd13a5749a8dff4b81233283d",
}

# sha256 over the JSON tables of every corpus graph, yamada then tutte per graph:
# pins the corpus torsion (thirty Z/2 factors), which Euler characteristics cannot see.
CORPUS_TABLES_DIGEST = "415357bade4b1bde10106dae4ab913e0c405ea27f15be3cf2c259060510c1058"


def _graph_path(name, tmp_path):
    if name in ("bigon", "triangle"):
        return str(GRAPHS / f"{name}.json")
    data = {
        "cycle5": to_json_dict(cycle_graph(5)),
        "cycle6": to_json_dict(cycle_graph(6)),
        "cycle8": to_json_dict(cycle_graph(8)),
        "cycle10": to_json_dict(cycle_graph(10)),
        "path6": to_json_dict(tree_graph(6)),
        "K4": K4,
        "K5": K5,
        "mixed": MIXED,
        "multi12": MULTI12,
        "multiedge7": to_json_dict(multiedge_graph(7)),
        "wheel5": WHEEL5,
        "two_triangles": TWO_TRIANGLES,
        "cycle5_with_a_loop": CYCLE5_WITH_A_LOOP,
        "star5": STAR5,
        "two_paths": TWO_PATHS,
    }[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("name,command,variant", sorted(DIGESTS))
def test_output_digest(name, command, variant, tmp_path, capsys):
    argv = [command, "--variant", variant, "--input", _graph_path(name, tmp_path)]
    if command == "cohomology":
        argv.append("--json")
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[(name, command, variant)]


@pytest.mark.parametrize("name,variant,form", sorted(ROUTE_DIGESTS))
def test_route_cohomology_digest(name, variant, form, tmp_path, capsys):
    argv = ["cohomology", "--variant", variant, "--input", _graph_path(name, tmp_path)]
    assert run(argv + (["--json"] if form == "json" else [])) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ROUTE_DIGESTS[(name, variant, form)]


def test_dump_height_digest(tmp_path, capsys):
    argv = ["dump", "--variant", "yamada", "--height", "0"]
    assert run(argv + ["--input", _graph_path("multiedge7", tmp_path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == MULTIEDGE7_HEIGHT0_DIGEST


@pytest.mark.parametrize("height", sorted(CYCLE10_HEIGHT_DIGESTS))
def test_cycle10_dump_height_digest(height, tmp_path, capsys):
    argv = ["dump", "--variant", "tutte", "--height", str(height)]
    assert run(argv + ["--input", _graph_path("cycle10", tmp_path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CYCLE10_HEIGHT_DIGESTS[height]


@pytest.mark.parametrize("name,variant,order", sorted(DUMP_ORDER_DIGESTS))
def test_dump_height_0_digest_in_two_edge_orders(name, variant, order, tmp_path, capsys):
    data = to_json_dict({"multiedge7": multiedge_graph(7), "cycle10": cycle_graph(10)}[name])
    if order == "shuffled":
        random.Random(2308).shuffle(data["edges"])
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    assert run(["dump", "--variant", variant, "--height", "0", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DUMP_ORDER_DIGESTS[(name, variant, order)]


@pytest.mark.parametrize("variant,height", sorted(K4_HEIGHT_DIGESTS))
def test_k4_dump_height_digest(variant, height, tmp_path, capsys):
    argv = ["dump", "--variant", variant, "--height", str(height)]
    assert run(argv + ["--input", _graph_path("K4", tmp_path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == K4_HEIGHT_DIGESTS[(variant, height)]


def _triplets_digest(cx):
    digest = hashlib.sha256()
    for level in cx.blocks:
        for jk, block in level.items():
            triplets = map(list, (block.row_of, block.col_of, block.val_of))
            digest.update(repr((jk, block.rows, block.cols, *triplets)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name,variant", sorted(TRIPLET_DIGESTS))
def test_block_triplets_digest_in_written_order(name, variant):
    G = {"K4": from_json_dict(K4), "cycle5": cycle_graph(5), "multiedge5": multiedge_graph(5)}[name]
    assert _triplets_digest(cube.build_complex(G, variant)) == TRIPLET_DIGESTS[(name, variant)]


DL_GRAPHS = {**ROUTE_GRAPHS, "K5": from_json_dict(K5), "wheel5": from_json_dict(WHEEL5)}


@pytest.mark.parametrize("name", sorted(DL_GRAPHS))
def test_cycle_summand_triplets_digest_in_written_order(name, monkeypatch):
    # Graphs without a cycle build no D_L, and have no digest.
    built = []
    build = homology.build_complex
    monkeypatch.setattr(homology, "build_complex", lambda *args: built.append(build(*args)) or built[-1])
    tutte_cohomology(DL_GRAPHS[name])
    assert {cx.variant for cx in built} <= {"chromatic"}
    assert {(name, L): _triplets_digest(cx) for L, cx in enumerate(built, 1)} == {
        key: digest for key, digest in DL_TRIPLET_DIGESTS.items() if key[0] == name
    }


@pytest.mark.parametrize("name,which", sorted(POLY_DIGESTS))
def test_poly_digest(name, which, tmp_path, capsys):
    assert run(["poly", "--which", which, "--input", _graph_path(name, tmp_path), "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == POLY_DIGESTS[(name, which)]


@pytest.mark.parametrize("name,which", sorted(CHORD_POLY_DIGESTS))
def test_chord_graph_poly_digest(name, which, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(_cycle_plus_chords(*CHORD_GRAPHS[name])))
    argv = ["poly", "--which", which, "--max-edges", "15", "--input", str(path), "--json"]
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CHORD_POLY_DIGESTS[(name, which)]


@pytest.mark.parametrize("name", sorted({name for name, _ in POLY_DIGESTS}))
def test_poly_output_does_not_depend_on_edge_order(name, tmp_path, capsys):
    # every row is an invariant of the graph, not of its edge order
    data = json.loads(Path(_graph_path(name, tmp_path)).read_text())
    rng = random.Random(2308)
    orders = [data["edges"]] + [rng.sample(data["edges"], len(data["edges"])) for _ in range(2)]
    assert len({json.dumps(edges) for edges in orders}) == (1 if name == "bigon" else 3)
    for which in POLY_CHOICES:
        outs = []
        for k, edges in enumerate(orders):
            path = tmp_path / f"{name}-order{k}.json"
            path.write_text(json.dumps({"vertices": data["vertices"], "edges": edges}))
            assert run(["poly", "--which", which, "--input", str(path), "--json"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[1:] == outs[:1] * 2, which


def test_corpus_tables_digest(corpus, table_of):
    digest = hashlib.sha256()
    for G in corpus:
        for variant in ("yamada", "tutte"):
            table = table_of(G, variant)
            digest.update(json.dumps(table.to_json_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == CORPUS_TABLES_DIGEST


def _corrupt_first_edge_map(monkeypatch, changes, at=None):
    """Set the entries `changes` (source -> target, -1 to kill it) of the
    target array of edge e out of state S with (S, e) == `at`, or else of
    the first per-edge map that `build_complex` asks for (the bigon's
    S = {}, e = 0, whose array is [0, 2, 2, -1, -1])."""
    original = cube._edge_rule
    seen = []

    def corrupted(mask, e, *args):
        target = original(mask, e, *args)
        if seen or at not in (None, (mask, e)):
            return target
        seen.append(True)
        for x, y in changes.items():
            target[x] = y
        return target

    monkeypatch.setattr(cube, "_edge_rule", corrupted)
    return seen


def test_corrupted_map_breaking_bidegree_is_caught(monkeypatch):
    # target 1 carries a generator in the new edge slot: bidegree (1, 0), source 0 has (0, 0)
    seen = _corrupt_first_edge_map(monkeypatch, {0: 1})
    with pytest.raises(RuntimeError, match="bidegree"):
        cube.build_complex(bigon(), "yamada")
    assert seen


def test_corrupted_map_breaking_d_squared_is_caught(monkeypatch):
    # Killing 1 (x) 1, source 0, in the map of edge 1 out of {0} keeps every
    # bidegree, but the face {} -> {0, 1} stops commuting: the map of edge 0
    # out of {1} inserts its unit at another position, so it has another key
    # and stays whole. (Both edges out of {} share one map, so corrupting
    # that one would leave a complex.)
    seen = _corrupt_first_edge_map(monkeypatch, {0: -1}, at=(0b1, 1))
    with pytest.raises(RuntimeError, match="d\\^2"):
        cube.build_complex(bigon(), "yamada")
    assert seen


def test_corrupted_map_names_its_lowest_faulty_source(monkeypatch):
    # Sources 1 and 2 (bidegree (1, 0)) go to 3 (bidegree (2, 0)) and to 0
    # (bidegree (0, 0)); the killed source 0 is not checked. The message names
    # source 1, not the entry of the lowest target.
    seen = _corrupt_first_edge_map(monkeypatch, {0: -1, 1: 3, 2: 0})
    with pytest.raises(RuntimeError) as caught:
        cube.build_complex(bigon(), "yamada")
    assert str(caught.value) == "differential d^0 does not preserve the bidegree at entry (3,1)"
    assert seen


def _corrupt_maps_out_of_height_2_and_up(monkeypatch, fault):
    """Break the first per-edge map that `build_complex` asks for out of a
    state with |S| >= 2 (in the yamada variant each height has maps of its
    own): "bidegree" sends 0, the unit, to 1, an edge generator, and "face"
    kills 0."""
    original = cube._edge_rule
    seen = []

    def corrupted(mask, *args):
        target = original(mask, *args)
        if seen or mask.bit_count() < 2:
            return target
        seen.append(mask)
        target[0] = 1 if fault == "bidegree" else -1
        return target

    monkeypatch.setattr(cube, "_edge_rule", corrupted)
    return seen


@pytest.mark.parametrize(
    "fault,message",
    [
        ("bidegree", "error: differential d^2 does not preserve the bidegree at entry (1,0)\n"),
        ("face", "error: d^2 != 0 between heights 1 and 3\n"),
    ],
)
def test_dump_of_height_0_still_verifies_every_height(fault, message, monkeypatch, tmp_path, capsys):
    # The fault sits only in maps out of heights 2 and up, whose blocks
    # `dump --height 0` never writes; the build must refuse the complex anyway.
    seen = _corrupt_maps_out_of_height_2_and_up(monkeypatch, fault)
    argv = ["dump", "--variant", "yamada", "--height", "0"]
    assert run(argv + ["--input", _graph_path("cycle5", tmp_path)]) == 1
    assert capsys.readouterr() == ("", message)
    assert seen
