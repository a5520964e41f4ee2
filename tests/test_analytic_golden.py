"""Golden outputs of the vectorised Allreduce model.

Pins, for a grid of scenarios, job sizes (power-of-two and folded) and
variants (200 µs compute between calls, none, the switch-combined
hardware collective, an aligned cron outlier inside the series), the sha256 of ``durations_us`` and one
``model.rng.random()`` drawn after the series.  The extra draw catches a
missing or extra RNG draw even where the durations happen to coincide,
so any optimisation of the model must keep every draw: same order, same
sizes, same ``lam``, same float association.
"""

import dataclasses
import hashlib

import pytest

from repro.analytic.model import AllreduceSeriesModel
from repro.daemons.catalog import standard_noise
from repro.experiments.common import PROTO16, VANILLA15, VANILLA16, make_config

SCENARIOS = {"vanilla16": VANILLA16, "vanilla15": VANILLA15, "proto16": PROTO16}
SIZES = {
    "vanilla16": (2, 3, 64, 100),
    "vanilla15": (2, 3, 64, 45),
    "proto16": (16, 32, 64, 100),
}
VARIANTS = ("plain", "nocompute", "hardware", "cron")
N_CALLS = 24

GOLDEN = {
    "vanilla16-n2-plain-s1": ('89e33c998c9f6952', 0.7807241847334279),
    "vanilla16-n2-plain-s7": ('42be03df83b66358', 0.2926420351358663),
    "vanilla16-n2-nocompute-s1": ('bcfc21e7c0b2f608', 0.1181052271508587),
    "vanilla16-n2-nocompute-s7": ('bcfc21e7c0b2f608', 0.3793196242525677),
    "vanilla16-n2-hardware-s1": ('61ac0a218a548561', 0.7807241847334279),
    "vanilla16-n2-hardware-s7": ('4d3f913e35477a89', 0.2926420351358663),
    "vanilla16-n2-cron-s1": ('b8c19431fe556345', 0.3602638846836431),
    "vanilla16-n2-cron-s7": ('bcfc21e7c0b2f608', 0.25277455038430674),
    "vanilla16-n3-plain-s1": ('44cb9116e9fcbc89', 0.7547914201079906),
    "vanilla16-n3-plain-s7": ('638f5cd399363f72', 0.923859714221812),
    "vanilla16-n3-nocompute-s1": ('09904ef3b6b11fde', 0.8330947688085336),
    "vanilla16-n3-nocompute-s7": ('09904ef3b6b11fde', 0.2658648776948195),
    "vanilla16-n3-hardware-s1": ('e562c0c69429e5f5', 0.7547914201079906),
    "vanilla16-n3-hardware-s7": ('15054a46878216a4', 0.923859714221812),
    "vanilla16-n3-cron-s1": ('09904ef3b6b11fde', 0.051673939119395995),
    "vanilla16-n3-cron-s7": ('890118380c58f571', 0.5269372000500572),
    "vanilla16-n64-plain-s1": ('cf1cd4257cd3a061', 0.17643181021788423),
    "vanilla16-n64-plain-s7": ('070ca688ec259a74', 0.959614779007885),
    "vanilla16-n64-nocompute-s1": ('16de6efcfc9af38b', 0.515861219488901),
    "vanilla16-n64-nocompute-s7": ('626afd526aa28c0e', 0.8497518392599621),
    "vanilla16-n64-hardware-s1": ('e725fc9b581e50d8', 0.5897947700274563),
    "vanilla16-n64-hardware-s7": ('311373e2413de606', 0.3390477580272764),
    "vanilla16-n64-cron-s1": ('14bfc652349216b0', 0.2431697590444417),
    "vanilla16-n64-cron-s7": ('cc722ddec674974a', 0.8825109749322415),
    "vanilla16-n100-plain-s1": ('840c51b2fba3391b', 0.3204627737528448),
    "vanilla16-n100-plain-s7": ('85f0e1043ef35fa2', 0.23066655311875484),
    "vanilla16-n100-nocompute-s1": ('7599b7e315491cb3', 0.9706396326677738),
    "vanilla16-n100-nocompute-s7": ('677495c042975075', 0.551127065180228),
    "vanilla16-n100-hardware-s1": ('103a938974a23ff8', 0.4656212019754268),
    "vanilla16-n100-hardware-s7": ('b9ef94f1f9a728d5', 0.33132873050239786),
    "vanilla16-n100-cron-s1": ('c60cda515141efca', 0.9706396326677738),
    "vanilla16-n100-cron-s7": ('4587f4c16d30c4fd', 0.8449809211858442),
    "vanilla15-n2-plain-s1": ('89e33c998c9f6952', 0.7807241847334279),
    "vanilla15-n2-plain-s7": ('42be03df83b66358', 0.2926420351358663),
    "vanilla15-n2-nocompute-s1": ('bcfc21e7c0b2f608', 0.1181052271508587),
    "vanilla15-n2-nocompute-s7": ('bcfc21e7c0b2f608', 0.3793196242525677),
    "vanilla15-n2-hardware-s1": ('61ac0a218a548561', 0.7807241847334279),
    "vanilla15-n2-hardware-s7": ('4d3f913e35477a89', 0.2926420351358663),
    "vanilla15-n2-cron-s1": ('bcfc21e7c0b2f608', 0.09358685304259973),
    "vanilla15-n2-cron-s7": ('bcfc21e7c0b2f608', 0.25277455038430674),
    "vanilla15-n3-plain-s1": ('44cb9116e9fcbc89', 0.7547914201079906),
    "vanilla15-n3-plain-s7": ('638f5cd399363f72', 0.923859714221812),
    "vanilla15-n3-nocompute-s1": ('09904ef3b6b11fde', 0.8330947688085336),
    "vanilla15-n3-nocompute-s7": ('09904ef3b6b11fde', 0.2658648776948195),
    "vanilla15-n3-hardware-s1": ('e562c0c69429e5f5', 0.7547914201079906),
    "vanilla15-n3-hardware-s7": ('15054a46878216a4', 0.923859714221812),
    "vanilla15-n3-cron-s1": ('09904ef3b6b11fde', 0.8127496434167762),
    "vanilla15-n3-cron-s7": ('287d16c606f29719', 0.5161611875109439),
    "vanilla15-n64-plain-s1": ('81dda0e62fe86c4a', 0.19525522201038392),
    "vanilla15-n64-plain-s7": ('36f42070d931b464', 0.24013091251291296),
    "vanilla15-n64-nocompute-s1": ('ffce0545de72edd8', 0.660063413621272),
    "vanilla15-n64-nocompute-s7": ('3689a01b6fae3876', 0.029290387247850047),
    "vanilla15-n64-hardware-s1": ('d0f3b1dab6796816', 0.620188284240582),
    "vanilla15-n64-hardware-s7": ('2857a863a1315769', 0.540109991017857),
    "vanilla15-n64-cron-s1": ('0906ad2ffa896c0c', 0.7845818120083595),
    "vanilla15-n64-cron-s7": ('17048fac99dc0338', 0.6323945397604562),
    "vanilla15-n45-plain-s1": ('2c74b19c91393bbf', 0.5903696191713428),
    "vanilla15-n45-plain-s7": ('d310aa1fa33a59de', 0.40195139857710505),
    "vanilla15-n45-nocompute-s1": ('06b3383e57e24bdf', 0.32466718432941444),
    "vanilla15-n45-nocompute-s7": ('0a8172891e68e345', 0.7069073466861241),
    "vanilla15-n45-hardware-s1": ('02c96c3d806028b5', 0.6738650673002263),
    "vanilla15-n45-hardware-s7": ('dcd888c8fe43a8de', 0.46533700401343947),
    "vanilla15-n45-cron-s1": ('74e54b73e8e63181', 0.752333799092683),
    "vanilla15-n45-cron-s7": ('3087dd1b90cf89dd', 0.33982263743429386),
    "proto16-n16-plain-s1": ('5cb6c6f28b6f4571', 0.322144505857221),
    "proto16-n16-plain-s7": ('2c354d27a7e296ef', 0.10817436108126144),
    "proto16-n16-nocompute-s1": ('5b87e2da390cdf92', 0.16630834769335456),
    "proto16-n16-nocompute-s7": ('803d5dbaad92f595', 0.862525768450412),
    "proto16-n16-hardware-s1": ('768a53cd1d20ec00', 0.12172798924528028),
    "proto16-n16-hardware-s7": ('b4f742a87f7b9c85', 0.9970022614943784),
    "proto16-n16-cron-s1": ('d143ae934cf0846f', 0.5026550404017353),
    "proto16-n16-cron-s7": ('f98bd70c4cad20ff', 0.7397884749980014),
    "proto16-n32-plain-s1": ('55c9990f5bdb8d4b', 0.8556550993487123),
    "proto16-n32-plain-s7": ('f59e6e3b4486ffda', 0.9910638379359133),
    "proto16-n32-nocompute-s1": ('ab15aabed178ca39', 0.04621854029754946),
    "proto16-n32-nocompute-s7": ('1a638a41ae6acf31', 0.35543028237620855),
    "proto16-n32-hardware-s1": ('95c82c0ebbd2614f', 0.9537679656279107),
    "proto16-n32-hardware-s7": ('308eee3e8d700d53', 0.40271400261855717),
    "proto16-n32-cron-s1": ('075ec2ca1c1751f8', 0.2536520687464976),
    "proto16-n32-cron-s7": ('33d0edf4b53d901c', 0.07186208896426627),
    "proto16-n64-plain-s1": ('fa2a3c56439881b8', 0.5796793322074694),
    "proto16-n64-plain-s7": ('77d3378b1831aa12', 0.04540598931756634),
    "proto16-n64-nocompute-s1": ('30d3f8461f62d0ad', 0.30209614135301555),
    "proto16-n64-nocompute-s7": ('850b4fdb4eb02f83', 0.3357761701270532),
    "proto16-n64-hardware-s1": ('1115f5f93e0ed068', 0.3658479643752496),
    "proto16-n64-hardware-s7": ('423beabcbbcf8f12', 0.8307740259170303),
    "proto16-n64-cron-s1": ('fb380a0a019edba6', 0.23042131864141358),
    "proto16-n64-cron-s7": ('d301398e88c4837d', 0.4426280703260318),
    "proto16-n100-plain-s1": ('49617e646f4cc615', 0.4684509005502403),
    "proto16-n100-plain-s7": ('f67a9b6103b490d2', 0.3258013494066332),
    "proto16-n100-nocompute-s1": ('1cf285fc4dab53c0', 0.6926576431503096),
    "proto16-n100-nocompute-s7": ('390c7bec0e43e7c4', 0.6442666305928664),
    "proto16-n100-hardware-s1": ('7742a9dec704a104', 0.4165952398067889),
    "proto16-n100-hardware-s7": ('4c360f0d4d18edbb', 0.6318643677398081),
    "proto16-n100-cron-s1": ('e1ff9b5c095a8231', 0.6842752941463676),
    "proto16-n100-cron-s7": ('b55da0df97dbba2e', 0.1383797172239435),
}


def run_case(key: str) -> tuple[str, float]:
    """Run the grid point *key* = ``<scenario>-n<ranks>-<variant>-s<seed>``."""
    name, n, variant, seed = key.split("-")
    scenario, n, seed = SCENARIOS[name], int(n[1:]), int(seed[1:])
    noise = (
        standard_noise(include_cron=True, cron_phase_us=100.0)
        if variant == "cron"
        else None
    )
    cfg = make_config(scenario, n, seed=seed, noise=noise)
    if variant == "hardware":
        cfg = cfg.replace(mpi=dataclasses.replace(cfg.mpi, algorithm="hardware"))
    model = AllreduceSeriesModel(cfg, n, scenario.tasks_per_node, seed=seed)
    compute_us = 0.0 if variant in ("nocompute", "cron") else 200.0
    res = model.run_series(N_CALLS, compute_us)
    digest = hashlib.sha256(res.durations_us.tobytes()).hexdigest()[:16]
    return digest, model.rng.random()


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_series_matches_golden(key):
    assert run_case(key) == GOLDEN[key]


def test_grid_is_fully_pinned():
    keys = {
        f"{name}-n{n}-{variant}-s{seed}"
        for name in SCENARIOS
        for n in SIZES[name]
        for variant in VARIANTS
        for seed in (1, 7)
    }
    assert keys == set(GOLDEN)
