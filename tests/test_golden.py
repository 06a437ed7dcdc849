"""Byte-identity guard for the deterministic report formats.

The sha256 digests of the JSON report and of the TSV row of every family
member q <= 53.  A change to the algorithms behind the report must leave
these bytes as they are; a deliberate change of the output format updates
the digests together with a note of what changed.
"""

import hashlib

import pytest

from octadesign.analysis import family_members, render_json, report_to_dict, report_tsv_row

# q -> (sha256 of render_json(report_to_dict(r)), sha256 of the TSV row)
GOLDEN = {
    5: (
        "0759485e44a1e25e8d439145a871e84dd92bb51f0632290bbab2c097cbbb5db9",
        "4d0e9174abf95155768c9e5b8b2427649f642495916938525f8ed0abdaf713b9",
    ),
    9: (
        "4975c4d9f0bbea0ec97259a25f63af5bf38a2351945bda2717541d2f1e5a7062",
        "fb92aa510ba47e6bf6cd472539d31a318f22c507bf803a117d64049e49546f6d",
    ),
    13: (
        "1e47279bb4fe108c2973205eddbc7d3e061d55ac599fa079fd8f41a105946d1e",
        "422cee28072f78360af1a96236bd9d1fc70df78b32ce6368e07096eb17d224ea",
    ),
    17: (
        "8b468d98f1ab6fe698fa8888baea8679a1baf31e7031dd1e4fcfd89125f8556a",
        "364f5e4c4d6a7a6d3a9aaf1ac0c47efbab96635ec851d8a1789304b7df8dab4a",
    ),
    25: (
        "5a4a8e1498efa0108d5a665391e2023746e3123ea99cebdc1ec1e67259db7e2c",
        "abfd71ee4a4172eac0cbe9600b30fbd817eb89d8cc14d3dcd1e26254df92af18",
    ),
    29: (
        "24ea649f4f01d3529bee9003102ac765a0ddf2d2a6698d9a55682706857fc63a",
        "a03701fa145ade5154060741ea18397243390ae5cf4c40b30ebb78a846e74a34",
    ),
    37: (
        "852d7dc5b57b3292f412bda4ebd9d154b67bbc434b384b5d29e2b4bf3c063700",
        "1131aa52e6af19e9724424dea879168aed29ebc250dad915a134e39db43fe357",
    ),
    41: (
        "a1a75fa33fe7b79004d5accc41ada23f1e397b87d5d1f2bf546fd04557c2d741",
        "990048f27c1ff45064e8582e3918e9a0df793596e18db01206f1ffcc46d5c8c5",
    ),
    49: (
        "ac040c8017020904baa7ac65e5b88979102efca9d14c1a6c998b3e213336b20e",
        "e576c2b4e40b4b87caaabe80086b3c12538a52b537d2924b4e41ab972eae136a",
    ),
    53: (
        "d6d744287a05a5e889a87ebef378b4abd8870415977452c493efc51722cac3ee",
        "d81ced8bb6dd1396a0660b5611d9cb87c590f3f6d34d15e1d554a2d60d300ada",
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def test_golden_covers_every_member_through_53():
    assert sorted(GOLDEN) == family_members(53)


@pytest.mark.parametrize("q", sorted(GOLDEN))
def test_report_bytes_unchanged(cache, q):
    report = cache.report(q)
    json_digest, tsv_digest = GOLDEN[q]
    assert _sha256(render_json(report_to_dict(report))) == json_digest
    assert _sha256("\t".join(report_tsv_row(report))) == tsv_digest
