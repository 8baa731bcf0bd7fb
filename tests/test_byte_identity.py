"""Byte-identity guard: reports, witness dumps and the archived per-layer
solutions must not change when the LP core is reworked.

Each digest is the SHA-256 of the exact CLI output (or of a canonical text
form of the archive), recorded before the single-solve maximal strict set
replaced the per-candidate loop; the random-suite digest was recorded
before LP rows became integers at construction, and the witness-dump
digest before the twin pre-path/proper-path builders became one, and
`RANDOM_SUITE_JSON_DIGEST`, which also covers the `layers` audit of the
exponential models, before that audit was rendered from the archive.  The
deep witness digests were recorded before the state-graph walks moved
into `model`, and the `v_family5`..`v_family7` archive digests, whose
iterations repeat the numbers of earlier ones, before repeated layer
systems reused their solve.  `STRICT_SET_DIGEST` was recorded before the
ranking's solution was read from phase 2's optimum instead of a second,
joint solve.  A mismatch means an output changed, not that
the digest is stale: find out which byte moved before re-recording.
"""

import hashlib

import pytest

from vassbound import analyze, build_witness, parse_vass
from vassbound.analyzer import POLYNOMIAL
from vassbound.cli import _render_text_report, main
from conftest import SAMPLES, load_sample, suite_models, v_family

CLI_DIGESTS = {
    ("running", "analyze", "--json"):
        "9cbf91ce8d4ca80f51b827dcf2308cad673ac99806bb3817e17f3a983e2ba483",
    ("v_family1", "analyze", "--json"):
        "c5742c4efe3f37d7b76a676eee046d272c3114713afe9ca4c8bea0d003a57ee8",
    ("v_family2", "analyze", "--json"):
        "29091066059ab6ee2aeb31b7affabecc413d74144e8953b6f9f5118f59bb00ce",
    ("v_family3", "analyze", "--json"):
        "444fcf0526772078989609a8cd6d179f762a8cc672c21e5007a45e805e274ab9",
    ("v_family4", "analyze", "--json"):
        "6570a7d1f9ee41a4ee8170d4d4e3db17b62cff83014654243c8d0ce8a77bb847",
    ("doubling", "analyze"):
        "0942ee318815193d2c9a141c603ceca44e3d25e220978095e95c7b68a64486af",
    ("running", "witness", "--n", "4", "--check"):
        "fa16445485669383673483328e4a973e4d8f860064cbb086d7afa1ee72d569b3",
    ("v_family2", "witness", "--n", "4", "--check"):
        "62e4d74bc8a62e3a9b67665c24bd040791157e97b728b9ba3cd63005d0fb54da",
}

ARCHIVE_DIGESTS = {
    "running":
        "61a0ec553008822d603a0f1264b1b0b109294ed1f3a06c7fee7f8bfe1270b477",
    "doubling":
        "9d11e0bf83be157254b943d6ec7e355b5293804090e97fd146350d9b40a62d09",
    "v_family1":
        "9eb2c17a144fc75adef3cae18c9aa695b295509d869bb52c9e0a0f25b640ca6f",
    "v_family2":
        "ab616276a2acc68b098eb673cecdcb9ed2059c4e2bc70334e3b91b52417b80d4",
    "v_family3":
        "a0e5fd58d0c09313c30a64b9d380d90a6f1b38bc66834bfdd2853676d0ad8acb",
    "v_family4":
        "d8f4e471442a223f05320c7f93a7aa5eb29352b402e886f1d67efffdd73f19bb",
    "v_family5":
        "d332d27b6c9bbe0162f04b0f7471147acdb0e33f38549721f2827668decbea0a",
    "v_family6":
        "480e58bc1fda23ec30fcede49f6a7ba706b033b709836f9dff4a5e7916e3d419",
    "v_family7":
        "8a4d3f2cca8d1abf16648cc8e18c9d8bb0d6ac71bbfc07a150badc3b0c0d4edd",
}

# The default text reports of the acceptance suite's 200 random models,
# concatenated in generation order.
RANDOM_SUITE_DIGEST = \
    "b50b31b6fb1e0389b60caac9c72980874e5d58d81091f4a36e747c9c062edeaa"

# The JSON reports of the same 200 models, concatenated in generation order.
# Unlike the text reports they hold the `layers` audit.
RANDOM_SUITE_JSON_DIGEST = \
    "833af60412c5b90d0b568796cb4f480fc2815d9bfbd5d87f709415757acd87fd"

# Witness dumps at N = 1, 2, 3 of every polynomial model of that suite, in
# generation order, then v_family(3) at N = 1, 2 and v_family(4) at N = 1:
# only v_family(4) reaches a skipped layer whose splice order shows in the
# dump (the node's cycle after, not before, its N-fold repeated deeper path).
RANDOM_SUITE_WITNESS_DIGEST = \
    "1a10d9686b36175cff310b7e93a22bbe870783a725a4cd151a77162019b39df6"

# Every archived layer's multi-cycle counts and both strict sets, but not
# the ranking's (r, z), over the acceptance suite's 200 random models, then
# v_family(1..6), running and doubling: the multi-cycle solve and both
# maximal strict sets are pinned, and only the ranking's numbers may move.
STRICT_SET_DIGEST = \
    "93b915a56a49d2dfb2a7d4853237440da54c13f68f00accb87ced2ded52d0848"

# Streamed witness dumps of v_family(nu) at N = 1, with their byte counts:
# nodes spanning 7, 15 and 31 skipped layers, each dump opening with the
# root's covering cycle.
DEEP_WITNESS_DIGESTS = {
    5: (237_108, "9d761d2057645867b9d815555b061a73ad57294961e87caf36e2c43feeb43680"),
    6: (1_259_672, "d448740dd878c748428f01d23b3b7a979221956e932ba1a5f8d0d44842ddb3e8"),
    7: (6_268_460, "9c9f28830ae4b5ec1784350aa0364a884f7badb0c10cb6b9b1b8dc8f3e288912"),
}


def _model_text(name: str) -> str:
    if name.startswith("v_family"):
        v = v_family(int(name[len("v_family"):]))
        # Transitions in id order, so the ids in the output match v_family's.
        return "\n".join(["vars " + " ".join(v.variables)]
                         + [str(t) for t in v.transitions]) + "\n"
    return (SAMPLES / f"{name}.vass").read_text(encoding="utf-8")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def archive_text(result) -> str:
    """Canonical text of every layer's multi-cycle counts and ranking (r, z)."""
    lines = []
    for rec in result.archive:
        lines.append(f"layer {rec.layer}")
        lines.append("counts " + repr(sorted(rec.mu.items())))
        lines.append("r " + repr(sorted(rec.ranking.r.items())))
        lines.append("z " + repr(sorted(rec.ranking.z.items())))
    return "\n".join(lines) + "\n"


def strict_set_text(result) -> str:
    """Canonical text of every layer's multi-cycle counts and both strict
    sets, the multi-cycle's being the complements of the ranking's."""
    lines = []
    for rec in result.archive:
        lines.append(f"layer {rec.layer}")
        lines.append("counts " + repr(sorted(rec.mu.items())))
        lines.append("strict_vars " + repr(sorted(set(rec.var_ext) - rec.ranking.bounded_vars)))
        lines.append("strict_transitions " + repr(sorted(set(rec.u) - rec.ranking.ranked)))
        lines.append("ranked " + repr(sorted(rec.ranking.ranked)))
        lines.append("bounded_vars " + repr(sorted(rec.ranking.bounded_vars)))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("key", sorted(CLI_DIGESTS), ids="-".join)
def test_cli_output_bytes_unchanged(key, tmp_path, capsys):
    model, command, *flags = key
    path = tmp_path / f"{model}.vass"
    path.write_text(_model_text(model), encoding="utf-8")
    assert main([command, str(path), *flags]) == 0
    assert _digest(capsys.readouterr().out) == CLI_DIGESTS[key]


@pytest.mark.parametrize("model", sorted(ARCHIVE_DIGESTS))
def test_archived_layer_solutions_unchanged(model):
    result = analyze(parse_vass(_model_text(model)))
    assert _digest(archive_text(result)) == ARCHIVE_DIGESTS[model]


def test_random_suite_text_reports_unchanged():
    reports = [_render_text_report(analyze(v)) for v in suite_models()]
    assert _digest("".join(reports)) == RANDOM_SUITE_DIGEST


def test_random_suite_json_reports_unchanged():
    reports = [analyze(v).report.to_json(v) for v in suite_models()]
    assert _digest("".join(reports)) == RANDOM_SUITE_JSON_DIGEST


def test_strict_sets_and_multicycle_counts_unchanged():
    models = [*suite_models(), *map(v_family, range(1, 7)), load_sample("running"),
              load_sample("doubling")]
    text = "".join(strict_set_text(analyze(v)) for v in models)
    assert _digest(text) == STRICT_SET_DIGEST


def test_random_suite_witness_dumps_unchanged():
    cases = []
    for v in suite_models():
        result = analyze(v)
        if result.report.status == POLYNOMIAL:
            cases.append((v, result, (1, 2, 3)))
    for nu, ns in ((3, (1, 2)), (4, (1,))):
        v = v_family(nu)
        cases.append((v, analyze(v), ns))
    dumps = [build_witness(result, n).dump(v)
             for v, result, ns in cases for n in ns]
    assert len(dumps) == 192
    assert _digest("".join(dumps)) == RANDOM_SUITE_WITNESS_DIGEST


@pytest.mark.parametrize("nu", sorted(DEEP_WITNESS_DIGESTS))
def test_deep_witness_dumps_unchanged(nu):
    v = v_family(nu)
    digest, size = hashlib.sha256(), 0
    for chunk in build_witness(analyze(v), 1).chunks(v):
        data = chunk.encode("utf-8")
        digest.update(data)
        size += len(data)
    assert (size, digest.hexdigest()) == DEEP_WITNESS_DIGESTS[nu]
