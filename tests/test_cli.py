import ast
import copy
import hashlib
from collections import Counter

import numpy as np
import pytest

from cotorsionlab import fileformats as ff
from cotorsionlab import repcore as rc
from cotorsionlab.cli import main
from cotorsionlab.serialcat import IndecId, Obj
from cotorsionlab.subcat import SearchBounds

from paper_fixtures import FIXDIR, fixture_subcategories

CATEGORY = str(FIXDIR / "paper_a6.category.json")


def pairs_file(name):
    return str(FIXDIR / f"{name}.pairs.json")


# ---- generate ---------------------------------------------------------------

def test_generate_census_for_the_bundled_algebra(tmp_path, capsys):
    out = tmp_path / "cat.json"
    code = main(["generate", "--n", "6", "--relations", "1-5,2-6",
                 "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "indecomposables: 18" in text
    assert ff.parse_category(ff.read_json(out))[0].n == 6


@pytest.mark.parametrize("n,relations,count", [
    (2, "", 3), (3, "1-3", 5), (6, "1-5,2-6", 18)])
def test_generate_counts(n, relations, count, capsys):
    code = main(["generate", "--n", str(n), "--relations", relations])
    assert code == 0
    assert f"indecomposables: {count}" in capsys.readouterr().out


def test_generate_rejects_bad_relation_syntax(capsys):
    assert main(["generate", "--n", "6", "--relations", "oops"]) == 2


# ---- file formats -----------------------------------------------------------

def test_emitted_files_reparse_to_equal_values(ctx, tmp_path):
    subs = fixture_subcategories(ctx, "ex-nonintegral")
    payload = ff.pairs_payload(subs)
    path = tmp_path / "pairs.json"
    ff.write_json(path, payload)
    parsed = ff.parse_pairs(ff.read_json(path), ctx)
    assert {k: v.ids for k, v in parsed.items()} == \
        {k: v.ids for k, v in subs.items()}
    assert ff.dumps_canonical(ff.pairs_payload(parsed)) == \
        ff.dumps_canonical(payload)


def test_pairs_expressions_resolve(ctx, tmp_path):
    data = {
        "schema": ff.PAIRS_SCHEMA,
        "subcategories": {
            "S": ["[1,1]", "2/1"],
            "T": ["[2,3]", "[3,3]"],
            "U": "oplus(S, T)",
            "V": "inter(U, add([2,3], [1,1]))",
            "P": "rperp(S)",
        },
    }
    subs = ff.parse_pairs(data, ctx)
    assert subs["S"].ids == {IndecId(1, 1), IndecId(1, 2)}
    assert subs["U"].ids == subs["S"].ids | subs["T"].ids
    assert subs["V"].ids == {IndecId(2, 3), IndecId(1, 1)}
    assert subs["P"].ids == frozenset(ctx.indecs)  # projectives are rigid


def test_expression_pairs_file_reproduces_the_fixture(ctx, tmp_path, capsys):
    # S and V of the bundled non-integral example are exactly the perps
    # of their partners, so an expression-based pairs file must give the
    # same verdict and certificate
    subs = fixture_subcategories(ctx, "ex-nonintegral")
    data = {
        "schema": ff.PAIRS_SCHEMA,
        "subcategories": {
            "S": "lperp(T)",
            "T": [i.as_interval() for i in subs["T"].sorted_ids()],
            "U": [i.as_stack() for i in subs["U"].sorted_ids()],
            "V": "rperp(U)",
        },
    }
    path = tmp_path / "expr.json"
    ff.write_json(path, data)
    parsed = ff.parse_pairs(ff.read_json(path), ctx)
    assert parsed["S"].ids == subs["S"].ids
    assert parsed["V"].ids == subs["V"].ids
    report = tmp_path / "r.json"
    code = main(["check-integral", "--category", CATEGORY,
                 "--pairs", str(path), "--report", str(report)])
    capsys.readouterr()
    assert code == 1
    assert ff.read_json(report)["verdict"]["certificate"]["z"] == "[3,5]"


def test_pairs_expression_cycles_are_rejected(ctx):
    data = {"schema": ff.PAIRS_SCHEMA,
            "subcategories": {"S": "oplus(T, T)", "T": "add(S)",
                              "U": [], "V": []}}
    with pytest.raises(ff.FileFormatError):
        ff.parse_pairs(data, ctx)


def test_pairs_missing_names_are_rejected(ctx):
    data = {"schema": ff.PAIRS_SCHEMA, "subcategories": {"S": []}}
    with pytest.raises(ff.FileFormatError):
        ff.parse_pairs(data, ctx)


@pytest.mark.parametrize("shape", ["expression", "chain"])
def test_deeply_nested_pairs_definitions_exit_2(shape, tmp_path, capsys):
    # an expression 2,000 calls deep, or 3,000 names each defined by the
    # next, is refused as bad input rather than by a RecursionError
    if shape == "expression":
        subs = {"S": "add(" * 2000 + "[3,5]" + ")" * 2000}
    else:
        subs = {"S": "N0", **{f"N{k}": f"N{k + 1}" for k in range(2999)},
                "N2999": []}
    bad = tmp_path / "deep.json"
    ff.write_json(bad, {"schema": ff.PAIRS_SCHEMA,
                        "subcategories": {**subs, "T": [], "U": [], "V": []}})
    assert main(["check-twin", "--category", CATEGORY, "--pairs", str(bad)]) == 2
    assert capsys.readouterr().err == (
        "error: subcategory definitions nest too deeply\n")


@pytest.mark.parametrize("entry", [
    ["[9,9]"], ["[1,5]"], [5], [[1, 1]], ["T"], "oplus([9,9])", "oplus([3,1])"],
    ids=["not-in-a6", "inadmissible", "int", "list", "unparsable",
         "expr-not-in-a6", "expr-bad-interval"])
def test_bad_pairs_entries_exit_2(entry, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    ff.write_json(bad, {"schema": ff.PAIRS_SCHEMA,
                        "subcategories": {"S": entry, "T": [], "U": [], "V": []}})
    assert main(["check-twin", "--category", CATEGORY, "--pairs", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: subcategory 'S', entry ")


# ---- verification commands ----------------------------------------------------

def test_check_twin_on_fixture(tmp_path, capsys):
    report = tmp_path / "twin.json"
    code = main(["check-twin", "--category", CATEGORY,
                 "--pairs", pairs_file("ex-nonintegral"),
                 "--report", str(report)])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: HOLDS" in out
    data = ff.read_json(report)
    assert data["verdict"]["status"] == "holds"
    assert len(data["verdict"]["witnesses"]) == 18


# sha256 of the canonical JSON of the ex-nonintegral check-twin witnesses
# (every approximation conflation with its matrices), as first emitted
CHECK_TWIN_WITNESS_SHA256 = (
    "f527b20bfc822a31df0721cc9e39da1fc542dcef862fb149a2b244e3a2dd93c5")


def test_check_twin_witness_matrices_are_pinned(tmp_path, capsys):
    report = tmp_path / "twin.json"
    assert main(["check-twin", "--category", CATEGORY,
                 "--pairs", pairs_file("ex-nonintegral"),
                 "--report", str(report)]) == 0
    witnesses = ff.read_json(report)["verdict"]["witnesses"]
    digest = hashlib.sha256(ff.dumps_canonical(witnesses).encode()).hexdigest()
    assert digest == CHECK_TWIN_WITNESS_SHA256


A6_DECISIONS = [(fixture, command)
                for fixture in ("ex-nonintegral", "ex-abelian", "ex-nonabelian")
                for command in ("check-twin", "heart", "check-integral",
                                "check-abelian")] + [("ex-abelian", "probe")]

# sha256 over the 13 A6 decisions at F_2, F_3 and F_5 (exit code, stdout
# without its timing line, report JSON without timing_seconds) and the
# replay of each failing report, recorded before the approximation,
# multiset and submodule searches were merged
CLI_DECISIONS_SHA256 = (
    "6347b5d3821160a8ac25ca017c196fe1a94d715cf79a4c3e7f6cdc5e2fc8b69c")


def test_cli_decisions_are_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("COTORSION_LAB_SEED", raising=False)
    digest = hashlib.sha256()
    replays = 0
    report = tmp_path / "report.json"
    for p in (2, 3, 5):
        category = tmp_path / f"a6-f{p}.category.json"
        ff.write_json(category, {**ff.read_json(CATEGORY), "field_char": p})
        for fixture, command in A6_DECISIONS:
            argv = [command, "--category", str(category),
                    "--pairs", pairs_file(fixture), "--report", str(report)]
            if command == "probe":
                argv += ["--bound-mult", "1"]
            code = main(argv)
            out = [line for line in capsys.readouterr().out.splitlines()
                   if not line.startswith("timing: ")]
            data = ff.read_json(report)
            del data["timing_seconds"]
            digest.update(ff.dumps_canonical(
                [p, fixture, command, code, out, data]).encode())
            if code == 1:
                replays += 1
                code = main(["replay", str(report)])
                digest.update(ff.dumps_canonical(
                    [code, capsys.readouterr().out]).encode())
    assert replays == 9
    assert digest.hexdigest() == CLI_DECISIONS_SHA256


def test_check_twin_nonabelian_core_note(capsys):
    code = main(["check-twin", "--category", CATEGORY,
                 "--pairs", pairs_file("ex-nonabelian")])
    out = capsys.readouterr().out
    assert code == 0
    assert "core coincides with U and T" in out
    data_w = [l for l in out.splitlines() if l.startswith("W:")][0]
    data_t = [l for l in out.splitlines() if l.startswith("T:")][0]
    assert data_w.split(":", 1)[1] == data_t.split(":", 1)[1]


def test_a_helper_w_in_the_pairs_file_does_not_replace_the_core(ctx, tmp_path,
                                                                capsys):
    payload = ff.pairs_payload(fixture_subcategories(ctx, "ex-nonabelian"))
    payload["subcategories"]["W"] = ["[1,1]"]
    pairs = tmp_path / "pairs.json"
    report = tmp_path / "abelian.json"
    ff.write_json(pairs, payload)
    code = main(["check-abelian", "--category", CATEGORY, "--pairs", str(pairs),
                 "--report", str(report)])
    assert code == 1
    subs = ff.read_json(report)["subcategories"]
    assert subs["W"] == sorted(set(subs["U"]) & set(subs["T"]),
                               key=IndecId.parse)
    capsys.readouterr()
    assert main(["replay", str(report)]) == 0
    assert "certificate accepted" in capsys.readouterr().out


def test_replay_refuses_a_condition1_claim_on_tainted_tables(tmp_path, capsys):
    # at dim_cap 6 the membership searches for [3,5] of ex-nonabelian hit
    # their bound: check-abelian makes no condition-(1) claim there, so
    # replay must not accept the claim under those bounds either
    args = ["check-abelian", "--category", CATEGORY,
            "--pairs", pairs_file("ex-nonabelian")]
    report = tmp_path / "abelian.json"
    assert main(args + ["--report", str(report)]) == 1
    assert main(args + ["--dim-cap", "6"]) == 3
    assert "tainted memberships: [3,5]" in capsys.readouterr().out
    data = ff.read_json(report)
    assert data["verdict"]["certificate"]["condition"] == 1
    data["bounds"]["dim_cap"] = 6
    ff.write_json(report, data)
    assert main(["replay", str(report)]) == 4
    out = capsys.readouterr().out
    assert "replay: MISMATCH" in out
    assert "tainted memberships" in out and "[3,5]" in out


def test_replay_refuses_a_square_on_tainted_tables(ctx, tmp_path, capsys):
    # a pullback-square replay recomputes the same tables, and refuses
    # them before it reads the square
    subs = fixture_subcategories(ctx, "ex-nonabelian")
    data = ff.report_payload(
        "probe", {"status": "fails", "certificate": {"kind": "non_integral_square"}},
        ctx.presentation, ctx.field, subs, SearchBounds(dim_cap=6), 0, 0.0)
    report = tmp_path / "square.json"
    ff.write_json(report, data)
    assert main(["replay", str(report)]) == 4
    out = capsys.readouterr().out
    assert "tainted memberships" in out and "[3,5]" in out


def test_corrupted_pairs_give_unknown_with_named_indec(ctx, tmp_path, capsys):
    subs = fixture_subcategories(ctx, "ex-nonintegral")
    payload = ff.pairs_payload(subs)
    payload["subcategories"]["V"].remove("[2,2]")
    bad = tmp_path / "bad.json"
    ff.write_json(bad, payload)
    code = main(["check-twin", "--category", CATEGORY, "--pairs", str(bad)])
    out = capsys.readouterr().out
    assert code == 3
    assert "unwitnessed indecomposables" in out


def test_text_and_json_reports_carry_identical_verdicts(tmp_path, capsys):
    report = tmp_path / "r.json"
    code = main(["heart", "--category", CATEGORY,
                 "--pairs", pairs_file("ex-abelian"), "--report", str(report)])
    out = capsys.readouterr().out
    assert code == 0
    data = ff.read_json(report)
    assert f"verdict: {data['verdict']['status'].upper()}" in out
    assert data["verdict"]["route"] in out
    for note in data["verdict"].get("notes", []):
        assert note in out
    rendered = ff.render_report_text(data)
    assert rendered == out


def test_heart_tables_report(tmp_path):
    report = tmp_path / "heart.json"
    main(["heart", "--category", CATEGORY,
          "--pairs", pairs_file("ex-nonintegral"), "--report", str(report)])
    tables = ff.read_json(report)["tables"]
    assert tables["heart_surviving"] == ["[3,4]", "[3,5]", "[4,4]"]
    assert tables["tainted"] == []


def test_check_integral_fails_with_paper_certificate(tmp_path, capsys):
    report = tmp_path / "integral.json"
    code = main(["check-integral", "--category", CATEGORY,
                 "--pairs", pairs_file("ex-nonintegral"),
                 "--report", str(report)])
    assert code == 1
    cert = ff.read_json(report)["verdict"]["certificate"]
    assert cert["z"] == "[3,5]"
    assert cert["conflation"]["first"] == "[3,3]"
    assert cert["conflation"]["third"] == "[4,5]"


def test_check_abelian_exit_codes(capsys):
    assert main(["check-abelian", "--category", CATEGORY,
                 "--pairs", pairs_file("ex-abelian")]) == 0
    capsys.readouterr()
    assert main(["check-abelian", "--category", CATEGORY,
                 "--pairs", pairs_file("ex-nonabelian")]) == 1


def test_probe_command(tmp_path, capsys):
    code = main(["probe", "--category", CATEGORY,
                 "--pairs", pairs_file("ex-abelian"), "--bound-mult", "1"])
    assert code == 3  # no counterexample found, reported as unknown
    out = capsys.readouterr().out
    assert "no counterexample" in out


def test_missing_files_exit_2(capsys):
    assert main(["check-twin", "--category", "/nonexistent.json",
                 "--pairs", pairs_file("ex-abelian")]) == 2


@pytest.mark.parametrize("where", ["replay", "category", "pairs"])
def test_non_object_json_exits_2(where, tmp_path, capsys):
    listing = tmp_path / "list.json"
    listing.write_text("[1, 2]\n")
    argv = {"replay": ["replay", str(listing)],
            "category": ["check-twin", "--category", str(listing),
                         "--pairs", pairs_file("ex-abelian")],
            "pairs": ["check-twin", "--category", CATEGORY,
                      "--pairs", str(listing)]}[where]
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["replay", "category", "pairs"])
def test_deeply_nested_json_exits_2(where, tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    argv = {"replay": ["replay", str(deep)],
            "category": ["check-twin", "--category", str(deep),
                         "--pairs", pairs_file("ex-abelian")],
            "pairs": ["check-twin", "--category", CATEGORY,
                      "--pairs", str(deep)]}[where]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {deep}: JSON nested too deeply\n"


@pytest.mark.parametrize("where", ["category", "pairs", "report", "replay", "out"])
def test_directory_paths_exit_2(where, tmp_path, capsys):
    folder = tmp_path / "folder"
    folder.mkdir()
    argv = {"category": ["check-twin", "--category", str(folder),
                         "--pairs", pairs_file("ex-abelian")],
            "pairs": ["check-twin", "--category", CATEGORY, "--pairs", str(folder)],
            "report": ["heart", "--category", CATEGORY,
                       "--pairs", pairs_file("ex-abelian"), "--report", str(folder)],
            "replay": ["replay", str(folder)],
            "out": ["generate", "--n", "3", "--out", str(folder)]}[where]
    assert main(argv) == 2
    assert f"error: {folder}: " in capsys.readouterr().err


def test_write_into_missing_directory_names_the_given_path(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert main(["generate", "--n", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {out}: No such file or directory\n"
    with pytest.raises(FileNotFoundError) as info:
        ff.write_json(out, {})
    assert info.value.filename == str(out)


def test_undecodable_file_exits_2(tmp_path, capsys):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    assert main(["replay", str(binary)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [
    ("n", 6.9), ("n", "6"), ("n", True), ("field_char", 2.5),
    ("relations", [[1.9, 5], [2, 6]])])
def test_non_integer_category_fields_exit_2(field, value, tmp_path, capsys):
    data = ff.read_json(CATEGORY)
    data[field] = value
    path = tmp_path / "category.json"
    ff.write_json(path, data)
    assert main(["check-twin", "--category", str(path),
                 "--pairs", pairs_file("ex-abelian")]) == 2
    assert "error: bad category file: " in capsys.readouterr().err


@pytest.mark.parametrize("field,value,bad", [
    ("n", 6.0, 6.0), ("field_char", "2", "2"), ("relations", [[1, 5], [2, 6.0]], 6.0)])
def test_replay_rejects_non_integer_context_fields(field, value, bad, tmp_path,
                                                   capsys):
    data = ff.read_json(FIXDIR / "ex-nonintegral.integral-report.json")
    data["verdict"]["certificate"]["context"][field] = value
    path = tmp_path / "report.json"
    ff.write_json(path, data)
    assert main(["replay", str(path)]) == 4
    assert f"must be an integer, got {bad!r}" in capsys.readouterr().out


@pytest.mark.parametrize("key,value", [
    ("mult", True), ("dim_cap", 24.0), ("mult", 2.5)])
def test_replay_rejects_non_integer_bounds(key, value, tmp_path, capsys):
    # the condition-(1) replay recomputes the tables under the stated
    # bounds, which must be JSON integers like the algebra's numbers
    report = tmp_path / "abelian.json"
    assert main(["check-abelian", "--category", CATEGORY, "--pairs",
                 pairs_file("ex-nonabelian"), "--report", str(report)]) == 1
    data = ff.read_json(report)
    assert data["verdict"]["certificate"]["condition"] == 1
    data["bounds"][key] = value
    ff.write_json(report, data)
    capsys.readouterr()
    assert main(["replay", str(report)]) == 4
    out = capsys.readouterr().out
    assert "replay: MISMATCH" in out
    assert f"bounds {key} must be an integer, got {value!r}" in out


def test_replay_rejects_subcategories_that_are_not_an_object(tmp_path, capsys):
    # a list of [name, ids] pairs would fill the certificate context, but a
    # condition-(1) replay reads the report's subcategories by name
    report = tmp_path / "abelian.json"
    assert main(["check-abelian", "--category", CATEGORY, "--pairs",
                 pairs_file("ex-nonabelian"), "--report", str(report)]) == 1
    data = ff.read_json(report)
    assert data["verdict"]["certificate"]["condition"] == 1
    data["subcategories"] = [[k, v] for k, v in data["subcategories"].items()]
    ff.write_json(report, data)
    capsys.readouterr()
    assert main(["replay", str(report)]) == 4
    out, err = capsys.readouterr()
    assert "replay: MISMATCH" in out
    assert "subcategories is not an object" in out
    assert "Traceback" not in out + err


@pytest.mark.parametrize("command,flag,value", [
    ("check-twin", "--bound-mult", "0"),
    ("heart", "--bound-mult", "-1"),
    ("check-integral", "--dim-cap", "0"),
    ("check-abelian", "--dim-cap", "-5"),
    ("probe", "--max-squares", "0"),
    ("probe", "--max-squares", "-1")])
def test_bounds_below_one_exit_2(command, flag, value, capsys):
    assert main([command, "--category", CATEGORY, "--pairs",
                 pairs_file("ex-abelian"), flag, value]) == 2
    captured = capsys.readouterr()
    assert f"error: {flag} must be at least 1" in captured.err
    assert not captured.out


# ---- replay --------------------------------------------------------------------

def test_replay_accepts_stored_fixture_report(capsys):
    code = main(["replay", str(FIXDIR / "ex-nonintegral.integral-report.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "certificate accepted" in out
    assert "[3,3] -> [3,5] -> [4,5]" in out


def test_replay_rejects_tampered_certificates(tmp_path, capsys):
    data = ff.read_json(FIXDIR / "ex-nonintegral.integral-report.json")
    cert = data["verdict"]["certificate"]
    # flip one matrix entry of the conflation's inclusion
    comps = cert["conflation"]["i_comps"]
    for comp in comps:
        if comp and comp[0]:
            comp[0][0] = 1 - comp[0][0]
            break
    bad = tmp_path / "tampered.json"
    ff.write_json(bad, data)
    code = main(["replay", str(bad)])
    out = capsys.readouterr().out
    assert code == 4
    assert "MISMATCH" in out


def _without_i_comps():
    data = ff.read_json(FIXDIR / "ex-nonintegral.integral-report.json")
    del data["verdict"]["certificate"]["conflation"]["i_comps"]
    return data


def _with_conflation_array(key, change):
    """The stored non-integral report with change(list) applied to one
    array of its conflation payload."""
    data = ff.read_json(FIXDIR / "ex-nonintegral.integral-report.json")
    conflation = data["verdict"]["certificate"]["conflation"]
    conflation[key] = change(conflation[key])
    return data


def _with_certificate(change):
    """The stored non-integral report with change(certificate) replacing
    its certificate."""
    data = ff.read_json(FIXDIR / "ex-nonintegral.integral-report.json")
    data["verdict"]["certificate"] = change(data["verdict"]["certificate"])
    return data


def _dual_with_heart_witnesses(change):
    """The stored non-integral report with its certificate mapped through
    D and change(heart witnesses) in place of the dual's heart witnesses."""
    def dual(cert):
        d = ff.dual_certificate(cert)
        return {**d, "heart_witnesses": change(d["heart_witnesses"])}
    return _with_certificate(dual)


@pytest.mark.parametrize("broken,reason", [
    (_without_i_comps, "conflation payload invalid"),
    (lambda: {"verdict": [1]}, "malformed certificate"),
    (lambda: {"verdict": {"certificate": [1]}}, "malformed certificate"),
    (lambda: _with_certificate(lambda c: {**c, "z": 5}), "malformed certificate"),
    (lambda: _with_certificate(lambda c: {**c, "z_outside_u": 3}),
     "malformed certificate"),
    (lambda: _with_certificate(lambda c: {
        **c, "conflation": {**c["conflation"], "first": 7}}),
     "malformed certificate"),
    (lambda: _with_certificate(lambda c: {**c, "heart_witnesses": []}),
     "malformed certificate"),
    (lambda: _with_certificate(lambda c: {**ff.dual_certificate(c), "z": 5}),
     "malformed certificate"),
    (lambda: _dual_with_heart_witnesses(lambda w: []),
     "heart_witnesses is not an object"),
    (lambda: _dual_with_heart_witnesses(lambda w: {**w, "[3,3]": []}),
     "heart_witnesses [3,3] is not an object"),
    (lambda: _with_conflation_array("i_comps", lambda a: a[:-1]),
     "conflation payload invalid"),
    (lambda: _with_conflation_array("i_comps", lambda a: a + a[-1:]),
     "conflation payload invalid"),
    (lambda: _with_conflation_array("first_maps", lambda a: a[:-1]),
     "conflation payload invalid"),
    (lambda: _with_conflation_array("middle_dims", lambda a: a[:-1]),
     "conflation payload invalid")],
    ids=["missing-i-comps", "verdict-list", "certificate-list", "z-int",
         "offender-int", "conflation-term-int", "heart-witnesses-list",
         "dual-z-int", "dual-heart-witnesses-list",
         "dual-heart-witness-entry-list", "i-comps-short", "i-comps-long",
         "first-maps-short", "middle-dims-short"])
def test_replay_rejects_structurally_broken_reports(broken, reason, tmp_path,
                                                    capsys):
    bad = tmp_path / "broken.json"
    ff.write_json(bad, broken())
    assert main(["replay", str(bad)]) == 4
    out, err = capsys.readouterr()
    assert "replay: MISMATCH" in out
    assert reason in out
    assert "Traceback" not in out + err
    assert main(["replay", str(tmp_path / "missing.json")]) == 2


def test_replay_rejects_wrong_id_claims(tmp_path, capsys):
    data = ff.read_json(FIXDIR / "ex-nonintegral.integral-report.json")
    data["verdict"]["certificate"]["z_outside_u"] = "[4,6]"  # a U-member
    bad = tmp_path / "tampered2.json"
    ff.write_json(bad, data)
    assert main(["replay", str(bad)]) == 4


@pytest.fixture(scope="module")
def decided(tmp_path_factory):
    """decided(argv) -> the report of `argv --report <file>`, which must
    exit 1; each report is made once per module."""
    where = tmp_path_factory.mktemp("decided")
    made = {}

    def run(*argv):
        if argv not in made:
            report = where / f"report-{len(made)}.json"
            assert main([*argv, "--report", str(report)]) == 1, argv
            made[argv] = ff.read_json(report)
        return made[argv]
    return run


def _category_at(p, tmp_path_factory):
    category = tmp_path_factory.getbasetemp() / f"a6-f{p}.category.json"
    ff.write_json(category, {**ff.read_json(CATEGORY), "field_char": p})
    return str(category)


@pytest.fixture(scope="module")
def square(decided, tmp_path_factory):
    """square(p) -> the ex-nonintegral probe report at F_p."""
    return lambda p: decided("probe", "--category", _category_at(p, tmp_path_factory),
                             "--pairs", pairs_file("ex-nonintegral"),
                             "--bound-mult", "1")


@pytest.fixture(scope="module")
def condition1(decided):
    """The ex-nonabelian check-abelian report, a condition-(1) fails."""
    return decided("check-abelian", "--category", CATEGORY,
                   "--pairs", pairs_file("ex-nonabelian"))


def _replays(data, tmp_path, capsys) -> tuple[int, str]:
    path = tmp_path / "replayed.json"
    ff.write_json(path, data)
    capsys.readouterr()
    code = main(["replay", str(path)])
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    return code, out


def test_replay_of_condition1_certificate(condition1, tmp_path, capsys):
    assert condition1["verdict"]["certificate"]["condition"] == 1
    assert _replays(condition1, tmp_path, capsys)[0] == 0


def test_replay_of_probe_certificate(square, tmp_path, capsys):
    for p in (2, 3):
        assert _replays(square(p), tmp_path, capsys)[0] == 0, p
    # square maps with a vertex component too few or too many
    for key, change in (("d_epi", lambda a: a[:-1]), ("leg_to_B", lambda a: a + a[-1:])):
        data = _with(square(2), key, lambda m: {**m, "comps": change(m["comps"])})
        code, out = _replays(data, tmp_path, capsys)
        assert code == 4, key
        assert "replay: MISMATCH" in out
        assert "square map payload invalid" in out, key


def _map_payload(ctx, src: str, dst: str, mor=None) -> dict:
    """A square map src -> dst: mor, or else the identity of src."""
    if mor is None:
        mor = rc.identity(ctx.realize(Obj.of(IndecId.parse(src))))
    return {"src": src, "dst": dst, "comps": [c.tolist() for c in mor.comps]}


def _with(report, key, change):
    """A copy of report whose certificate has change(value) at key."""
    data = copy.deepcopy(report)
    cert = data["verdict"]["certificate"]
    cert[key] = change(cert[key])
    return data


def _zeroed(m):
    return {**m, "comps": [np.zeros_like(np.array(c, dtype=int)).tolist()
                           for c in m["comps"]]}


def _abelian_square(ctx):
    """A square against ex-abelian, whose heart is abelian, hence
    integral: d and b the identity of [3,5], pullback vertex 0."""
    x = ctx.realize(Obj.of(IndecId(3, 5)))
    ident = _map_payload(ctx, "[3,5]", "[3,5]")
    cert = {"kind": "non_integral_square", "B": "[3,5]", "C": "[3,5]",
            "D": "[3,5]", "d_epi": ident, "b": ident, "pullback_vertex": "0",
            "leg_to_B": _map_payload(ctx, "0", "[3,5]", rc.zero_morphism(
                ctx.realize(Obj(())), x))}
    return ff.report_payload(
        "probe", {"status": "fails", "certificate": cert}, ctx.presentation,
        ctx.field, fixture_subcategories(ctx, "ex-abelian"),
        SearchBounds(mult=1), 0, 0.0)


SQUARE_DIFFERS = "stated pullback square of d_epi along b differs"
CONDITION1_DIFFERS = "stated condition (1) certificate differs"


# forged certificates that replay used to accept; each is built by
# forge(ctx, the F_2 square report, the condition-(1) report)
@pytest.mark.parametrize("forge,reason", [
    (lambda ctx, sq, c1: _with(sq, "b", _zeroed), SQUARE_DIFFERS),
    (lambda ctx, sq, c1: _with(sq, "leg_to_B", _zeroed), SQUARE_DIFFERS),
    (lambda ctx, sq, c1: _abelian_square(ctx), SQUARE_DIFFERS),
    (lambda ctx, sq, c1: _with(sq, "d_epi", lambda m: _map_payload(ctx, "[1,1]", "[1,1]")),
     "square map d_epi ([1,1] -> [1,1]) leaves the recomputed heart"),
    (lambda ctx, sq, c1: _with(sq, "b", lambda m: _map_payload(ctx, "[4,4]", "[4,4]")),
     "b and d_epi end at different objects"),
    (lambda ctx, sq, c1: _with(c1, "heart", lambda v: ["[1,1]"]), CONDITION1_DIFFERS),
    (lambda ctx, sq, c1: _with(c1, "h1_surviving", lambda v: []), CONDITION1_DIFFERS),
    (lambda ctx, sq, c1: _with(c1, "in_heart_not_in_h1", lambda v: v[:1]),
     CONDITION1_DIFFERS)],
    ids=["square-b-zeroed", "square-leg-zeroed", "square-on-abelian-heart",
         "square-d-off-the-heart", "square-b-off-d", "condition1-heart", "condition1-h1",
         "condition1-cut-witnesses"])
def test_replay_rederives_square_and_condition1(forge, reason, ctx, square,
                                                condition1, tmp_path, capsys):
    data = forge(ctx, square(2), condition1)
    code, out = _replays(data, tmp_path, capsys)
    assert code == 4
    assert "replay: MISMATCH" in out
    assert reason in out


def _swapped_pairs(tmp_path, name, swap):
    data = ff.read_json(pairs_file(name))
    subs = data["subcategories"]
    data["subcategories"] = {swap.get(k, k): v for k, v in subs.items()}
    path = tmp_path / "swapped.pairs.json"
    ff.write_json(path, data)
    return str(path)


@pytest.mark.parametrize("command,swap,kind", [
    ("check-twin", {"S": "T", "T": "S"}, "orthogonality"),
    ("check-integral", {"S": "T", "T": "S"}, "orthogonality"),
    ("check-abelian", {"S": "U", "T": "V", "U": "S", "V": "T"}, "twin_inclusion")],
    ids=["twin-orthogonality", "integral-orthogonality", "abelian-twin-inclusion"])
def test_pair_verification_failures_replay(command, swap, kind, tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main([command, "--category", CATEGORY,
                 "--pairs", _swapped_pairs(tmp_path, "ex-nonintegral", swap),
                 "--report", str(report)]) == 1
    data = ff.read_json(report)
    cert = data["verdict"]["certificate"]
    assert cert["kind"] == kind
    if kind == "twin_inclusion":
        assert cert["outside_u"] == ["[4,5]", "[4,6]", "[5,5]"]
    code, out = _replays(data, tmp_path, capsys)
    assert code == 0, out
    assert "certificate accepted" in out
    # the same kind of certificate, naming a different pair, is refused
    key = "ext_nonzero" if kind == "orthogonality" else "outside_u"
    code, out = _replays(_with(data, key, lambda v: v[:1]), tmp_path, capsys)
    assert code == 4 and "replay: MISMATCH" in out


def test_regen_script_output_matches_repo_fixtures(tmp_path):
    import subprocess
    import sys
    import shutil
    script = FIXDIR.parent / "scripts" / "regen_fixtures.py"
    workdir = tmp_path / "repo"
    (workdir / "scripts").mkdir(parents=True)
    shutil.copy(script, workdir / "scripts" / "regen_fixtures.py")
    shutil.copytree(FIXDIR.parent / "src", workdir / "src")
    # the category and pairs files are the inputs; the report is rebuilt
    name = "ex-nonintegral.integral-report.json"
    (workdir / "fixtures").mkdir()
    for f in FIXDIR.glob("*.json"):
        if f.name != name:
            shutil.copy(f, workdir / "fixtures" / f.name)
    subprocess.run([sys.executable, str(workdir / "scripts" / "regen_fixtures.py")],
                   check=True, capture_output=True)
    assert (workdir / "fixtures" / name).read_text() == (FIXDIR / name).read_text()


# ---- repository hygiene -------------------------------------------------------

def _unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # names inside string annotations such as "CategoryCtx"
    annotations = [n.annotation for n in ast.walk(tree)
                   if isinstance(n, (ast.arg, ast.AnnAssign)) and n.annotation]
    annotations += [n.returns for n in ast.walk(tree)
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and n.returns]
    for ann in annotations:
        for c in ast.walk(ann):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                used.update(n.id for n in ast.walk(ast.parse(c.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return [f"{path.name}:{line}: {name}"
            for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    root = FIXDIR.parent
    files = [f for d in ("src", "scripts", "tests")
             for f in sorted((root / d).rglob("*.py"))
             if f.name != "__init__.py"]  # __init__ imports are re-exports
    assert len(files) > 20
    assert [u for f in files for u in _unused_imports(f)] == []


def _references(node):
    """How often each name is read, as a bare name or as an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_no_dead_definitions():
    # every function, method and class defined in src/ is referenced
    # somewhere outside its own body; dunder methods are called implicitly
    root = FIXDIR.parent
    trees = {f: ast.parse(f.read_text())
             for d in ("src", "tests", "scripts", "perfbench")
             for f in sorted((root / d).rglob("*.py"))}
    total = sum((_references(t) for t in trees.values()), Counter())
    dead = [f"{f.name}:{node.lineno}: {node.name}"
            for f, tree in trees.items() if f.relative_to(root).parts[0] == "src"
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and total[node.name] == _references(node)[node.name]]
    assert len(trees) > 20
    assert dead == []


def test_every_module_is_imported_by_the_package():
    # every module but the entry point is imported by another module of
    # the package (its __init__ re-exports and does not count), so none
    # holds code that only the tests or the scripts call
    pkg = FIXDIR.parent / "src" / "cotorsionlab"
    files = {f.stem: f for f in sorted(pkg.glob("*.py"))}
    imported = set()
    for stem, f in files.items():
        if stem == "__init__":
            continue
        for node in ast.walk(ast.parse(f.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [node.module] if node.module else [a.name for a in node.names]
                imported.update(n for n in names if n != stem)
    assert len(files) > 5
    assert sorted(set(files) - {"__init__", "cli"} - imported) == []
