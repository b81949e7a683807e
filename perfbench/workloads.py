"""The three benchmark workloads.

Each workload is built by `setup(seed)` from the checkout's own fixtures
and is driven as a closed loop with one client: `rounds(seed)` yields
rounds of requests, `call(req)` is the timed call into `cotorsionlab`
and `check(req, out)` verifies its output (untimed) and returns an error
string, or None when the output is correct.  A round has the same mix of
request kinds in every run, so a run is measured in whole rounds.

All calls go through module attributes (`hc.is_epi_in_heart`, not a
name imported at load time) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from pathlib import Path
from typing import NamedTuple

import cotorsionlab.cli as cli
import cotorsionlab.fileformats as ff
import cotorsionlab.heartcat as hc
import cotorsionlab.pairs as pairs
import cotorsionlab.repcore as rc
import cotorsionlab.serialcat as sc
import cotorsionlab.subcat as sub

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
BENCH_DIR = Path(__file__).resolve().parent
GOLDEN = BENCH_DIR / "golden_census_a5.json"


# -- a6-cli ---------------------------------------------------------------

# (fixture, command) -> expected exit code; replays of exit-1 reports
# are requests of their own and must exit 0.
A6_EXPECTED = {
    ("ex-nonintegral", "check-twin"): 0, ("ex-nonintegral", "heart"): 0,
    ("ex-nonintegral", "check-integral"): 1,
    ("ex-nonintegral", "check-abelian"): 1,
    ("ex-abelian", "check-twin"): 0, ("ex-abelian", "heart"): 0,
    ("ex-abelian", "check-integral"): 0, ("ex-abelian", "check-abelian"): 0,
    ("ex-abelian", "probe"): 3,
    ("ex-nonabelian", "check-twin"): 0, ("ex-nonabelian", "heart"): 0,
    ("ex-nonabelian", "check-integral"): 0,
    ("ex-nonabelian", "check-abelian"): 1,
}
A6_HEART = {
    "ex-nonintegral": ["[3,4]", "[3,5]", "[4,4]"],
    "ex-abelian": ["[3,5]"],
    "ex-nonabelian": ["[3,4]", "[3,5]", "[4,4]", "[4,5]", "[5,5]"],
}
STATUS_BY_EXIT = {0: "holds", 1: "fails", 3: "unknown"}


class CliRequest(NamedTuple):
    fixture: str
    command: str
    argv: list[str]
    exit_code: int
    report: Path


class A6Cli:
    """`cotorsionlab.cli.main` in process on the shipped A6 fixtures."""

    name = "a6-cli"

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir

    def setup(self, seed: int) -> None:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        category = str(FIXTURES / "paper_a6.category.json")
        self.commands = []
        for (fixture, command), code in A6_EXPECTED.items():
            pairs_file = FIXTURES / f"{fixture}.pairs.json"
            if not pairs_file.is_file():
                raise FileNotFoundError(pairs_file)
            report = self.work_dir / f"{fixture}.{command}.json"
            argv = [command, "--category", category, "--pairs", str(pairs_file),
                    "--report", str(report)]
            if command == "probe":
                argv += ["--bound-mult", "1"]
            self.commands.append(CliRequest(fixture, command, argv, code, report))

    def rounds(self, seed: int):
        rng = random.Random(seed)
        while True:
            order = list(self.commands)
            rng.shuffle(order)
            round_ = []
            for req in order:
                round_.append(req)
                if req.exit_code == 1:
                    round_.append(req._replace(
                        command=f"replay of {req.command}",
                        argv=["replay", str(req.report)], exit_code=0))
            yield round_

    def call(self, req):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(req.argv)
        return code, out.getvalue()

    def check(self, req, result) -> str | None:
        code, text = result
        where = f"{req.fixture} {req.command}"
        if code != req.exit_code:
            return f"{where}: exit {code}, expected {req.exit_code}"
        if req.argv[0] == "replay":
            if "replay: certificate accepted" not in text:
                return f"{where}: not accepted"
            return None
        data = json.loads(req.report.read_text())
        status = data["verdict"]["status"]
        if status != STATUS_BY_EXIT[req.exit_code]:
            return f"{where}: verdict {status}"
        if (req.command == "heart"
                and data["tables"]["heart_surviving"] != A6_HEART[req.fixture]):
            return f"{where}: {data['tables']['heart_surviving']}"
        return None


# -- census-a5 --------------------------------------------------------------

CENSUS_N = 5
CENSUS_RELATIONS = ((1, 3), (2, 5))
CENSUS_STRATA = 12


def census_context(p: int = 2):
    return sc.generate(rc.QuiverPresentation(CENSUS_N, CENSUS_RELATIONS),
                       rc.FieldChar(p))


def census_pairs(ctx, bounds):
    """Complete cotorsion pairs (lperp(rperp X), rperp X), verified."""
    found = set()
    for k in range(len(ctx.indecs) + 1):
        for xs in itertools.combinations(ctx.indecs, k):
            t = sub.right_perp(ctx, sub.Subcategory(frozenset(xs)))
            s = sub.left_perp(ctx, t)
            found.add((s.ids, t.ids))
    out = []
    for s_ids, t_ids in sorted(found, key=lambda st: (sorted(st[0]), sorted(st[1]))):
        cp = pairs.verify_cotorsion(ctx, sub.Subcategory(s_ids, "S"),
                                    sub.Subcategory(t_ids, "T"), bounds)
        if cp.verdict.holds:
            out.append(cp)
    return out


def census_twins(cps):
    """Every ordered pair of cotorsion pairs ((S,T),(U,V)) with S in U."""
    return [(st, uv) for st in cps for uv in cps if st.u.ids <= uv.u.ids]


def twin_key(st, uv) -> str:
    def ids(s):
        return ",".join(str(x) for x in sorted(s.ids))
    return f"S={ids(st.u)}|T={ids(st.v)}|U={ids(uv.u)}|V={ids(uv.v)}"


def decide_twin(ctx, st, uv, bounds):
    """The census request: verdicts of one twin plus replay logs of its fails."""
    tp = pairs.verify_twin(ctx, st, uv)
    if not tp.verdict.holds:
        return tp.verdict.status, None, None, []
    hearts = pairs.compute_hearts(ctx, tp, bounds)
    h = hc.heart_context(ctx, tp, hearts, bounds)
    integral = hc.check_integral(h)
    abelian = hc.check_abelian(h)
    subs = {"S": tp.s, "T": tp.t, "U": tp.u, "V": tp.v, "W": tp.w}
    replays = []
    for check, verdict in (("check-integral", integral), ("check-abelian", abelian)):
        if verdict.fails:
            report = ff.report_payload(check, verdict.payload(), ctx.presentation,
                                       ctx.field, subs, bounds, 0, 0.0)
            report = json.loads(ff.dumps_canonical(report))
            replays.append(ff.replay_certificate(report))
    return tp.verdict.status, integral.status, abelian.status, replays


class CensusA5:
    """Twin census of n=5, relations {1-3, 2-5} at F_2, one shared context."""

    name = "census-a5"

    def setup(self, seed: int) -> None:
        self.golden = json.loads(GOLDEN.read_text())
        self.bounds = sub.SearchBounds()
        self.ctx = census_context()
        twins = census_twins(census_pairs(self.ctx, self.bounds))
        self.twins = {twin_key(st, uv): (st, uv) for st, uv in twins}
        entries = sorted(self.golden["twins"], key=lambda e: e["key"])
        strata = [[] for _ in range(CENSUS_STRATA)]
        for e in entries:
            strata[e["stratum"]].append(e)
        self.strata = strata

    def rounds(self, seed: int):
        rng = random.Random(seed)
        orders = [rng.sample(s, len(s)) for s in self.strata]
        for k in itertools.count():
            round_ = [order[k % len(order)] for order in orders]
            rng.shuffle(round_)
            yield round_

    def call(self, entry):
        st, uv = self.twins[entry["key"]]
        return decide_twin(self.ctx, st, uv, self.bounds)

    def check(self, entry, result) -> str | None:
        twin, integral, abelian, replays = result
        got = [integral, abelian]
        if twin != "holds" or "unknown" in got or got != entry["verdicts"]:
            return f"twin {entry['key']}: {twin} {got}, expected {entry['verdicts']}"
        if integral == "fails" and abelian == "holds":
            return f"twin {entry['key']}: integral fails but abelian holds"
        if len(replays) != got.count("fails") or not all(replays):
            return f"twin {entry['key']}: a fails verdict did not replay"
        return None


# -- a6-heart-f3 ------------------------------------------------------------

HEART_FIXTURES = ("ex-nonintegral", "ex-nonabelian")


class A6HeartF3:
    """Heart morphisms of two A6 twins at F_3: epi/mono, kernel, cokernel.

    The morphisms run between surviving heart objects with at most two
    summands, each of multiplicity one, with nonzero Hom between them.
    """

    name = "a6-heart-f3"

    def setup(self, seed: int) -> None:
        pres, _ = ff.parse_category(ff.read_json(FIXTURES / "paper_a6.category.json"))
        ctx = sc.generate(pres, rc.FieldChar(3))
        bounds = sub.SearchBounds()
        self.items = []
        for fixture in HEART_FIXTURES:
            subs = ff.parse_pairs(ff.read_json(FIXTURES / f"{fixture}.pairs.json"), ctx)
            st = pairs.verify_cotorsion(ctx, subs["S"], subs["T"], bounds)
            uv = pairs.verify_cotorsion(ctx, subs["U"], subs["V"], bounds)
            tp = pairs.verify_twin(ctx, st, uv)
            if not tp.verdict.holds:
                raise RuntimeError(f"{fixture} does not verify at F_3")
            h = hc.heart_context(ctx, tp, pairs.compute_hearts(ctx, tp, bounds), bounds)
            objs = sorted((sc.Obj(ids) for k in (1, 2)
                           for ids in itertools.combinations(h.surviving, k)),
                          key=lambda o: (o.total_dim, o.ids))
            for a in objs:
                for b in objs:
                    dim = len(h.hom_basis(a, b))
                    if dim:
                        self.items.append((h, a, b, dim))
        self.p = ctx.field.p

    def rounds(self, seed: int):
        rng = random.Random(seed)
        while True:
            h, a, b, dim = rng.choice(self.items)
            coeffs = [0] * dim
            while not any(coeffs):
                coeffs = [rng.randrange(self.p) for _ in range(dim)]
            yield [(h, a, b, coeffs)]

    def call(self, req):
        h, a, b, coeffs = req
        hm = hc.heart_morphism_from_coeffs(h, a, b, coeffs)
        return (hm, hc.is_epi_in_heart(hm), hc.is_mono_in_heart(hm),
                hc.kernel_in_heart(hm), hc.cokernel_in_heart(hm))

    def check(self, req, result) -> str | None:
        h, a, b, _ = req
        hm, epi, mono, (kobj, kmor, knotes), (cobj, cmor, cnotes) = result
        where = f"{a} -> {b}"
        if knotes or cnotes:
            return f"{where}: tainted kernel/cokernel {knotes + cnotes}"
        if epi != (not any(x in h.surviving for x in cobj.ids)):
            return f"{where}: epi={epi} but cokernel {cobj}"
        if mono != (not any(x in h.surviving for x in kobj.ids)):
            return f"{where}: mono={mono} but kernel {kobj}"
        if not h.in_ideal(kobj, b, kmor.mor.then(hm.mor)):
            return f"{where}: ker . f is not in the core ideal"
        if not h.in_ideal(a, cobj, hm.mor.then(cmor.mor)):
            return f"{where}: f . cok is not in the core ideal"
        if not hc.is_mono_in_heart(kmor):
            return f"{where}: the kernel map is not mono"
        if not hc.is_epi_in_heart(cmor):
            return f"{where}: the cokernel map is not epi"
        return None


def make(name: str, work_dir: Path):
    if name == "a6-cli":
        return A6Cli(work_dir / "a6-cli")
    if name == "census-a5":
        return CensusA5()
    if name == "a6-heart-f3":
        return A6HeartF3()
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("a6-cli", "census-a5", "a6-heart-f3")
