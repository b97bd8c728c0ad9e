"""The three benchmark workloads: `ladder`, `induce` and `enum`.

Each workload is a fixed list of tasks, run in passes by one closed-loop
client: a task starts only after the previous one returned.  A pass
writes its inputs (untimed), runs its tasks back to back (the timed
phase), then checks every output (untimed).  No task ever sees an input
identical to an earlier task's in the same process: `ladder` runs each
pass in a fresh interpreter, `induce` changes the Hopf basis of both
documents before every call, and `enum` relabels every group before
every call.

Every task has a kind: "A" and "B" are the two task kinds whose median
latency is reported on their own (see WORKLOADS.md), "other" is the
rest.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import calibrate
import inputs

BENCH_DIR = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 100  # a ladder pass takes 10 to 20 s


@dataclass
class Task:
    kind: str
    seconds: float
    ok: bool
    error: str = ""


@dataclass
class PassResult:
    tasks: list
    scale: float  # to reference speed, see calibrate.py
    layers: dict | None = None  # tracer summary of a traced pass

    @property
    def wall_s(self) -> float:
        """The timed phase of the pass: its tasks back to back."""
        return sum(t.seconds for t in self.tasks)


def v3(x: Fraction) -> int:
    """3-adic valuation of a nonzero rational."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("valuation of zero")
    v, n, d = 0, x.numerator, x.denominator
    while n % 3 == 0:
        n //= 3
        v += 1
    while d % 3 == 0:
        d //= 3
        v -= 1
    return v


def _call_cli(argv) -> tuple:
    """Run `hopforder.cli.main` in-process; (exit status, error text)."""
    from hopforder import cli

    try:
        return cli.main(argv), ""
    except SystemExit as exc:  # argparse rejects the command line
        return exc.code, f"SystemExit({exc.code})"
    except Exception as exc:  # a crash counts as a failed task
        return -1, f"{type(exc).__name__}: {exc}"


def _read_report(path: Path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


def _timed_cli_calls(argvs, k, tracer):
    """The timed phase of a pass of in-process CLI calls, with a
    reference sample before the first call and after each call.

    Returns [(seconds, exit status, error text)] per call, the pass's
    scale to reference speed and the tracer summary when tracing."""
    clock = time.perf_counter
    timed = []
    lo = len(tracer.spans) if tracer else 0
    if tracer:
        tracer.install()
    try:
        reference = calibrate.Reference()
        for slot, argv in enumerate(argvs):
            if tracer:
                tracer.task = k * len(argvs) + slot
            t = clock()
            status, error = _call_cli(argv)
            timed.append((clock() - t, status, error))
            reference.after_call(timed[-1][0])
    finally:
        if tracer:
            tracer.uninstall()
    return timed, reference.scale(), tracer.summary(lo) if tracer else None


# --- ladder -----------------------------------------------------------------


class Ladder:
    """Degrees 2, 3, 6, 12 and 24 from tensoring cubic_eisenstein_alt with
    copies of quadratic_i_local3 over Z_(3), one pass per fresh
    interpreter (`ladder_pass.py`).  Degrees up to 12 run the verified
    pipeline; degree 24 runs only bundle, order and generator matrix.

    The documents do not depend on the seed.  Any change of Hopf basis,
    even w'_i = -w_i for some i, changes the path of the HNF and moved
    the degree-24 order time by up to 25 %, so seeded documents would
    make the seed, not the code, drive the spread of this workload.
    A fresh interpreter per pass is what keeps results from one pass out
    of the next."""

    name = "ladder"
    FULL_UP_TO = 12
    KINDS = {12: "A", 24: "B"}

    def __init__(self, root: Path, seed: int, workdir: Path):
        from hopforder.documents import load_document

        cubic = load_document(str(root / "fixtures" / f"{inputs.LADDER_BASE}.json"))
        quad = load_document(str(root / "fixtures" / f"{inputs.LADDER_FACTOR}.json"))
        self.workdir = workdir
        self.steps = inputs.ladder_tables(cubic.hopf, quad.hopf)
        manifest = []
        for degree, table, beta in self.steps:
            doc = inputs.action_document(f"ladder_deg{degree}", table, cubic.ring.prime)
            path = inputs.write_document(workdir / f"ladder-deg{degree}.json", doc)
            manifest.append(
                {"degree": degree, "path": path, "beta": list(beta), "full": degree <= self.FULL_UP_TO}
            )
        self.manifest = workdir / "ladder.json"
        with open(self.manifest, "w", encoding="utf-8") as fh:
            json.dump({"steps": manifest}, fh)

    def run_pass(self, k: int, tracer) -> PassResult:
        """One pass in a fresh interpreter; with a tracer, the child traces
        itself and writes its spans next to the pass's documents."""
        cmd = [sys.executable, str(BENCH_DIR / "ladder_pass.py"), str(self.manifest)]
        if tracer is not None:
            cmd += ["--spans", str(self.workdir / f"spans-ladder-pass{k}.json")]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
        degrees = [d for d, _, _ in self.steps]
        kinds = [self.KINDS.get(d, "other") for d in degrees]
        try:
            result = json.loads(out.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            msg = f"ladder pass exited {proc.returncode}: {err.strip()[-300:]}"
            return PassResult([Task(kind, 0.0, False, msg) for kind in kinds], 1.0)
        tasks = self._check(result["steps"], kinds)
        layers = result.get("layers")
        if layers is not None:
            layers["functions"] = {n: tuple(v) for n, v in layers["functions"].items()}
        return PassResult(tasks, result["scale"], layers)

    def _check(self, steps, kinds):
        """Verdicts true, and v3(det) of each generator matrix equal to the
        exponent law v(E (x) F) = deg F * v(E) + deg E * v(F), applied
        from the measured degree-2 and degree-3 values."""
        by_degree = {s["degree"]: s for s in steps}
        expected = {}
        try:
            v2 = v3(Fraction(by_degree[2]["det"]))
            v_prev = v3(Fraction(by_degree[3]["det"]))
            expected = {2: v2, 3: v_prev}
            degree = 3
            while degree < 24:
                v_prev = 2 * v_prev + degree * v2
                degree *= 2
                expected[degree] = v_prev
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            pass
        tasks = []
        for (degree, _, _), kind in zip(self.steps, kinds):
            s = by_degree.get(degree)
            if s is None or s.get("error"):
                tasks.append(Task(kind, 0.0, False, (s or {}).get("error", "missing step")))
                continue
            errors = [name for name, ok in s["verdicts"].items() if ok is not True]
            det = Fraction(s["det"])
            if det == 0:
                errors.append("det is 0")
            elif degree not in expected or v3(det) != expected[degree]:
                errors.append(f"v3(det) {v3(det)} != exponent law {expected.get(degree)}")
            tasks.append(Task(kind, s["seconds"], not errors, "; ".join(errors)))
        return tasks


# --- induce -----------------------------------------------------------------


class Induce:
    """In-process `hopforder induce` calls on two disjoint pairs over
    Z_(3), each on documents after a fresh unimodular change of Hopf
    basis, with seeded nonzero gamma in [-3,3]^3 and delta in [-3,3]^2."""

    name = "induce"
    PAIRS = (("A", "cubic_eisenstein_alt"), ("B", "cubic_eisenstein"))
    RIGHT = "quadratic_i_local3"
    TASKS_PER_PASS = 20
    # entry bound of the triangular factors of A, per degree: large
    # enough that no document need repeat within a run (about a
    # thousand choices of A for n = 2, tens of thousands for n = 3)
    BOUND = {2: 5, 3: 1}

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.workdir = workdir
        self.rng = random.Random(f"induce:{seed}")
        self.docs = {
            name: inputs.read_fixture(root, name)
            for name in [left for _, left in self.PAIRS] + [self.RIGHT]
        }
        self._orders = {}
        self._dets = {}
        self._seen = set()
        self._calls = self._write_pass()

    def _nonzero(self, n):
        while True:
            v = [self.rng.randint(-3, 3) for _ in range(n)]
            if any(v):
                return tuple(v)

    def _rebased(self, name):
        """The fixture in a Hopf basis not used before in this run."""
        n = len(self.docs[name]["hopf"]["labels"])
        for _ in range(1000):
            a = inputs.unimodular_matrix(n, self.rng, self.BOUND[n])
            key = (name, tuple(map(tuple, a)))
            if key not in self._seen:
                self._seen.add(key)
                return inputs.change_hopf_basis(self.docs[name], a)
        raise RuntimeError(f"no unused change of basis left for {name}")

    def _write_pass(self):
        calls = []
        for slot in range(self.TASKS_PER_PASS):
            kind, left = self.PAIRS[slot % len(self.PAIRS)]
            ldoc = self._rebased(left)
            rdoc = self._rebased(self.RIGHT)
            lpath = inputs.write_document(self.workdir / f"induce-{slot}-left.json", ldoc)
            rpath = inputs.write_document(self.workdir / f"induce-{slot}-right.json", rdoc)
            out = self.workdir / f"induce-{slot}-report.json"
            gamma, delta = self._nonzero(3), self._nonzero(2)
            # "--gamma=-1,0,2": in the form "--gamma -1,0,2" argparse takes
            # the leading "-1" for an option and exits with status 2.
            argv = [
                "induce",
                lpath,
                rpath,
                "--gamma=" + ",".join(map(str, gamma)),
                "--delta=" + ",".join(map(str, delta)),
                "--output",
                str(out),
            ]
            calls.append((kind, left, gamma, delta, argv, out))
        return calls

    def run_pass(self, k: int, tracer) -> PassResult:
        calls = self._calls if k == 0 else self._write_pass()
        for *_, out in calls:
            out.unlink(missing_ok=True)
        timed, scale, layers = _timed_cli_calls([c[4] for c in calls], k, tracer)
        tasks = []
        for (kind, left, gamma, delta, _, out), (seconds, status, error) in zip(calls, timed):
            errors = [error] if error else []
            if status != 0:
                errors.append(f"exit status {status}")
            else:
                errors += self._check(_read_report(out), left, gamma, delta)
            tasks.append(Task(kind, seconds, not errors, "; ".join(errors)))
        return PassResult(tasks, scale, layers)

    def _factor_det(self, name, beta):
        """det of the generator matrix of beta on the shipped fixture,
        the second route the product determinant is checked against."""
        from hopforder.action import build_bundle
        from hopforder.documents import parse_document
        from hopforder.freeness import generator_matrix
        from hopforder.order import associated_order

        if name not in self._orders:
            doc = parse_document(self.docs[name])
            self._orders[name] = associated_order(build_bundle(doc.hopf, doc.ring))
        key = (name, beta)
        if key not in self._dets:
            self._dets[key] = generator_matrix(self._orders[name], beta).det
        return self._dets[key]

    def _check(self, report, left, gamma, delta):
        if report is None:
            return ["no report"]
        errors = []
        level = report.get("order_level", {})
        gen = level.get("generator", {})
        base = level.get("base_change", {})
        flags = {
            "kronecker_factorization_ok": report.get("kronecker_factorization_ok"),
            "arithmetically_disjoint": report.get("arithmetically_disjoint"),
            "tensor_order_ok": level.get("tensor_order_ok"),
            "generator.kronecker_factorization_ok": gen.get("kronecker_factorization_ok"),
            "lattice_matches_product_basis": base.get("lattice_matches_product_basis"),
            "base_change.gamma_free": base.get("gamma_free"),
        }
        errors += [f"{name} is {value}" for name, value in flags.items() if value is not True]
        if "det" not in gen:
            return errors + ["no generator determinant"]
        det_g = self._factor_det(left, gamma)
        det_d = self._factor_det(self.RIGHT, delta)
        det_p = Fraction(gen["det"])
        r, u = len(gamma), len(delta)
        if det_g == 0 or det_d == 0:
            if det_p != 0:
                errors.append(f"det {det_p} should be 0")
            both_free = False
        else:
            if det_p == 0:
                errors.append("det is 0")
            elif v3(det_p) != u * v3(det_g) + r * v3(det_d):
                errors.append(
                    f"v3(det) {v3(det_p)} != {u}*{v3(det_g)} + {r}*{v3(det_d)}"
                )
            both_free = v3(det_g) == 0 and v3(det_d) == 0
        if gen.get("free") is not both_free:
            errors.append(f"free is {gen.get('free')}, factors free: {both_free}")
        return errors


# --- enum -------------------------------------------------------------------


def _perm(n, *cycles):
    images = list(range(n))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a] = b
    return tuple(images)


# label -> (kind, source, expected count, expected types, expected induced)
# where source is a fixture name or (generators, J generators, G' generators).
# The induced counts were recorded on the unrelabelled groups.
GROUPS = {
    "c2xc2": ("other", "group_c2xc2", 4, {"C2xC2": 1, "C4": 3}, 1),
    "s3": ("other", "group_s3", 5, {"C6": 3, "S3": 2}, 3),
    "c2^3": (
        "A",
        (
            [_perm(6, (0, 1)), _perm(6, (2, 3)), _perm(6, (4, 5))],
            [_perm(6, (0, 1)), _perm(6, (2, 3))],
            [_perm(6, (4, 5))],
        ),
        106,
        {"C2xC2xC2": 8, "C2xC4": 42, "D8": 42, "Q8": 14},
        7,
    ),
    "d8": (
        "other",
        (
            [_perm(4, (0, 1, 2, 3)), _perm(4, (1, 3))],
            [_perm(4, (0, 1, 2, 3))],
            [_perm(4, (1, 3))],
        ),
        30,
        {"C2xC2xC2": 6, "C2xC4": 14, "D8": 6, "Q8": 2, "C8": 2},
        4,
    ),
    # Q8 has no nontrivial complemented normal subgroup: no --detect-induced
    "q8": (
        "other",
        ([_perm(8, (0, 1, 2, 3), (4, 5, 6, 7)), _perm(8, (0, 4, 2, 6), (1, 7, 3, 5))], None, None),
        22,
        {"C2xC2xC2": 2, "C2xC4": 6, "D8": 6, "C8": 6, "Q8": 2},
        None,
    ),
    "c3^2": (
        "B",
        ([_perm(6, (0, 1, 2)), _perm(6, (3, 4, 5))], [_perm(6, (0, 1, 2))], [_perm(6, (3, 4, 5))]),
        9,
        {"C3xC3": 9},
        1,
    ),
}


class Enum:
    """In-process `hopforder enum --detect-induced` on groups of order 4
    to 9, each relabelled by a fresh seeded permutation per call."""

    name = "enum"

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.workdir = workdir
        self.rng = random.Random(f"enum:{seed}")
        self._seen = set()
        self.groups = {}
        for label, (_, source, *_) in GROUPS.items():
            if isinstance(source, str):
                g = inputs.read_fixture(root, source)["group"]
                self.groups[label] = (g["cayley"], g.get("J"), g.get("Gprime"))
            else:
                gens, jgens, ggens = source
                elems, cayley = inputs.cayley_from_generators(gens)
                j = inputs.subgroup_indices(elems, jgens) if jgens else None
                gp = inputs.subgroup_indices(elems, ggens) if ggens else None
                self.groups[label] = (cayley, j, gp)
        self._calls = self._write_pass()

    def _write_pass(self):
        calls = []
        for label, (cayley, j, gp) in self.groups.items():
            table, j2, gp2 = self._relabelled(cayley, j, gp)
            path = inputs.write_document(
                self.workdir / f"enum-{label}.json", inputs.group_document(label, table, j2, gp2)
            )
            out = self.workdir / f"enum-{label}-report.json"
            argv = ["enum", path, "--output", str(out)]
            if j2 is not None:
                argv.append("--detect-induced")
            calls.append((label, argv, out))
        return calls

    def _relabelled(self, cayley, j, gp):
        """The group under a relabelling whose document was not used
        before in this run (C2xC2 with its J and G' has 24)."""
        perm = list(range(len(cayley)))
        for _ in range(1000):
            self.rng.shuffle(perm)
            table, j2, gp2 = inputs.relabel(cayley, perm, j, gp)
            key = (tuple(map(tuple, table)), j2 and tuple(j2), gp2 and tuple(gp2))
            if key not in self._seen:
                self._seen.add(key)
                return table, j2, gp2
        raise RuntimeError("no unused relabelling left")

    def run_pass(self, k: int, tracer) -> PassResult:
        calls = self._calls if k == 0 else self._write_pass()
        for *_, out in calls:
            out.unlink(missing_ok=True)
        timed, scale, layers = _timed_cli_calls([c[1] for c in calls], k, tracer)
        tasks = []
        for (label, _, out), (seconds, status, error) in zip(calls, timed):
            errors = [error] if error else []
            if status != 0:
                errors.append(f"exit status {status}")
            else:
                errors += self._check(label, _read_report(out))
            tasks.append(Task(GROUPS[label][0], seconds, not errors, "; ".join(errors)))
        return PassResult(tasks, scale, layers)

    @staticmethod
    def _check(label, report):
        if report is None:
            return ["no report"]
        _, _, count, types, induced = GROUPS[label]
        subs = report.get("subgroups", [])
        errors = []
        if report.get("count") != count or len(subs) != count:
            errors.append(f"count {report.get('count')} != {count}")
        got = dict(Counter(s.get("type") for s in subs))
        if got != types:
            errors.append(f"types {got} != {types}")
        for flag in ("is_left_translations", "is_right_translations"):
            if sum(1 for s in subs if s.get(flag) is True) != 1:
                errors.append(f"not exactly one subgroup with {flag}")
        if induced is not None:
            got_induced = sum(1 for s in subs if s.get("induced") is True)
            if got_induced != induced:
                errors.append(f"induced {got_induced} != {induced}")
        return errors


WORKLOADS = {w.name: w for w in (Ladder, Induce, Enum)}
