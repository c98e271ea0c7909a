"""Command-line interface: JSON actions in, deterministic JSON reports out.

Exit codes: 0 = computed (verdicts live in the report, never in the exit
code), 1 = an internal consistency check failed (InvariantViolationError),
2 = invalid input, 3 = a resource cap was exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from .errors import CappedComputationError, CharacterNotRealizedError, EquitorError, InputError
from .oracles import bounded_freeness_oracle, null_fiber_dimension
from .pipeline import Analysis, Options
from .reduced import reduced_class_groups
from .semigroup import WeightedAction

Vec = tuple[int, ...]


def integer(value, where: str) -> int:
    """The type check of every integer of the input document: a JSON
    boolean, float or string is bad input, never read as a number."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{where}: expected an integer")
    return value


def nonnegative(value: int, where: str) -> int:
    """The range check of every option, bound flag and congruence modulus:
    0 is a bound like any other, a negative value is bad input."""
    if value < 0:
        raise InputError(f"{where}: expected an integer >= 0")
    return value


def parse_input(doc) -> tuple[WeightedAction, Options]:
    """Validate one input document; raises InputError with a pointer."""
    if not isinstance(doc, dict):
        raise InputError("$: expected an object")

    def need(key, typ, default=None, required=False):
        if key not in doc:
            if required:
                raise InputError(f"$.{key}: missing")
            return default
        val = doc[key]
        if typ is int:
            integer(val, f"$.{key}")
        if typ is list and not isinstance(val, list):
            raise InputError(f"$.{key}: expected a list")
        return val

    n = need("ambient_dim", int, required=True)
    rank = need("torus_rank", int, required=True)
    moduli = need("torsion_moduli", list, default=[])
    weights = need("weights", list, required=True)
    congs = need("quotient_congruences", list, default=[])
    if n < 0 or rank < 0:
        raise InputError("$: dimensions must be nonnegative")
    for i, m in enumerate(moduli):
        if integer(m, f"$.torsion_moduli[{i}]") < 2:
            raise InputError(f"$.torsion_moduli[{i}]: expected an integer >= 2")
    k = rank + len(moduli)
    if len(weights) != n:
        raise InputError(f"$.weights: expected {n} entries (one per variable)")
    wvecs = []
    for i, w in enumerate(weights):
        if not isinstance(w, list) or len(w) != k:
            raise InputError(f"$.weights[{i}]: expected a list of {k} integers")
        wvecs.append(tuple(integer(x, f"$.weights[{i}][{j}]") for j, x in enumerate(w)))
    cvecs = []
    for i, c in enumerate(congs):
        at = f"$.quotient_congruences[{i}]"
        if not isinstance(c, dict) or "coeffs" not in c or "modulus" not in c:
            raise InputError(f"{at}: expected an object with coeffs and modulus")
        coeffs = c["coeffs"]
        if not isinstance(coeffs, list) or len(coeffs) != n:
            raise InputError(f"{at}.coeffs: expected a list of {n} integers")
        coeffs = tuple(integer(x, f"{at}.coeffs[{j}]") for j, x in enumerate(coeffs))
        cvecs.append((coeffs, nonnegative(integer(c["modulus"], f"{at}.modulus"), f"{at}.modulus")))
    opts = doc.get("options", {})
    if not isinstance(opts, dict):
        raise InputError("$.options: expected an object")
    values = {}
    for f in dataclasses.fields(Options):
        if f.name in opts:
            at = f"$.options.{f.name}"
            values[f.name] = nonnegative(integer(opts[f.name], at), at)
    options = Options(**values)
    try:
        action = WeightedAction(
            ambient_dim=n,
            free_rank=rank,
            torsion_moduli=tuple(moduli),
            weights=tuple(wvecs),
            congruences=tuple(cvecs),
        )
    except InputError as e:
        raise InputError(f"$: {e}") from e
    return action, options


def echo_input(action: WeightedAction, options: Options) -> dict:
    return {
        "ambient_dim": action.ambient_dim,
        "torus_rank": action.free_rank,
        "torsion_moduli": list(action.torsion_moduli),
        "weights": [list(w) for w in action.weights],
        "quotient_congruences": [
            {"coeffs": list(c), "modulus": m} for c, m in action.congruences
        ],
        "options": dataclasses.asdict(options),
    }


def parse_char(text: str, length: int) -> Vec:
    try:
        out = tuple(int(x.strip()) for x in text.split(","))
    except ValueError as e:
        raise InputError(f"--chi: expected comma-separated integers, got {text!r}") from e
    if len(out) != length:
        raise InputError(f"--chi: expected {length} coordinates, got {len(out)}")
    return out


def analyze_report(an: Analysis) -> dict:
    v = an.verdict
    red = an.reduced
    t, prov = an.exponent_with_provenance
    obs = an.obstruction
    report = {
        "stable": "yes" if an.input_stable else "no",
        "equidimensional": v.equidimensional,
        "cofree": v.cofree,
        "reductions": {
            "finite_component_quotient": an.finite_reduction_applied,
            "stability_quotient": not an.input_stable,
        },
        "cl_R": list(an.ctx.cl_R.invariant_factors),
        "cl_RG": list(an.ctx.cl_RG.invariant_factors),
        "urcl": list(red.divisor_side_factors),
        "cltilde": list(red.module_side_factors),
        "t": t,
        "t_tilde": obs.coprime_part if obs else None,
        "t_reflection": obs.reflection_part if obs else None,
        "t_provenance": prov,
        "reflection_restriction": list(an.reflection_restriction.invariant_factors),
        "obs_restriction": list(obs.restriction.invariant_factors) if obs else None,
        "qualified_basis": [list(c) for c in an.qualified.basis_chars()],
        "qualified_provenance": an.qualified.provenance,
        "sweep": {
            "bound": red.sweep_bound,
            "stable": red.sweep_stable,
            "group_certified": red.exact,
        },
        "certificates": v.certificates,
        "oracle_agreement": {
            "null_fiber": v.oracle_agrees,
            "null_fiber_dimension": v.null_fiber[0],
        },
    }
    return report


def fiber_point(an: Analysis, chi: Vec) -> Vec:
    """The point that `dchi` and `free` read the character at: an empty
    fiber is bad input, not a failed check."""
    try:
        return an.ctx.fiber_element(chi)
    except CharacterNotRealizedError as e:
        raise InputError(f"--chi: {e}") from None


def run(command: str, doc, flags) -> dict:
    action, options = parse_input(doc)
    report: dict = {"command": command, "input": echo_input(action, options)}
    # both flags are checked on every command; --degree-cap replaces the option
    bound = options.sweep_bound if flags.bound is None else nonnegative(flags.bound, "--bound")
    if flags.degree_cap is not None:
        options = dataclasses.replace(options, degree_cap=nonnegative(flags.degree_cap, "--degree-cap"))
    an = Analysis(action, options)
    if command == "analyze":
        report.update(analyze_report(an))
    elif command == "invariants":
        report.update(
            {
                "hilbert_basis": [list(h) for h in an.ctx.S.hilbert_basis],
                "invariant_hilbert_basis": [list(h) for h in an.ctx.S_G.hilbert_basis],
                "rank": an.ctx.S.rank,
                "invariant_rank": an.ctx.S_G.rank,
                "facets": [
                    {
                        "coord": P.coord,
                        "scale": P.scale,
                        "tier": an.ctx.cls.facets[P.index].tier,
                        "over": an.ctx.cls.facets[P.index].q_index,
                        "ramification": an.ctx.cls.facets[P.index].ram_index,
                    }
                    for P in an.ctx.S.facets
                ],
                "stable": "yes" if an.input_stable else "no",
            }
        )
    elif command == "class-group":
        which = flags.of or "R"
        cl = an.ctx.cl_R if which == "R" else an.ctx.cl_RG
        report.update({"of": which, "invariant_factors": list(cl.invariant_factors)})
    elif command == "dchi":
        chi = parse_char(flags.chi, action.char_length)
        a = fiber_point(an, chi)
        D = an.ctx.char_divisor(a)
        report.update(
            {
                "chi": list(chi),
                "coefficients": list(D.coeffs),
                "class": list(an.ctx.cl_R.class_of(D)),
                "order": an.ctx.cl_R.order_of(D),
                "module_order": an.ctx.cl_RG.order_of(an.ctx.module_divisor(a)),
            }
        )
    elif command == "free":
        chi = parse_char(flags.chi, action.char_length)
        free, wit = an.ctx.free_test(fiber_point(an, chi))
        report.update(
            {
                "chi": list(chi),
                "free": free,
                "witness": list(wit) if wit is not None else None,
                "oracle": bounded_freeness_oracle(an.ctx.S_G, an.action, chi, options.degree_cap),
            }
        )
    elif command == "obstruction":
        obs = an.obstruction
        if obs is None:
            report.update({"t": an.exponent_with_provenance[0], "obstruction": None})
        else:
            report.update(
                {
                    "t": obs.exponent,
                    "t_tilde": obs.coprime_part,
                    "t_reflection": obs.reflection_part,
                    "reflection_restriction": list(an.reflection_restriction.invariant_factors),
                    "obs_restriction": list(obs.restriction.invariant_factors),
                    "obs_annihilator": [list(c) for c in obs.obstruction.annihilator.lattice.basis],
                }
            )
    elif command == "equidim":
        if flags.oracle_only:
            dim, ok = null_fiber_dimension(an.ctx.S, an.ctx.S_G)
            report.update(
                {
                    "oracle_only": True,
                    "null_fiber_dimension": dim,
                    "expected": an.ctx.S.rank - an.ctx.S_G.rank,
                    "equidimensional": "yes" if ok else "no",
                }
            )
        else:
            v = an.verdict
            report.update(
                {
                    "equidimensional": v.equidimensional,
                    "certificates": v.certificates,
                    "oracle_agrees": v.oracle_agrees,
                }
            )
    elif command == "cofree":
        dec = an.cofree_decision
        report.update(
            {
                "cofree": "yes" if dec.verdict else "no",
                "swept_characters": dec.swept_characters,
                "witness": list(dec.witness) if dec.witness is not None else None,
                "oracle_checked": dec.oracle_checked,
                "degree_cap": options.degree_cap,
            }
        )
    elif command == "sweep":
        red = reduced_class_groups(an.ctx, an.qualified, bound)
        report.update(
            {
                "bound": bound,
                "urcl": list(red.divisor_side_factors),
                "cltilde": list(red.module_side_factors),
                "divisor_exponent": red.divisor_exponent,
                "module_exponent": red.module_exponent,
                "sweep_stable": red.sweep_stable,
                "group_certified": red.exact,
            }
        )
    else:
        raise InputError(f"unknown command {command!r}")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="equitor",
        description="Equidimensionality and cofreeness of diagonalizable group "
        "actions on affine semigroup rings, by exact divisor-class arithmetic.",
    )
    parser.add_argument(
        "command",
        choices=[
            "analyze",
            "invariants",
            "class-group",
            "dchi",
            "free",
            "obstruction",
            "equidim",
            "cofree",
            "sweep",
        ],
    )
    parser.add_argument("input", help="path to a JSON action description")
    parser.add_argument("--of", choices=["R", "RG"], help="ring for class-group")
    parser.add_argument("--chi", help="character as comma-separated integers")
    parser.add_argument("--degree-cap", dest="degree_cap", type=int)
    parser.add_argument("--bound", type=int)
    parser.add_argument("--oracle-only", dest="oracle_only", action="store_true")
    parser.add_argument("--pretty", action="store_true", help="indent the JSON report")
    parser.add_argument("--timing", action="store_true", help="include wall-clock timing")
    # argparse reads a value with a leading minus sign as an option, so
    # `--chi -1,0` is passed on as `--chi=-1,0`
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--chi" and not argv[i + 1].startswith("--"):
            argv[i : i + 2] = [f"--chi={argv[i + 1]}"]
    args = parser.parse_args(argv)

    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        print(f"error: cannot read {args.input}: {e}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as e:
        print(f"error: {args.input}: invalid JSON at line {e.lineno}: {e.msg}", file=sys.stderr)
        return 2

    if args.command in ("dchi", "free") and not args.chi:
        print("error: --chi is required for this command", file=sys.stderr)
        return 2

    started = time.monotonic()
    try:
        report = run(args.command, doc, args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CappedComputationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except EquitorError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    if args.timing:
        report["timing"] = {"seconds": round(time.monotonic() - started, 3)}
    if args.pretty:
        text = json.dumps(report, sort_keys=True, indent=2)
    else:
        text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
