"""Command line front end: argument parsing and dispatch.

Subcommands: compute (EoF of a state file), verify (run a named numerical
check), probe (randomized counterexample search), zoo (write example state
files).  `eoflab.reports` prints every report and payload: JSON (default)
or CSV on stdout, and a one-line summary per report on stderr.  Exit codes:
0 pass, 1 a check failed or a probe found a violation, 2 usage or input
errors, among them an option that the chosen check, probe or zoo family,
or `compute` on a pure state, does not read.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

import numpy as np

from .checks import (
    CASE1_SEARCH,
    CASE2_SEARCH,
    WEAK_ADDITIVITY_SEARCH,
    case1_suite,
    check_case2,
    check_flagged_identity,
    check_ssa,
    check_strong_concavity,
    check_weak_additivity,
)
from .ensembles import save_ensemble
from .eof import EofOptions, eof_minimize, eof_pure, eof_wootters_2q
from .probes import (
    RELATION_CHAIN_SEARCH,
    probe_question1,
    probe_question2,
    relation_chain_check,
    superadditivity_probe,
)
from .qstate import PureState, load_state, save_state
from .reports import CheckReport, emit, print_payload
from .statezoo import (
    Case1Spec,
    case1_state,
    case2_factor,
    classical_spec,
    random_density_dims,
    random_pure,
    two_block_spec,
    werner_state,
    werner_two_pair,
)


def _dims_arg(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}")
    if not parts:
        raise argparse.ArgumentTypeError("empty list")
    return parts


def _ensemble_size_arg(text: str):
    return text if text == "auto" else int(text)


# every option a table entry reads (see `_tables`), declared once: its flag
# is --name with "-" for "_"; store_true flags default to None too, so that
# _run sees whether they were given, and are no --config keys
_OPTIONS = {
    "cut": {"type": _dims_arg, "help": "left-block subsystem indices, e.g. 0,2"},
    "restarts": {"type": int},
    "seed": {"type": int},
    "ensemble_size": {"type": _ensemble_size_arg},
    "max_iterations": {"type": int},
    "dump_ensemble": {"help": "write the best decomposition found to this ensemble file"},
    "samples": {"type": int},
    "dims": {"type": _dims_arg},
    "tol": {"type": float},
    "slack": {"type": float},
    "member_slack": {"type": float},
    "decomposition_samples": {"type": int},
    "pairs": {"type": int},
    "product_weight": {"type": float},
    "d": {"type": int},
    "trials": {"type": int},
    "source": {"choices": ("random", "case1", "werner")},
    "phi": {"type": float},
    "members": {"type": int, "help": "question probes: a floor on members per trial"},
    "rank": {"type": int},
    "shape": {"type": _dims_arg, "help": "case1 weight-matrix shape, e.g. 2,3"},
    "uniform": {"action": "store_true", "help": "case1: uniform weights instead of random"},
    "two_pair": {"action": "store_true", "help": "werner: emit the four-party two-pair view"},
    "pure": {"action": "store_true", "help": "random: pure instead of mixed"},
}


def _load_config(path: str) -> dict[str, str]:
    """key=value per line; blank lines and # comments ignored."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _apply_config(parser: argparse.ArgumentParser, commands: dict, command: str,
                  config: dict[str, str], path: str) -> None:
    """Make string defaults of the config values, for argparse to convert
    with each option's own type on the next parse; flags still win.

    argparse checks `choices` on command-line values only, so a config
    value is checked against its option's choices here."""
    sub, choices = commands[command]
    unknown = sorted(set(config) - set(choices))
    if unknown:
        raise ValueError(f"{path}: 'eof {command}' has no option for "
                         f"{', '.join(map(repr, unknown))}")
    for key, value in sorted(config.items()):
        if choices[key] is not None and value not in choices[key]:
            raise ValueError(f"{path}: {key}={value!r} is not one of "
                             f"{', '.join(map(repr, choices[key]))}")
    # a top-level default, so that --format on either side of the subcommand wins
    parser.set_defaults(format=config.pop("format", None))
    sub.set_defaults(**config)


# the EofOptions fields the command line sets
_SEARCH = ("restarts", "seed", "ensemble_size", "max_iterations")
# each search check's own search options, which the flags change field by field
_CHECK_SEARCH = {"case1": CASE1_SEARCH, "case2": CASE2_SEARCH,
                 "weak-additivity": WEAK_ADDITIVITY_SEARCH,
                 "relation-chain": RELATION_CHAIN_SEARCH}


def _reads(keywords) -> tuple[str, ...]:
    """The options a table entry reads: its keywords, with "opts" as _SEARCH."""
    return tuple(o for k in keywords for o in (_SEARCH if k == "opts" else (k,)))


def _eof_options(args: argparse.Namespace, keywords, base: EofOptions | None) -> EofOptions | None:
    """The search options the flags set, over `base` (a check's own options),
    or None if they set none.  --seed is a search field only where the
    entry has no seed of its own: a check's --seed seeds the check."""
    fields = {k: getattr(args, k) for k in _SEARCH
              if getattr(args, k) is not None and not (k == "seed" and k in keywords)}
    if not fields:
        return None
    return EofOptions(**fields) if base is None else dataclasses.replace(base, **fields)


# ---------------------------------------------------------------------------
# subcommands

def _eof_of_pure(state: PureState, cut) -> dict:
    return {"kind": "pure", "value": eof_pure(state, cut)}


def _eof_of_density(state, cut, opts: EofOptions | None = None,
                    dump_ensemble: str | None = None) -> dict:
    est = eof_minimize(state, cut, opts)
    out = {
        "kind": "density",
        "value": est.value,
        "converged": est.converged,
        "restarts": est.restarts_used,
        "iterations": est.iterations,
        "restart_values": list(est.restart_values),
        "ensemble_members": len(est.best_ensemble),
    }
    if state.dims == (2, 2):
        out["closed_form"] = eof_wootters_2q(state)
    if dump_ensemble:
        save_ensemble(dump_ensemble, est.best_ensemble)
        out["ensemble_file"] = dump_ensemble
    return out


def _cmd_compute(args: argparse.Namespace) -> int:
    state = load_state(args.state)
    cut = args.cut
    if cut is None:
        if len(state.dims) == 2:
            cut = (0,)
        else:
            print("error: --cut is required for states with more than two "
                  "subsystems", file=sys.stderr)
            return 2
    args.cut = cut
    kind = "pure" if isinstance(state, PureState) else "density"
    compute = {name: (functools.partial(fn, state), keywords)
               for name, (fn, keywords) in _tables()[0].items()}
    [result] = _run(compute, (kind,), args, f"'eof compute' on a {kind} state")
    print_payload({"dims": list(state.dims), "cut": list(cut), **result}, args.format or "json")
    return 0


def _case2_pair(product_weight: float = 0.5, d: int = 3, **kw) -> list[CheckReport]:
    """check_case2 on the two-block example and on its classical analogue."""
    example = two_block_spec(product_weight, d)
    analogue = classical_spec([product_weight, 1.0 - product_weight])
    return [check_case2(example, example, **kw), check_case2(analogue, analogue, **kw)]


def _relation_chain(seed: int = 0, **kw) -> CheckReport:
    """relation_chain_check on two rank-2 two-qubit states drawn from the
    seed, which its report names."""
    rng = np.random.default_rng([seed, 0])
    pair = [random_density_dims((2, 2), 2, rng) for _ in range(2)]
    return dataclasses.replace(relation_chain_check(*pair, **kw), seed=seed)


def _zoo_case1(seed: int = 0, shape: tuple[int, ...] = (2, 2), uniform: bool = False):
    if uniform:
        w = np.full(shape, 1.0 / (shape[0] * shape[1]))
    else:
        rng = np.random.default_rng([seed, 0])
        w = rng.dirichlet(np.ones(shape[0] * shape[1])).reshape(shape)
    return case1_state(Case1Spec(w))


def _zoo_case2(product_weight: float = 0.5, d: int = 3):
    return case2_factor(two_block_spec(product_weight, d))


def _zoo_werner(phi: float = -0.85, d: int = 2, two_pair: bool = False):
    return werner_two_pair(phi) if two_pair else werner_state(d, phi)


def _zoo_random(seed: int = 0, dims: tuple[int, ...] = (2, 2), rank: int = 2,
                pure: bool = False):
    return random_pure(dims, [seed, 1]) if pure else random_density_dims(dims, rank, [seed, 1])


def _tables() -> tuple[dict, dict, dict, dict]:
    """compute state kind, verify check, probe relation and zoo family ->
    (function, the options it reads).

    Options pass under their own names; "opts" is the search options as one
    EofOptions.  A subcommand's parser takes exactly the options its table
    reads, in the order they first appear in it.  Built per command, so the
    functions are looked up when it runs (perfbench's tracer rebinds these
    names).  A compute function takes the state first.
    """
    compute = {
        "pure": (_eof_of_pure, ("cut",)),
        "density": (_eof_of_density, ("cut", "opts", "dump_ensemble")),
    }
    question = ("trials", "seed", "slack", "members", "rank", "dims")
    verify = {
        "flagged": (check_flagged_identity, ("samples", "dims", "seed", "tol")),
        "strong-concavity": (check_strong_concavity, ("samples", "dims", "seed", "tol")),
        "ssa": (check_ssa, ("samples", "dims", "seed", "tol")),
        "case1": (case1_suite, ("samples", "seed", "tol", "slack", "opts")),
        "case2": (_case2_pair, ("seed", "slack", "member_slack", "decomposition_samples",
                                "product_weight", "d", "opts")),
        "weak-additivity": (check_weak_additivity, ("seed", "slack", "pairs", "opts")),
        "relation-chain": (_relation_chain, ("seed", "slack", "opts")),
    }
    probe = {
        "question1": (probe_question1, question),
        "question2": (probe_question2, question),
        "superadditivity": (superadditivity_probe, ("trials", "seed", "slack", "source", "phi")),
    }
    # a variant flag selects its own entry, which reads only what shapes it
    zoo = {
        "case1": (_zoo_case1, ("seed", "shape")),
        "case1 --uniform": (_zoo_case1, ("shape", "uniform")),
        "case2": (_zoo_case2, ("product_weight", "d")),
        "werner": (_zoo_werner, ("phi", "d")),
        "werner --two-pair": (_zoo_werner, ("phi", "two_pair")),
        "random": (_zoo_random, ("seed", "dims", "rank")),
        "random --pure": (_zoo_random, ("seed", "dims", "pure")),
    }
    return compute, verify, probe, zoo


def _run(table: dict, names, args: argparse.Namespace, subject: str) -> list:
    """Outputs of the named table entries, each called with the options it reads.

    An option set (by flag or --config) that none of them reads is an error,
    which names `subject` as what does not read it."""
    reads = {name: set(_reads(keywords)) for name, (_, keywords) in table.items()}
    unread = set().union(*reads.values()) - set().union(*(reads[n] for n in names))
    unread = sorted(o for o in unread if getattr(args, o) is not None)
    if unread:
        raise ValueError(f"{subject} does not read "
                         + ", ".join("--" + o.replace("_", "-") for o in unread))
    reports = []
    for name in names:
        fn, keywords = table[name]
        kw = {k: getattr(args, k, None) for k in keywords if getattr(args, k, None) is not None}
        if "opts" in keywords:
            kw["opts"] = _eof_options(args, keywords, _CHECK_SEARCH.get(name))
        out = fn(**kw)
        reports.extend(out if isinstance(out, list) else [out])
    return reports


def _cmd_verify(args: argparse.Namespace) -> int:
    _, verify, _, _ = _tables()
    if args.check == "all" and args.dims is not None:
        raise ValueError("'eof verify all' does not take --dims: flagged and "
                         "strong-concavity read it as a pool of system dimensions, "
                         "ssa as its three subsystem dimensions")
    names = tuple(verify) if args.check == "all" else (args.check,)
    reports = _run(verify, names, args, f"'eof verify {args.check}'")
    emit(reports, args.format or "json")
    return 0 if all(r.passed for r in reports) else 1


def _cmd_probe(args: argparse.Namespace) -> int:
    _, _, probe, _ = _tables()
    [result] = _run(probe, (args.relation,), args, f"'eof probe {args.relation}'")
    emit([result], args.format or "json")
    return 1 if result.violation_found else 0


def _cmd_zoo(args: argparse.Namespace) -> int:
    _, _, _, zoo = _tables()
    name = next((key for key in zoo if key.startswith(args.family + " --")
                 and getattr(args, key.split(" --")[1].replace("-", "_"))), args.family)
    [state] = _run(zoo, (name,), args, f"'eof zoo {name}'")
    save_state(args.out, state)
    kind = "pure" if isinstance(state, PureState) else "density"
    print_payload({"written": args.out, "family": args.family,
                    "dims": list(state.dims), "kind": kind},
                   args.format or "json")
    return 0


# ---------------------------------------------------------------------------

_FORMATS = ("json", "csv")


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser, and per subcommand its parser and the keys --config may set,
    each with its option's choices."""
    parser = argparse.ArgumentParser(
        prog="eof",
        description="Entanglement of formation: computation, verification, probes.",
    )

    def common(p, default):
        p.add_argument("--config", default=default, help="key=value file of option defaults")
        p.add_argument("--format", choices=_FORMATS, default=default,
                       help="report format on stdout (default json)")

    common(parser, None)
    sub = parser.add_subparsers(dest="command", required=True)
    compute, verify, probe, zoo = _tables()
    commands = {}

    def subcommand(name, fn, help):
        p = sub.add_parser(name, help=help)
        # accepted after the subcommand too; SUPPRESS keeps an unset
        # subcommand flag from clobbering a value parsed before it
        common(p, argparse.SUPPRESS)
        p.set_defaults(fn=fn)
        return p

    def options(p, table) -> dict[str, tuple | None]:
        """Add the options the table reads; the --config keys, each with
        its option's choices (None: any value)."""
        keys = {"format": _FORMATS}
        for dest in dict.fromkeys(o for _, keywords in table.values() for o in _reads(keywords)):
            action = p.add_argument("--" + dest.replace("_", "-"), default=None,
                                    **_OPTIONS[dest])
            if action.nargs != 0:
                keys[dest] = action.choices
        return keys

    p = subcommand("compute", _cmd_compute, "EoF of a saved state across a cut")
    p.add_argument("state", help="state file (pure or density)")
    commands["compute"] = (p, options(p, compute))

    p = subcommand("verify", _cmd_verify, "run a named numerical check")
    p.add_argument("check", choices=(*verify, "all"))
    commands["verify"] = (p, options(p, verify))

    p = subcommand("probe", _cmd_probe, "randomized counterexample search")
    p.add_argument("relation", choices=tuple(probe))
    commands["probe"] = (p, options(p, probe))

    p = subcommand("zoo", _cmd_zoo, "write an example state file")
    p.add_argument("family", choices=tuple(k for k in zoo if " " not in k))
    p.add_argument("--out", required=True, help="output state file")
    commands["zoo"] = (p, options(p, zoo))
    return parser, commands


def main(argv=None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        try:
            _apply_config(parser, commands, args.command, _load_config(args.config),
                          args.config)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
