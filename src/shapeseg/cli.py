"""Command-line front door.

Subcommands: synth, build-model, segment, energy, reinit. Exit codes: 0 on
success, 1 on usage errors, 2 on data/format errors, 3 on numerical aborts.
Human-readable summaries go to stdout, diagnostics to stderr, machine output
only to files.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__, contours, descent, energy, field, io, shape_prior, synth


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="shapeseg", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="render a synthetic scene")
    p.add_argument("--spec", required=True)
    p.add_argument("--out-image", required=True)
    p.add_argument("--out-truth", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("build-model", help="build a PCA shape model from masks")
    p.add_argument("--masks", nargs="+", required=True)
    p.add_argument("--modes", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build_model)

    p = sub.add_parser("segment", help="run the descent on an image")
    p.add_argument("--image", required=True)
    p.add_argument("--model")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_segment)

    p = sub.add_parser("energy", help="evaluate the energy of a state")
    p.add_argument("--image", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--model")
    p.add_argument("--lambda", dest="lam", type=float, nargs="*")
    p.add_argument("--pose", type=float, nargs=4,
                   metavar=("TAU", "THETA", "TX", "TY"))
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_energy)

    p = sub.add_parser("reinit", help="re-initialize a level set toward an SDF")
    p.add_argument("--phi", required=True)
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_reinit)
    return parser


def _load_config(path):
    return descent.config_from_kv(Path(path).read_text())


def _cmd_synth(args) -> int:
    spec = synth.scene_from_kv(Path(args.spec).read_text())
    image, truth = synth.render(spec)
    io.write_pgm(image, args.out_image)
    io.write_pgm(np.where(truth, 255.0, 0.0), args.out_truth)
    print(f"rendered {spec.width}x{spec.height} scene to {args.out_image}")
    return 0


def _cmd_build_model(args) -> int:
    masks = [io.read_mask(p) for p in args.masks]
    sdfs = [shape_prior.sdf_from_mask(m) for m in masks]
    model = shape_prior.build_shape_model(sdfs, args.modes)
    shape_prior.write_smdl(model, args.out)
    share = model.variances / max(model.variances.sum(), 1e-300)
    print(f"model: {len(masks)} shapes, {model.p} modes, "
          f"first-mode variance share {share[0]:.3f}")
    return 0


def _cmd_segment(args) -> int:
    image = io.read_pgm(args.image)
    model = shape_prior.read_smdl(args.model) if args.model else None
    w, cfg = _load_config(args.config)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    state = descent.segment(image, model, w, cfg)
    field.write_sfld(state.phi, out / "phi.sfld")
    cs = contours.extract_contours(state.phi)
    (out / "contours.csv").write_text(io.contours_to_csv(cs))
    io.write_pgm(io.overlay(image, cs), out / "overlay.pgm")
    (out / "trace.csv").write_text(io.trace_to_csv(state.trace))
    (out / "config.txt").write_text(descent.config_to_kv(w, cfg))
    total = state.trace[-1].total if state.trace else float("nan")
    print(f"segment: {state.iter} iterations ({state.stop_reason}), {len(cs)} contours, "
          f"final energy {total:.6g}")
    return 0


def _cmd_energy(args) -> int:
    # Pose would clamp tau silently; NaN passes on to Pose's finiteness check
    lo, hi = shape_prior.TAU_MIN, shape_prior.TAU_MAX
    if args.pose and (args.pose[0] < lo or args.pose[0] > hi):
        raise ValueError(f"--pose tau {args.pose[0]:g} is outside [{lo:g}, {hi:g}]")
    image = io.read_pgm(args.image)
    phi = field.read_sfld(args.phi)
    if phi.shape != image.shape:
        raise ValueError(f"phi shape {phi.shape} does not match image {image.shape}")
    w, _ = _load_config(args.config)
    g = energy.edge_indicator(image, w.eta, w.sigma)
    model = shape_prior.read_smdl(args.model) if args.model else None
    descent.check_model_grid(model, image)
    state = descent.SegmentationState(phi=phi)
    if model is not None:
        # one warm start serves both approximants: the solver copies it
        mean = np.full_like(image, image.mean())
        state = descent.refresh_approximants(descent.SegmentationState(
            phi=phi, lam=np.asarray(args.lam if args.lam else np.zeros(model.p)),
            pose=shape_prior.Pose(*args.pose) if args.pose else shape_prior.Pose(),
            i_in=mean, i_out=mean), image, model, w, sweeps=100)
    bd = descent.evaluate(state, image, g, model, w)
    print(f"f1={bd.f1:.17g} f2={bd.f2:.17g} f3={bd.f3:.17g} "
          f"f4={bd.f4:.17g} total={bd.total:.17g}")
    return 0


def _cmd_reinit(args) -> int:
    phi = field.read_sfld(args.phi)
    out = descent.reinitialize(phi, args.iters)
    field.write_sfld(out, args.out)
    print(f"reinit: {args.iters} iterations written to {args.out}")
    return 0


def run_cli(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "energy":
            if not args.model and (args.lam is not None or args.pose is not None):
                parser.error("--lambda and --pose need --model")
            if args.lam == []:
                parser.error("--lambda needs at least one value")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # --version / --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except descent.NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, MemoryError) as exc:
        # a bare MemoryError has no message of its own
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
