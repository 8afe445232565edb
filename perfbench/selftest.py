"""Self-test of the benchmark's output oracles, at a tiny size.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and requires that
no operation fails.  Then it corrupts one output of the library at a time (a
flipped decoded symbol, a posterior that no longer sums to 1, an altered
d_free, a failed duality check, an exception) and requires each run to count
a failed operation instead of passing.  Exits 1 if any expectation fails.
"""

import contextlib
import io
import sys

import bootstrap


def patched_everywhere(module, attr, make):
    """Replace a library function in every skewconv module that binds it."""
    original = getattr(module, attr)
    bad = make(original)
    owners = [m for n, m in sys.modules.items()
              if n.split(".")[0] == "skewconv" and vars(m).get(attr) is original]

    @contextlib.contextmanager
    def scope():
        for m in owners:
            setattr(m, attr, bad)
        try:
            yield
        finally:
            for m in owners:
                setattr(m, attr, original)

    return scope()


def main():
    bootstrap.prepare()
    import harness
    import workloads as wl
    from skewconv import Sequence, analysis, decoder, dual

    def flip_first_symbol(fn):
        def bad(*args, **kwargs):
            res = fn(*args, **kwargs)
            est = res.info_est
            blocks = est.to_ints()
            blocks[0] = ((blocks[0][0] + 1) % est.field.size,) + tuple(blocks[0][1:])
            flipped = Sequence(est.field, blocks, width=est.width)
            return decoder.DecodeResult(flipped, res.metric, res.posteriors)
        return bad

    def skew_posterior(fn):
        def bad(*args, **kwargs):
            res = fn(*args, **kwargs)
            res.posteriors[0] = res.posteriors[0] * 1.01
            return res
        return bad

    def alter_d_free(fn):
        def bad(*args, **kwargs):
            report = dict(fn(*args, **kwargs))
            report["d_free"] += 1
            return report
        return bad

    def always_false(fn):
        return lambda *args, **kwargs: False

    def raises(fn):
        def bad(*args, **kwargs):
            raise RuntimeError("injected fault")
        return bad

    tiny = {
        "sim-gf4": lambda: wl.SimGF4(trials=20),
        "decode-gf16-m2": lambda: wl.DecodeGF16(frame_len=2),
        "analyze-suite": lambda: wl.AnalyzeSuite(("gf4_worked", "gf4_worked_id", "gf9_right_m2")),
    }
    corruptions = [
        ("sim-gf4", "flipped decoded symbol", (analysis, "viterbi", flip_first_symbol)),
        ("sim-gf4", "simulate raises", (analysis, "run_simulation", raises)),
        ("decode-gf16-m2", "flipped decoded symbol", (decoder, "viterbi", flip_first_symbol)),
        ("decode-gf16-m2", "posterior off by 1%", (decoder, "bcjr", skew_posterior)),
        ("analyze-suite", "altered d_free", (analysis, "analyze_code", alter_d_free)),
        ("analyze-suite", "duality check fails", (dual, "verify_duality", always_false)),
        ("analyze-suite", "syndrome former raises", (dual, "syndrome_former", raises)),
    ]

    def run(name, trace):
        with contextlib.redirect_stdout(io.StringIO()):
            return harness.run_workload(tiny[name](), seed=7, seconds=0, trace=trace)

    ok = True
    for name in tiny:
        for trace in (0, 1):
            res = run(name, trace)
            good = res["correct"] and res["failed"] == 0 and res["attempted"] > 0
            ok &= good
            print(f"{'ok  ' if good else 'FAIL'} {name} trace={trace}: clean run, "
                  f"{res['failed']}/{res['attempted']} failed")
    for name, what, (module, attr, make) in corruptions:
        for trace in (0, 1):
            with patched_everywhere(module, attr, make):
                res = run(name, trace)
            good = not res["correct"] and res["failed"] >= 1
            ok &= good
            print(f"{'ok  ' if good else 'FAIL'} {name} trace={trace}: {what}, "
                  f"{res['failed']}/{res['attempted']} failed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
