"""Regenerates the committed code set and expected outputs under suite/.

    python3 perfbench/make_suite.py

The worked GF(4) code and its theta = id twin are fixed.  The other codes are
the first candidates of a seeded random search that pass the library's own
validation, have the full period and, for left-module codes, are not
catastrophic.  The expected outputs are what the library computes for them;
the benchmark compares every run against these files, so rerun this script
only when the library's results are meant to change.
"""

import json
import random

import bootstrap

SEARCH_SEED = 2102


def main():
    bootstrap.prepare()
    import workloads as wl
    from skewconv import FiniteField, SkewConvCode, SkewPolyMatrix, SkewTrellisCode
    from skewconv import analysis, codespec, dual, skewtrellis, trellis

    gf4 = FiniteField(2, 2, modulus=[1, 1, 1], theta_r=1)
    gf4_id = FiniteField(2, 2, modulus=[1, 1, 1], theta_r=0)
    gf16 = FiniteField(2, 4, modulus=[1, 1, 0, 0, 1], theta_r=1)
    gf9 = FiniteField(3, 2, modulus=[2, 2, 1], theta_r=1)
    worked = [[[1, 2], [2, 3]]]
    codes = {
        "gf4_worked": SkewConvCode(SkewPolyMatrix.from_ints(gf4, worked)),
        "gf4_worked_id": SkewConvCode(SkewPolyMatrix.from_ints(gf4_id, worked)),
    }

    rng = random.Random(SEARCH_SEED)

    def search(field, k, n, row_degrees, cls=SkewConvCode):
        while True:
            table = [
                [[rng.randrange(field.size) for _ in range(d + 1)] for _ in range(n)]
                for d in row_degrees
            ]
            if any(not any(e[d] for e in row) or not any(e[0] for e in row)
                   for row, d in zip(table, row_degrees)):
                continue
            try:
                code = cls(SkewPolyMatrix.from_ints(field, table))
            except ValueError:
                continue
            if cls is SkewTrellisCode:
                return code
            if code.period != field.automorphism_order:
                continue
            if not trellis.is_catastrophic(trellis.build_trellis(code)).catastrophic:
                return code

    codes["gf16_m2"] = search(gf16, 1, 2, [2])
    codes["gf9_31_m3"] = search(gf9, 1, 3, [3])
    codes["gf9_32_m1"] = search(gf9, 2, 3, [1, 1])
    codes["gf9_right_m2"] = search(gf9, 1, 2, [2], SkewTrellisCode)

    expected = {"analyze": {}}
    for name, code in codes.items():
        (wl.SUITE / f"{name}.json").write_text(codespec.dumps_code(code), encoding="utf-8")
        code, tr = wl.build(codespec.dumps_code(code))
        entry = {"report": wl.plain(analysis.analyze_code(code, trellis=tr))}
        if isinstance(code, SkewTrellisCode):
            entry["linearity"] = wl.linearity_dict(skewtrellis.linearity_report(code))
        else:
            entry["dual"] = wl.dual_dict(dual.syndrome_former(code))
        expected["analyze"][name] = entry
        print(name, f"q={code.field.size} states={tr.num_states} inputs={tr.num_inputs} "
              f"sections={tr.num_sections} d_free={entry['report']['d_free']}")

    code, tr = wl.build((wl.SUITE / "gf4_worked.json").read_text(encoding="utf-8"))
    expected["sim_gf4"] = analysis.run_simulation(
        code, wl.SIM_EPS, wl.SIM_CHECK_TRIALS, wl.SIM_FRAME_LEN, seed=wl.SIM_CHECK_SEED, trellis=tr
    ).to_dict()
    text = json.dumps(expected, sort_keys=True, indent=1) + "\n"
    (wl.SUITE / "expected.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
