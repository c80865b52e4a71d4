"""Mutation harness: each mutant is one exact text edit in src/localk3,
and the tests named with it must fail on the edited copy.

    python tests/mutants.py [NAME ...]

For each mutant (every one, or those named) the script copies src/ to a
temporary directory, applies the edit there, and runs the named tests
against the copy in a pytest subprocess with a timeout.  It prints one
line per mutant and exits 1 if any survives: a named test passes, the
run ends in anything but test failures, or the old text is not found
exactly once.  Standard library only.  Tier-1 does not collect this
file; tests/test_lint.py checks that every old text occurs exactly once
in src/, so the table cannot rot silently.  A kernel change adds its
mutants here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TIMEOUT = 300


class Mutant(NamedTuple):
    name: str
    file: str  # a module of src/localk3
    old: str  # exact text, found once in the file
    new: str
    tests: tuple[str, ...]  # node ids that must fail; an id without [...] covers every case


S, P, M, I = (f"tests/test_{m}.py::" for m in ("series", "ptseries", "modular", "invariants"))
MUTANTS = (
    Mutant("laurent-gcd-skipped", "series.py",
           "g = math.gcd(den, *row) if den > 0 else -math.gcd(den, *row)",
           "g = 1 if den > 0 else -1",
           (f"{S}test_integral_coefficients_are_stored_as_int",
            f"{S}test_laurent_results_are_canonical",
            f"{S}test_laurent_product_trims_its_row_once")),
    Mutant("qz-invert-drops-c-power", "series.py",
           "(c ** (k - 1), x, p[i - k])", "(1, x, p[i - k])",
           (f"{S}test_qz_invert_non_unit_lead_and_negative_q_min",
            f"{S}test_qz_invert_widens_the_slot_with_a_non_unit_lead",
            f"{S}test_qz_invert_matches_reference_recurrence")),
    Mutant("row-sum-bound-drops-abs-c", "series.py",
           "abs(c) * min(x[1], y[1]) * x[2] * y[2]", "min(x[1], y[1]) * x[2] * y[2]",
           (f"{S}test_row_sum_at_the_slot_bound",
            f"{S}test_block_product_with_scalars_and_a_shared_cache_matches_schoolbook")),
    Mutant("slot-one-byte-narrow", "series.py",
           "return bound.bit_length() // 8 + 1", "return max(bound.bit_length() // 8, 1)",
           (f"{S}test_row_sum_at_the_slot_bound",
            f"{S}test_qz_mul_at_the_slot_bound",
            f"{S}test_kronecker_row_sum_matches_schoolbook")),
    Mutant("unpack-window-one-slot-short", "series.py",
           "min(window[1] - lo + 1, width)", "min(window[1] - lo, width)",
           (f"{S}test_row_sum_reads_back_exactly_the_window",
            f"{S}test_block_product_with_scalars_and_a_shared_cache_matches_schoolbook",
            f"{P}test_pairs_path_digests_at_y_8")),
    Mutant("stale-packing-kept", "series.py",
           "if e[3] != nb:", "if not e[3]:",
           (f"{S}test_qz_invert_widens_the_slot_with_a_non_unit_lead",
            f"{S}test_block_product_with_scalars_and_a_shared_cache_matches_schoolbook",
            f"{M}test_recurrence_build_matches_inverted_delta[40]")),
    Mutant("scale-copies-rows-per-class", "series.py",
           "{a: (lo, rows[id(row)]) for a, (lo, row) in block.items()}",
           "{a: (lo, [v * k.numerator for v in row]) for a, (lo, row) in block.items()}",
           (f"{P}test_scaled_exponent_keeps_its_rows_shared",)),
    Mutant("multiseries-gcd-skipped", "series.py",
           "if g > 1:\n                den //= g", "if False:\n                den //= g",
           (f"{S}test_stored_form_is_canonical",
            f"{S}test_production_mul_matches_naive_oracle")),
    Mutant("qz-mul-product-den-dropped", "series.py",
           "LaurentPoly._of(da * db, *rows[m])", "LaurentPoly._of(da, *rows[m])",
           (f"{S}test_qz_mul_matches_reference_convolution",
            f"{S}test_qz_invert_non_unit_lead_and_negative_q_min")),
    Mutant("clenshaw-drops-b-j-plus-2", "series.py",
           "+ 2 * b0 - b1, b0, b1", "+ 2 * b0, b0, b1",
           (f"{P}test_genus_row_matches_the_elimination",
            f"{P}test_genus_row_at_the_slot_bound",
            f"{P}test_genus_rows_of_inv_delta_match_the_elimination",
            f"{M}test_wall_path_digests_at_q_40")),
    Mutant("clenshaw-t-without-2", "series.py",
           "(b0 << s) + 2 * b0", "(b0 << s) + b0",
           (f"{P}test_genus_row_matches_the_elimination",
            f"{P}test_genus_row_at_the_slot_bound",
            f"{P}test_genus_rows_of_inv_delta_match_the_elimination",
            f"{M}test_wall_path_digests_at_q_40")),
    Mutant("genus-bound-drops-lucas", "series.py",
           "bound += abs(c) * lucas", "bound += abs(c)",
           (f"{P}test_genus_row_matches_the_elimination",
            f"{P}test_genus_row_at_the_slot_bound",
            f"{P}test_genus_rows_of_inv_delta_match_the_elimination")),
    Mutant("genus-row-den-unchecked", "ptseries.py",
           "if p._den != 1:", "if False:",
           (f"{P}test_bps_extract_rejects_a_half_integral_row",)),
    Mutant("ky-row-mirrors-z0", "ptseries.py",
           "if r and m:", "if r:",
           (f"{P}test_ky_row_is_one_pass_of_ky_pairs_euler", f"{P}test_ky_identity_holds")),
    Mutant("ky-row-r-bound-one-short", "ptseries.py",
           "h // r - r if r else w", "h // r - r - 1 if r else w",
           (f"{P}test_ky_row_is_one_pass_of_ky_pairs_euler", f"{P}test_ky_identity_holds")),
    Mutant("ky-check-compares-raw-numerators", "ptseries.py",
           "diff = left - right",
           "diff = LaurentPoly._of(1, left._lo, left._row) - LaurentPoly._of(1, right._lo, right._row)",
           (f"{P}test_ky_identity_compares_rational_rows_exactly",)),
    Mutant("reported-never-raises", "ptseries.py",
           "if out._den != 1:", "if False:",
           (f"{P}test_reported_names_exactly_the_non_integer_coefficients",)),
    Mutant("j-key-drops-divisibility", "ptseries.py",
           "math.gcd(g, r, n)", "g",
           (f"{P}test_pairs_path_digests_at_y_8", f"{P}test_pt_main_spot_coefficients")),
    Mutant("exponent-bound-drops-div-square", "ptseries.py",
           "bound = square // 2 + g * g", "bound = square // 2",
           (f"{P}test_exponent_drops_no_factor",
            f"{P}test_exponent_is_the_multiple_cover_sum_of_ky_counts",
            f"{P}test_pairs_path_digests_at_y_8")),
    # (square, gcd(g, n)) determines gcd(g, r, n), so no value changes; only
    # the number of J lookups shows the coarser key
    Mutant("exponent-key-gcd-drops-r", "ptseries.py",
           "math.gcd(g, r, n)", "math.gcd(g, n)",
           (f"{P}test_J_is_looked_up_once_per_key",)),
    Mutant("exponent-den-not-squared", "ptseries.py",
           "math.lcm(*range(1, params.y_max + 1)) ** 2", "math.lcm(*range(1, params.y_max + 1))",
           (f"{P}test_exponent_drops_no_factor",
            f"{P}test_exponent_is_the_multiple_cover_sum_of_ky_counts",
            f"{P}test_pairs_path_digests_at_y_8")),
    Mutant("xbar-exponent-not-doubled", "ptseries.py",
           ".scale(2)", ".scale(1)",
           (f"{P}test_exponent_drops_no_factor",
            f"{P}test_exponent_is_the_multiple_cover_sum_of_ky_counts",
            f"{P}test_xbar_squares_the_pair_series",
            f"{P}test_pairs_path_digests_at_y_8")),
    Mutant("borcherds-heavy-one-weight-low", "ptseries.py",
           "if y // wb == 1:", "if y // wb <= 2:",
           (f"{P}test_borcherds_squares_a_class_of_half_the_weight",
            f"{P}test_borcherds_at_the_smallest_sizes",
            f"{P}test_borcherds_in_place_matches_product_by_mul",
            f"{P}test_product_form_equals_exponential_form")),
    # classes run heaviest first, so the first weight seen for an h is its
    # heaviest: its factor has the smallest K and the lowest tops
    Mutant("borcherds-short-factor-reused", "ptseries.py",
           "light[h] = min(light.get(h, y), beta.weight)", "light.setdefault(h, beta.weight)",
           (f"{P}test_product_form_equals_exponential_form_at_small_sizes",
            f"{P}test_borcherds_in_place_matches_product_by_mul",
            f"{P}test_product_form_equals_exponential_form")),
    Mutant("borcherds-linear-row-unsigned", "ptseries.py",
           "rows[1][z - lo] = sign * power", "rows[1][z - lo] = e",
           (f"{P}test_factor_rows_match_the_product_by_mul[True]",
            f"{P}test_borcherds_in_place_matches_product_by_mul[True]",
            f"{P}test_product_form_equals_exponential_form")),
    Mutant("tops-one-too-narrow", "ptseries.py",
           "params.z_max + _depth(params.y_max - w) for w",
           "params.z_max + _depth(params.y_max - w) - 1 for w",
           (f"{P}test_exp_on_per_class_tops_is_exact",
            f"{P}test_pairs_path_digests_at_y_8",
            f"{P}test_pairs_path_digests_at_y_12",
            "tests/test_cli.py::test_stdout_matches_recorded_digest")),
    Mutant("tops-depth-one-weight-short", "ptseries.py",
           "_depth(params.y_max - w)", "_depth(params.y_max - w - 1)",
           (f"{P}test_exp_on_per_class_tops_is_exact",
            f"{P}test_product_form_equals_exponential_form",
            f"{P}test_pairs_path_digests_at_y_8",
            f"{P}test_pairs_path_digests_at_y_12")),
    Mutant("borcherds-factor-tops-at-heaviest", "ptseries.py",
           "tops[::w]) for h, w in light.items()",
           "[tops[min(k * max(b.weight for b, g in classes if g == h), y)]"
           " for k in range(y // w + 1)]) for h, w in light.items()",
           (f"{P}test_product_form_equals_exponential_form_at_small_sizes",
            f"{P}test_product_form_equals_exponential_form",
            f"{P}test_borcherds_in_place_matches_product_by_mul")),
    Mutant("pad-one-weight-short", "ptseries.py",
           "_depth(self.y_max - 1)", "_depth(self.y_max - 2)",
           (f"{P}test_pt_params_padding",
            f"{P}test_pairs_path_digests_at_y_8",
            f"{P}test_pairs_path_digests_at_y_12")),
    Mutant("trust-one-weight-generous", "ptseries.py",
           "_depth(beta.weight - 1)", "_depth(beta.weight - 2)",
           (f"{P}test_gv_extract_at_the_least_window_for_y_12",
            f"{P}test_gv_table_does_not_change_as_z_max_grows",
            "tests/test_cli.py::test_stdout_matches_recorded_digest")),
    Mutant("mobius-sign-dropped", "ptseries.py",
           "c = mu[m] * (lc // m)", "c = abs(mu[m]) * (lc // m)",
           (f"{P}test_mobius_strip_matches_the_recursive_strip",
            f"{P}test_gv_extract_matches_bps_table",
            f"{P}test_gv_extract_unsigned_gives_same_table")),
    Mutant("mobius-drops-one-over-m", "ptseries.py",
           "c = mu[m] * (lc // m)", "c = mu[m] * lc",
           (f"{P}test_mobius_strip_matches_the_recursive_strip",
            f"{P}test_gv_extract_matches_bps_table",
            f"{P}test_gv_extract_unsigned_gives_same_table")),
    Mutant("signed-flip-on-wrong-parity", "ptseries.py",
           "(v if i % 2 else flip * v)", "(v if not i % 2 else flip * v)",
           (f"{P}test_mobius_strip_matches_the_recursive_strip[True-6-30]",
            f"{P}test_gv_extract_matches_bps_table",
            f"{P}test_gv_extract_flags_a_non_palindromic_row")),
    Mutant("eta-power-e-plus-one-to-e", "invariants.py",
           "(e + 1) * (sum(", "e * (sum(",
           (f"{I}test_hilb_table_2000_digest", f"{I}test_eta_power_matches_pentagonal_powering")),
    Mutant("eta-power-m-off-by-one", "invariants.py",
           "- m * (sum(", "- (m - 1) * (sum(",
           (f"{I}test_hilb_table_2000_digest", f"{I}test_eta_power_matches_pentagonal_powering")),
    Mutant("inv-delta-drops-20-sigma", "modular.py",
           "(20 * flat + 2 * shifted)", "(2 * shifted)",
           (f"{M}test_inv_delta_first_rows",
            f"{M}test_wall_path_digests_at_q_40")),
    Mutant("inv-delta-z-shift-off-by-one", "modular.py",
           "(u >> (s * l))", "(u >> (s * (l - 1)))",
           (f"{M}test_inv_delta_first_rows",
            f"{M}test_wall_path_digests_at_q_40")),
    Mutant("curve-class-accepts-floats", "lattice.py",
           "        if not (isinstance(a, int) and isinstance(b, int)):\n"
           "            raise ValueError(\"curve class coordinates must be integers\")\n", "",
           ("tests/test_lattice.py::test_curve_class_coordinates_must_be_integers",)),
)


def _failed(stdout: str, cwd: str) -> set[str]:
    """The node ids, relative to the repository, that a pytest -rf summary
    reports as failed; the summary gives their paths relative to cwd."""
    out = set()
    for line in stdout.splitlines():
        if line.startswith("FAILED "):
            path, _, rest = line[len("FAILED "):].partition(" - ")[0].partition("::")
            out.add(f"{(Path(cwd) / path).resolve().relative_to(ROOT).as_posix()}::{rest}")
    return out


def _covers(wanted: str, failed: set[str]) -> bool:
    return any(f == wanted or f.startswith(wanted + "[") for f in failed)


def run(m: Mutant) -> tuple[bool, str]:
    """(caught, detail) for one mutant, run on a mutated copy of src/."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "localk3" / m.file
        text = path.read_text()
        if text.count(m.old) != 1:
            return False, f"old text occurs {text.count(m.old)} times in {m.file}"
        path.write_text(text.replace(m.old, m.new))
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        where = subprocess.run([sys.executable, "-c", "import localk3; print(localk3.__file__)"],
                               capture_output=True, text=True, env=env, cwd=tmp, timeout=60)
        if not where.stdout.startswith(str(src)):
            return False, f"localk3 imported from {where.stdout.strip() or where.stderr}"
        # run from the temporary directory, so hypothesis writes nothing into the repo
        cmd = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
               "--hypothesis-profile=mutants", "--rootdir", str(ROOT),
               "-c", str(ROOT / "pyproject.toml"),
               *(str(ROOT / t) for t in m.tests)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=tmp,
                                  timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return False, f"timed out after {TIMEOUT} s"
        failed = _failed(proc.stdout, tmp)
    missed = [t for t in m.tests if not _covers(t, failed)]
    if proc.returncode != 1 or missed:
        tail = proc.stdout.strip().splitlines()[-1:] or proc.stderr.strip().splitlines()[-1:]
        return False, f"exit {proc.returncode}, passed: {missed or '-'}; {' '.join(tail)}"
    return True, f"{len(failed)} failed"


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    survivors = []
    start = time.perf_counter()
    for m in MUTANTS:
        if names and m.name not in names:
            continue
        t = time.perf_counter()
        caught, detail = run(m)
        print(f"{'caught ' if caught else 'SURVIVED'} {m.name:34s} {time.perf_counter() - t:5.1f} s"
              f"  {detail}", flush=True)
        if not caught:
            survivors.append(m.name)
    print(f"{len(survivors)} survivors in {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
