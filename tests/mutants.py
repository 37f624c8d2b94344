"""Mutants of the package, kept as data.

Each mutant replaces one exact text in one file and names the tests that
fail under it.  An equivalent mutant, which no test can tell from the
original, is kept with the reason and no killers; it is never dropped.
`test_mutants.py` checks, cheaply, that each old text occurs exactly once
in its file and that each killer names a test that exists, so a refactor
that moves the code must update this table.  Applying a mutant and running
its killers is done on a copy of the tree, never in place:

    python tests/mutants.py

copies `src/`, `tests/` and `pyproject.toml` to a temporary directory,
runs every killer there on the unmutated copy (they must pass), then
applies one mutant at a time and runs only its killers, one pytest
process at a time.  It prints each mutant as killed, survived or
equivalent and exits 1 if any survived.  It is not part of tier-1.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    killed_by: tuple
    equivalent: str = ""


CIRCULAR = "src/circparikh/circular.py"
REWRITING = "src/circparikh/rewriting.py"
WORDS = "src/circparikh/words.py"
ENUMERATION = "src/circparikh/enumeration.py"
MATRICES = "src/circparikh/matrices.py"
WORDS_TESTS = "tests/test_words.py::"
ROTATION = "tests/test_rotation_kernel.py::"
RECORDS = "tests/test_records.py::"
LADDER_KERNEL = "tests/test_ladder_kernel.py::"
SHARING = "tests/test_suite_sharing.py::"
PACKED = "tests/test_packed_count.py::"
E1_ORACLE = "tests/test_rewriting.py::TestE1AgainstOracle::"
SWAPS = "tests/test_single_pass.py::"
SWAP_ORACLE = SWAPS + "test_swap_results_match_oracle_exhaustively"
INTEGER = "tests/test_integer_paths.py::"
MATRIX_TESTS = "tests/test_matrices.py::"
ALGEBRA_ORACLE = INTEGER + "test_integer_algebra_matches_fraction_oracle"
ROUTES = INTEGER + "test_matrices_built_by_every_route_are_equal"
# The line of the kernel generator that adds a summed entry's change.
SUM_LINE = '''f"            {a} {op}= m{f} * weight"'''
# The two checks that keep a linear-rules result inside its level.
LENGTH_CHECK = "len(w2) == n\n                    "
ALPHABET_CHECK = "and not w2.translate(alphabet._foreign)\n                    "

MUTANTS = [
    Mutant(
        "ladder sums drop the weight",
        WORDS,
        SUM_LINE,
        SUM_LINE.replace(' * weight"', '" + " * weight" * (not ladder)'),
        (
            "tests/test_ladder_kernel.py::test_generated_kernel_follows_the_alphabet_not_its_text[c,a,b]",
            "tests/test_rotation_kernel.py::test_ladder_kernel_matches_per_shift_parikh_rows",
            "tests/test_circular.py::TestCircularParikhMatrix::test_entries_are_avg_counts",
        ),
    ),
    Mutant(
        "ladder rows are returned as lists",
        WORDS,
        """    return ({''.join(f'({row}), ' for row in rows)})""",
        """    return [{', '.join(f'[{row}]' for row in rows)}]""",
        (
            LADDER_KERNEL + "test_generated_kernel_follows_the_alphabet_not_its_text[c,a,b]",
            "tests/test_rotation_kernel.py::test_ladder_kernel_matches_per_shift_parikh_rows",
        ),
    ),
    Mutant(
        "the pattern total drops the weight",
        WORDS,
        SUM_LINE,
        SUM_LINE.replace(' * weight"', '" + " * weight" * ladder'),
        (
            "tests/test_rotation_kernel.py::test_entry_totals_exhaustive_small[ab]",
            "tests/test_circular.py::TestCircularParikhMatrix::test_entries_are_avg_counts",
        ),
    ),
    Mutant(
        "a pattern's branches chain with elif",
        WORDS,
        '["elif" if ladder else "if"]',
        '["elif"]',
        (
            "tests/test_rotation_kernel.py::test_entry_totals_exhaustive_small[ab]",
            "tests/test_rotation_kernel.py::test_entry_totals_exhaustive_small[abc]",
            "tests/test_rotation_kernel.py::test_entry_totals_exhaustive_small[abcd]",
        ),
    ),
    Mutant(
        "the ladder keeps `i in upper` on a list",
        WORDS,
        'f"s{i * d + j}" if j > i else "0"',
        'f"s{i * d + j}" if i * d + j in upper else "0"',
        (),
        "j > i is membership in the strictly upper indices: the same source, built in O(s^4);"
        " no test times a run, and the line count is O(s^2) either way",
    ),
    Mutant(
        "avg_count reads (0, m-1) for (0, m)",
        CIRCULAR,
        "pattern, [len(pattern)])",
        "pattern, [len(pattern) - 1])",
        (
            "tests/test_rotation_kernel.py::test_avg_count_of_the_empty_word",
            "tests/test_circular.py::TestCircularParikhMatrix::test_entries_are_avg_counts",
        ),
    ),
    Mutant(
        "the entry total of λ is 0",
        CIRCULAR,
        "max(len(word), 1)",
        "len(word)",
        (
            "tests/test_rotation_kernel.py::test_avg_count_of_the_empty_word",
            "tests/test_rotation_kernel.py::test_entry_totals_exhaustive_small[ab]",
            "tests/test_rotation_kernel.py::test_kernel_matches_per_shift_counts",
        ),
    ),
    Mutant(
        "covering entries one column to the right",
        CIRCULAR,
        "[i * (2 * s) + i + s for i in range(s)]",
        "[i * (2 * s) + i + s + 1 for i in range(s)]",
        (
            "tests/test_integer_paths.py::test_one_covering_call_sums_every_rotation[a,b]",
            "tests/test_integer_paths.py::test_product_identity_matches_fraction_sum[a,b,c-6]",
        ),
    ),
    Mutant(
        "the entry total adds the row updates",
        WORDS,
        'update(k * d + j, "-", (k + 1) * d + j)',
        'update(k * d + j, "+", (k + 1) * d + j)',
        (
            "tests/test_rotation_kernel.py::test_entry_totals_exhaustive_small[abc]",
            "tests/test_rotation_kernel.py::test_kernel_exhaustive_small",
        ),
    ),
    Mutant(
        "the entry total reads only the first entry",
        WORDS,
        "for e in upper if ladder else entries:",
        "for e in upper if ladder else entries[:1]:",
        (
            "tests/test_rotation_kernel.py::test_entry_totals_exhaustive_small[ab]",
            "tests/test_integer_paths.py::test_product_identity_matches_fraction_sum[a,b,c-6]",
        ),
    ),
    Mutant(
        "the entry total skips the first shift",
        WORDS,
        '"    total = shifts * (',
        '"    total = (shifts - 1) * (',
        (
            "tests/test_rotation_kernel.py::test_entry_totals_exhaustive_small[ab]",
            "tests/test_rotation_kernel.py::test_kernel_matches_per_shift_counts",
        ),
    ),
    Mutant(
        # Equivalent for a pattern's total over all n shifts, where shift n
        # is shift 0; the same line runs the ladder over its first shifts.
        "the entry total reads each shift after rotating",
        WORDS,
        "zip(range(shifts - 1, 0, -1), word)",
        "zip(range(shifts, 0, -1), word)",
        (
            "tests/test_rotation_kernel.py::test_every_shift_count_matches_the_oracle",
            LADDER_KERNEL + "test_generated_kernel_matches_oracle_exhaustively[ab]",
        ),
    ),
    Mutant(
        "the ladder sums of λ come from the generated code",
        CIRCULAR,
        "shifts if word else 1",
        "shifts",
        (
            "tests/test_ladder_kernel.py::test_generated_kernel_follows_the_alphabet_not_its_text[c,a,b]",
            "tests/test_circular.py::TestCircularParikhMatrix::test_empty_is_identity",
        ),
    ),
    Mutant(
        "no shift of a word is λ's one shift",
        CIRCULAR,
        "shifts if word else 1",
        "shifts or 1",
        (LADDER_KERNEL + "test_generated_kernel_matches_oracle_exhaustively[ab]",),
    ),
    Mutant(
        "the linear matrix sums zero shifts",
        WORDS,
        "_rotation_kernel(alphabet.size)(word, 1, *alphabet.symbols)",
        "_rotation_kernel(alphabet.size)(word, 0, *alphabet.symbols)",
        (
            SHARING + "test_parikh_matrix_counts_factors_on_long_words",
            "tests/test_words.py::TestParikhMatrix::test_paper_example",
        ),
    ),
    Mutant(
        "the linear matrix sums two shifts",
        WORDS,
        "_rotation_kernel(alphabet.size)(word, 1, *alphabet.symbols)",
        "_rotation_kernel(alphabet.size)(word, 2, *alphabet.symbols)",
        (
            SHARING + "test_read_ladder_rows_count_factors[a,b,c-7]",
            "tests/test_words.py::TestParikhMatrix::test_empty_word_is_identity",
        ),
    ),
    Mutant(
        "linear-rules walks the mirrored ladder",
        ENUMERATION,
        'ladder = "".join(symbols)',
        'ladder = "".join(symbols)[::-1]',
        (SHARING + "test_linear_rules_walk_holds_each_words_parikh_rows[c,a,b]",),
    ),
    Mutant(
        "linear-rules walks the suffixes without the full ladder",
        ENUMERATION,
        "for i in range(len(ladder))",
        "for i in range(1, len(ladder))",
        (
            SHARING + "test_linear_rules_walk_holds_each_words_parikh_rows[a,b,c]",
            SHARING + "test_ladder_calls_compile_nothing",
        ),
    ),
    Mutant(
        "the lanes are one bit narrower than the largest count",
        WORDS,
        "width = math.comb(max_len, min(m, max_len // 2)).bit_length()",
        "width = math.comb(max_len, min(m, max_len // 2)).bit_length() - 1",
        (PACKED + "test_lanes_hold_their_bound_without_carrying",),
    ),
    Mutant(
        "a mask covers a block's last lane",
        WORDS,
        "            lane += 1\n        lane += 1\n",
        "            lane += 1\n"
        "        masks[pattern[-1:]] = masks.get(pattern[-1:], 0) | full << lane * width\n"
        "        lane += 1\n",
        (
            PACKED + "test_count_matches_brute_force_exhaustively[ab]",
            SHARING + "test_count_matches_reference_count_pattern_by_pattern",
        ),
    ),
    Mutant(
        "a letter shifts its lanes one bit short of the next lane",
        WORDS,
        "state += (state & get(x, 0)) << width",
        "state += (state & get(x, 0)) << width - 1",
        (PACKED + "test_lanes_hold_their_bound_without_carrying",),
    ),
    Mutant(
        "the reader skips the last letter",
        WORDS,
        "    for x in word:\n        state +=",
        "    for x in word[:-1]:\n        state +=",
        (
            SHARING + "test_read_ladder_rows_count_factors[a,b,c-7]",
            PACKED + "test_count_matches_brute_force_exhaustively[ab]",
        ),
    ),
    Mutant(
        "linear-rules sizes its lanes for half the length",
        ENUMERATION,
        "for i in range(len(ladder))], max_length)",
        "for i in range(len(ladder))], max_length // 2)",
        (SHARING + "test_linear_rules_walk_holds_each_words_parikh_rows[a,b,c]",),
    ),
    Mutant(
        "_count reads each block one entry early",
        WORDS,
        "(end - 1) * width",
        "(end - 2) * width",
        (
            SHARING + "test_count_matches_reference_count_pattern_by_pattern",
            WORDS_TESTS + "TestCountSubword::test_paper_examples",
        ),
    ),
    Mutant(
        "_count reads the last block for every pattern",
        WORDS,
        "[state >> end & full for end in ends]",
        "[state >> ends[-1] & full for end in ends]",
        (SHARING + "test_count_matches_reference_count_pattern_by_pattern",),
    ),
    Mutant(
        "the permutation identity check always holds",
        WORDS,
        "return total == math.prod(word.count(s) for s in alphabet.symbols)",
        "return True",
        (SHARING + "test_identity_checks_report_the_identity_of_their_counts[True-abc]",),
    ),
    Mutant(
        "the inverse identity check always holds",
        WORDS,
        "return cba == na * nb * nc - na * bc - ab * nc + abc",
        "return True",
        (SHARING + "test_identity_checks_report_the_identity_of_their_counts[True-cab]",),
    ),
    Mutant(
        "the inverse identity check reads abc for cba",
        WORDS,
        "a + b + c, c + b + a)",
        "a + b + c, a + b + c)",
        (WORDS_TESTS + "TestIdentities::test_inverse_identity_exhaustive",),
    ),
    Mutant(
        "linear-rules looks a result up with its halves swapped",
        ENUMERATION,
        "rows[int(w2.translate(digits), size)]",
        "rows[int((w2[n // 2 :] + w2[: n // 2]).translate(digits), size)]",
        (SHARING + "test_linear_rules_reads_only_the_root_from_scratch",),
    ),
    Mutant(
        "linear-rules drops its length and alphabet check",
        ENUMERATION,
        LENGTH_CHECK + ALPHABET_CHECK + "and rows[",
        "rows[",
        (SHARING + "test_linear_rules_fails_a_result_outside_the_level[longer]",),
    ),
    Mutant(
        "linear-rules drops its length check",
        ENUMERATION,
        LENGTH_CHECK + ALPHABET_CHECK,
        ALPHABET_CHECK.removeprefix("and "),
        (SHARING + "test_linear_rules_fails_a_result_outside_the_level[shorter]",),
    ),
    Mutant(
        "linear-rules drops its alphabet check",
        ENUMERATION,
        ALPHABET_CHECK,
        "",
        tuple(
            SHARING + f"test_linear_rules_fails_a_result_outside_the_level[{case}]"
            for case in ("digit", "underscore", "leading-space", "unicode-digit")
        ),
    ),
    Mutant(
        "linear-rules parses ranks in base |Σ| + 1",
        ENUMERATION,
        "int(w2.translate(digits), size)",
        "int(w2.translate(digits), size + 1)",
        (SHARING + "test_linear_rules_reads_only_the_root_from_scratch",),
    ),
    Mutant(
        "the linear matrix reads the ladder in code-point order",
        WORDS,
        "(word, 1, *alphabet.symbols)",
        "(word, 1, *sorted(alphabet.symbols))",
        (SHARING + "test_read_ladder_rows_count_factors[c,a,b-6]",),
    ),
    Mutant(
        "the rotation's column pairs do not skip (k, k+1)",
        WORDS,
        "            for r in range(k):\n                src += update(",
        "            for r in range(k + 1):\n                src += update(",
        (
            ROTATION + "test_kernel_exhaustive_small",
            ROTATION + "test_ladder_kernel_matches_per_shift_parikh_rows",
        ),
    ),
    Mutant(
        "the rotation's row pairs stop one column early",
        WORDS,
        "for j in range(k + 2, d):",
        "for j in range(k + 2, d - 1):",
        (
            ROTATION + "test_kernel_exhaustive_small",
            ROTATION + "test_ladder_kernel_matches_per_shift_parikh_rows",
        ),
    ),
    Mutant(
        "the kernel reads a diagonal source as 0",
        WORDS,
        'm{k * d + k + 1} += 1")',
        'm{k * d + k + 1} += 0")',
        (
            ROTATION + "test_kernel_exhaustive_small",
            ROTATION + "test_ladder_kernel_matches_per_shift_parikh_rows",
        ),
    ),
    Mutant(
        "the ladder sums start unscaled",
        WORDS,
        'f"    s{i} = shifts * m{i}"',
        'f"    s{i} = m{i}"',
        (
            ROTATION + "test_ladder_kernel_matches_per_shift_parikh_rows",
            ROTATION + "test_m_equivalent_is_matrix_equality",
        ),
    ),
    Mutant(
        "canonicalize ranks gaps by length first",
        CIRCULAR,
        "sorted(set(gaps))",
        "sorted(set(gaps), key=lambda g: (len(g), g))",
        (SWAPS + "test_canonicalize_on_near_periodic_words",),
    ),
    Mutant(
        "canonicalize steps over one letter more per gap",
        CIRCULAR,
        "first + j * lo + ",
        "first + j * (lo + 1) + ",
        (
            SWAPS + "test_canonicalize_on_rotated_powers",
            SWAPS + "test_canonicalize_on_near_periodic_words",
        ),
    ),
    Mutant(
        "canonicalize probes one letter past the bisection's midpoint",
        CIRCULAR,
        "if least * mid in tt:",
        "if least * (mid + 1) in tt:",
        (SWAPS + "test_canonicalize_on_near_periodic_words",),
    ),
    Mutant(
        "canonicalize skips a run that starts right after the last",
        CIRCULAR,
        "i + lo + 1, end",
        "i + lo + 2, end",
        (
            "tests/test_circular.py::TestCanonicalize::test_examples",
            SWAPS + "test_canonicalize_on_low_entropy_words",
        ),
    ),
    Mutant(
        "canonicalize keeps the larger rotation",
        CIRCULAR,
        "if rotation < least_rotation:",
        "if rotation > least_rotation:",
        ("tests/test_circular.py::TestCanonicalize::test_canonical_is_least_rotation",),
    ),
    Mutant(
        "canonicalize starts a single longest run at 0",
        CIRCULAR,
        "    if runs == 1:\n        return first\n",
        "    if runs == 1:\n        return 0\n",
        ("tests/test_circular.py::TestCanonicalize::test_examples",),
    ),
    Mutant(
        "the primitive root looks for the word from position 2",
        CIRCULAR,
        "find(word, 1)",
        "find(word, 2)",
        ("tests/test_circular.py::TestShiftsAndClasses::test_primitive_root",),
    ),
    Mutant(
        "listings validate every site's result",
        CIRCULAR,
        "        return _canonical(alphabet, result)\n",
        "        return canonicalize(alphabet, result)\n",
        (
            "tests/test_rewriting.py::test_listings_validate_per_call_not_per_site[find_ce1]",
            "tests/test_rewriting.py::test_listings_validate_per_call_not_per_site[find_ce2]",
        ),
    ),
    Mutant(
        "the certificate's Z leaves the last letter of w's leading run out",
        CIRCULAR,
        'marks[:L] = b"\\1" * L',
        'marks[: L - 1] = b"\\1" * (L - 1)',
        (SWAPS + "test_swap_results_take_both_paths_on_long_words[abc]", SWAP_ORACLE + "[cab]"),
    ),
    Mutant(
        "the certificate's Z marks [0, c_s - 1], not [0, c_s]",
        CIRCULAR,
        'marks[: c + 1] = b"\\1" * (c + 1)',
        'marks[:c] = b"\\1" * c',
        (SWAP_ORACLE + "[abc]", SWAP_ORACLE + "[cab]"),
    ),
    Mutant(
        "the certificate's Z marks [s, s + c_s - 1], not [s, s + c_s]",
        CIRCULAR,
        'marks[s : s + c + 1] = b"\\1" * (c + 1)',
        'marks[s : s + c] = b"\\1" * c',
        (SWAP_ORACLE + "[abc]", SWAPS + "test_swap_results_take_both_paths_on_long_words[cab]"),
    ),
    Mutant(
        "the lcp of a periodic word stops at n - 1",
        CIRCULAR,
        "commonprefix([w, d[s : s + n]])",
        "commonprefix([w, d[s : s + n - 1]])",
        (),
        "c_s = n - 1 marks [0, n - 1] too, every position, so a periodic w"
        " certifies no site either way; this is why no periodic give-up is needed",
    ),
    Mutant(
        "no growth check where an a moves right",
        CIRCULAR,
        "grow[i], f = 1 + k, (i + 2 + k) % n",
        "grow[i], f = 0, (i + 2 + k) % n",
        (SWAPS + "test_swaps_that_make_a_run_at_least_as_long_as_the_leading_one", SWAP_ORACLE + "[abc]"),
    ),
    Mutant(
        "no growth check where an a moves left",
        CIRCULAR,
        "grow[i], f = 1 + k, (i - 1 - k) % n",
        "grow[i], f = 0, (i - 1 - k) % n",
        (SWAP_ORACLE + "[abc]", SWAPS + "test_swap_results_take_both_paths_on_long_words[abc]"),
    ),
    Mutant(
        "no check for two swapped a's meeting in one run",
        CIRCULAR,
        " and meet[p] != q:",
        ":",
        (SWAPS + "test_swaps_that_make_a_run_at_least_as_long_as_the_leading_one", SWAP_ORACLE + "[cab]"),
    ),
    Mutant(
        "a right-moving a meets the swap one letter too far",
        CIRCULAR,
        "k == L - 2 and d[f + 1] == a",
        "k == L - 2 and d[f + 2] == a",
        (SWAPS + "test_swaps_that_make_a_run_at_least_as_long_as_the_leading_one", SWAP_ORACLE + "[abc]"),
    ),
    Mutant(
        "a left-moving a meets the swap one letter too near",
        CIRCULAR,
        "meet[i] = (f - 1) % n",
        "meet[i] = f",
        (SWAP_ORACLE + "[abc]", SWAP_ORACLE + "[cab]"),
    ),
    Mutant(
        "the triangular product drops its last term off the diagonal",
        MATRICES,
        "for k in range(i, j + 1))",
        "for k in range(i, max(j, i + 1)))",
        (
            "tests/test_tri_kernel.py::test_generated_product_matches_the_loop[int]",
            "tests/test_integer_paths.py::test_integer_triangular_product_matches_oracle",
        ),
    ),
    Mutant(
        "the power check drops the scale n^(p-1)",
        CIRCULAR,
        "map(scale.__mul__, flat(shifted))",
        "flat(shifted)",
        (
            "tests/test_circular.py::TestPowerCheck::test_exhaustive_small",
            "tests/test_integer_paths.py::test_integer_identity_checks_match_fraction_oracle[a,b-7-verdicts0]",
        ),
    ),
    Mutant(
        "the walk pushes a word's children first letter first",
        ENUMERATION,
        "tuple(reversed(symbols))",
        "tuple(symbols)",
        (SHARING + "test_walk_matches_the_recursive_walk[abc]", SHARING + "test_walk_yields_words_up_to_order[ab]"),
    ),
    Mutant(
        "a record stores its fields in reverse order",
        WORDS,
        """exec(f"def __init__(self, {', '.join(names)}):\\n{body}", namespace)""",
        """exec(f"def __init__(self, {', '.join(reversed(names))}):\\n{body}", namespace)""",
        (
            "tests/test_circular.py::TestCanonicalize::test_examples",
            "tests/test_rewriting.py::TestFindCE1::test_valid_example",
        ),
    ),
    Mutant(
        "a record keeps the dataclass __setattr__",
        WORDS,
        "    cls.__setattr__ = _frozen_setattr\n",
        "",
        (RECORDS + "test_every_assignment_and_deletion_is_frozen[CircularWord]",),
    ),
    Mutant(
        "a record keeps the dataclass __delattr__",
        WORDS,
        "    cls.__delattr__ = _frozen_delattr\n",
        "",
        (RECORDS + "test_every_assignment_and_deletion_is_frozen[RuleApplication]",),
    ),
    Mutant(
        "E1 swaps ac alone",
        REWRITING,
        "e1 = (head, tail), (tail, head)",
        "e1 = ((head, tail),)",
        (
            "tests/test_rewriting.py::TestLinearRules::test_e1_examples",
            E1_ORACLE + "test_every_word_up_to_9[bca]",
        ),
    ),
    Mutant(
        "E1 finds past the next hit",
        REWRITING,
        "i = word.find(factor, i + 1)",
        "i = word.find(factor, i + 3)",
        (E1_ORACLE + "test_overlapping_factors[acac]", E1_ORACLE + "test_random_words"),
    ),
    Mutant(
        "E1 finds from two past a hit",
        REWRITING,
        "i = word.find(factor, i + 1)",
        "i = word.find(factor, i + 2)",
        (),
        "ac and ca have distinct letters, so no hit overlaps the last one of its factor",
    ),
    Mutant(
        "E2 swaps αb...bα one way only",
        REWRITING,
        "        e2[tail] = head, bar\n",
        "",
        (
            "tests/test_rewriting.py::TestLinearRules::test_e2_reverse_direction",
            "tests/test_rewriting.py::TestE2AgainstOracle::test_every_word_up_to_7",
        ),
    ),
    Mutant(
        "E2 tests for the end of y before the factor",
        REWRITING,
        """            if word[j : j + 2] == second:
                out.add(word[:i] + second + word[i + 2 : j] + first + word[j + 2 :])
            if word[j] == stop:
                break
""",
        """            if word[j] == stop:
                break
            if word[j : j + 2] == second:
                out.add(word[:i] + second + word[i + 2 : j] + first + word[j + 2 :])
""",
        (),
        "the opposite factor at j starts with α or b, never with the ᾱ that ends y,"
        " so the factor test fails wherever the break would come first",
    ),
    Mutant(
        "CE2 lists its α entries c first",
        REWRITING,
        """        (a, a + b, b + a, (a, b, c), _ce2_sides),
        (c, c + b, b + c, (c, b, a), _ce2_sides),
""",
        """        (c, c + b, b + c, (c, b, a), _ce2_sides),
        (a, a + b, b + a, (a, b, c), _ce2_sides),
""",
        ("tests/test_golden.py::test_transcript_matches_golden[failing-ce2-iff]",),
    ),
    Mutant(
        "E2 ends y at α, not at ᾱ",
        REWRITING,
        "for _, head, tail, (_, _, bar), _ in ce2:",
        "for _, head, tail, (bar, _, _), _ in ce2:",
        (
            "tests/test_rewriting.py::TestE2AgainstOracle::test_every_word_up_to_7",
            "tests/test_rewriting.py::TestE2AgainstOracle::test_random_words",
        ),
    ),
    Mutant(
        "the scan's indicator of the last letter is left untranslated",
        REWRITING,
        "{ord(x): int(x == letter) for x in symbols}",
        "{ord(x): int(x == letter) for x in symbols[:2]}",
        (
            "tests/test_rewriting.py::TestClosureAgainstOracle::test_listings_match_oracle",
            "tests/test_rewriting.py::TestFindCE2::test_valid_example",
        ),
    ),
    Mutant(
        "rule tables compiled on every call",
        REWRITING,
        "    rules = alphabet._rules\n",
        "    rules = None\n",
        ("tests/test_rewriting.py::test_rule_tables_compile_once_per_alphabet",),
    ),
    Mutant(
        "a listing builds the certificate once per rule",
        REWRITING,
        "        for rule in rules\n",
        "        for rule in rules\n        for canonical in [_swap_results(cw)]\n",
        ("tests/test_rewriting.py::test_rules_listing_builds_one_certificate",),
    ),
    Mutant(
        "matrices are stored unreduced",
        MATRICES,
        "        if g != 1:\n            q //= g",
        "        if False:\n            q //= g",
        (ALGEBRA_ORACLE, ROUTES),
    ),
    Mutant(
        "a rational prints its numerator alone",
        MATRICES,
        'else f"{e // g}/{q // g}"',
        "else str(e // g)",
        (MATRIX_TESTS + "test_key_examples", ALGEBRA_ORACLE),
    ),
    Mutant(
        "the circular matrix is built over denominator 1",
        CIRCULAR,
        "        _rotation_sums(cw.canonical, cw.alphabet), max(cw.length, 1)\n",
        "        _rotation_sums(cw.canonical, cw.alphabet), 1\n",
        ("tests/test_circular.py::TestCircularParikhMatrix::test_entries_are_avg_counts", ROUTES),
    ),
    Mutant(
        "a product keeps the left denominator alone",
        MATRICES,
        "self._q * other._q)",
        "self._q)",
        (ALGEBRA_ORACLE, MATRIX_TESTS + "test_square_of_binary_circular_matrix"),
    ),
    Mutant(
        "the inverse is scaled one power of q short",
        MATRICES,
        "top = q ** (d - 1)",
        "top = q ** (d - 2)",
        (ALGEBRA_ORACLE, MATRIX_TESTS + "test_inverse_of_circular_ternary_example"),
    ),
    Mutant(
        "rows read the integers back over denominator 1",
        MATRICES,
        "Fraction(e, q) for e in row",
        "Fraction(e) for e in row",
        (ALGEBRA_ORACLE, "tests/test_acceptance.py::test_criterion_1_golden_examples"),
    ),
    Mutant(
        "texts are rebuilt on every print",
        MATRICES,
        "            _set_cells(self, cells)\n",
        "            pass\n",
        (MATRIX_TESTS + "test_texts_are_built_once",),
    ),
    Mutant(
        "rows are rebuilt on every read",
        MATRICES,
        "            _set_rows(self, rows)\n",
        "            pass\n",
        (MATRIX_TESTS + "test_rows_are_built_once",),
    ),
    Mutant(
        "attributes can be assigned",
        MATRICES,
        "    def __setattr__(self, name, value):\n        raise",
        "    def __setattr__(self, name, value):\n        return object.__setattr__(self, name, value)\n        raise",
        (MATRIX_TESTS + "test_matrix_attributes_are_read_only[_sums]",),
    ),
    Mutant(
        "rational literals match a prefix",
        MATRICES,
        "_RATIONAL_RE.fullmatch(text)",
        "_RATIONAL_RE.match(text)",
        (MATRIX_TESTS + "test_parse_rational", MATRIX_TESTS + "test_from_json_rejects_garbage"),
    ),
    Mutant(
        "rational literals take any Unicode digit",
        MATRICES,
        'r"[+-]?[0-9]+(?:/[0-9]+)?"',
        'r"[+-]?\\d+(?:/\\d+)?"',
        (MATRIX_TESTS + "test_parse_rational", MATRIX_TESTS + "test_from_json_rejects_garbage"),
    ),
    Mutant(
        "class keys print the sums unscaled",
        ENUMERATION,
        "_key(sums, scale, text)",
        "_key(sums, 1, text)",
        (
            INTEGER + "test_integer_class_keys_match_matrix_keys[a,b-8]",
            "tests/test_golden.py::test_transcript_matches_golden[classes-abc-text]",
        ),
    ),
]


def pytest_passes(root, tests):
    """Whether the tests pass in the tree at `root`.  Any exit but 0 or 1,
    such as an unknown test id, is an error, never a kill."""
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    # No bytecode cache: a mutant and its restore may share a size and an mtime.
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True, timeout=1800)
    if proc.returncode not in (0, 1):
        sys.exit(f"pytest exited {proc.returncode} on {tests}:\n{proc.stdout}{proc.stderr}")
    return proc.returncode == 0


def main():
    source = Path(__file__).resolve().parents[1]
    counts = {"killed": 0, "survived": 0, "equivalent": 0}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(source / name, root / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(source / "pyproject.toml", root)
        killers = sorted({test for mutant in MUTANTS for test in mutant.killed_by})
        if not pytest_passes(root, killers):
            sys.exit("the killers fail on the unmutated tree")
        for mutant in MUTANTS:
            if mutant.equivalent:
                verdict = "equivalent"
            else:
                path = root / mutant.file
                text = path.read_text(encoding="utf-8")
                if text.count(mutant.old) != 1:
                    sys.exit(f"{mutant.name}: the old text does not occur once in {mutant.file}")
                path.write_text(text.replace(mutant.old, mutant.new, 1), encoding="utf-8")
                try:
                    verdict = "survived" if pytest_passes(root, mutant.killed_by) else "killed"
                finally:
                    path.write_text(text, encoding="utf-8")
            counts[verdict] += 1
            print(f"{verdict:<10} {mutant.name}", flush=True)
    print(", ".join(f"{n} {verdict}" for verdict, n in counts.items()))
    return 1 if counts["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
