"""Validation must not rest on `assert`, which `python -O` strips.

No source file holds an `assert` statement, and the tests below exercise the validators whose laws live in `bimult`, the
search guards, the typed errors of `ablin`, `rings`, `crossed`, `corpus`,
`transport`, `cohomology` and `extensions` (among them the range checks
of a section's tables and the context check that a crossed product gets
from `validate_extension`), the internal checks of
`ablin`, `rings`, `bimult`, `anncat`, `transport`, `cohomology` and
`extensions`, the CLI's exit codes for bad input, tripped guards and
internal errors, the 2-ring checker's per-law proof masks, its
conditions on the target's additive generators and its slab scan against
their references, the memo of pulled modules behind
`classify_functors` with the Smith log products it solves by, and the
brute-force search's batched stages against the one-at-a-time walk,
their schedule and its memos.  Here they run again in a `python -O`
subprocess.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

VALIDATION_TESTS = [
    "tests/test_crossed.py",
    # Listed again by name, though the file above holds it (pytest runs it once).
    "tests/test_crossed.py::test_ideal_esystem_not_an_ideal_witness",
    "tests/test_bimult.py",
    "tests/test_bimult.py::test_broken_checks_raise_without_assert",
    "tests/test_anncat.py::test_broken_checks_raise_without_assert",
    "tests/test_anncat.py::test_per_law_masks_match_the_eager_proof",
    "tests/test_anncat.py::test_per_law_masks_match_the_eager_proof_on_mutations",
    "tests/test_anncat.py::test_each_identity_is_built_once_and_only_when_its_law_is_reached",
    "tests/test_anncat.py::test_every_condition_in_the_table_is_registered_and_used",
    "tests/test_anncat.py::test_the_checker_restates_only_the_generator_forms_of_the_action_laws",
    "tests/test_anncat.py::test_generator_forms_match_the_full_grids",
    "tests/test_anncat.py::test_generator_forms_match_the_full_grids_on_mutations",
    "tests/test_anncat.py::test_every_law_names_what_its_generator_forms_need",
    "tests/test_anncat.py::test_klein_multiplier_builds_no_condition_grid_over_two_whole_copies_of_d",
    "tests/test_anncat.py::test_reports_match_the_full_scan_where_one_condition_decides",
    "tests/test_anncat.py::test_slab_scan_matches_full_scan",
    "tests/test_anncat.py::test_klein_multiplier_stops_at_the_fifth_slab_of_chunk_16",
    "tests/test_ablin.py::test_linear_map_rejects_ill_defined",
    "tests/test_ablin.py::test_snf_raises_instead_of_wrapping_past_int64",
    "tests/test_ablin.py::test_broken_postconditions_raise_without_assert",
    "tests/test_ablin.py::test_group_rejects_factor_below_one",
    "tests/test_ablin.py::test_compose_rejects_mismatched_groups",
    "tests/test_ablin.py::test_homology_rejects_mismatched_groups",
    "tests/test_ablin.py::test_homology_rejects_maps_that_do_not_compose_to_zero",
    "tests/test_ablin.py::test_homology_names_the_first_boundary_that_is_not_a_cycle",
    "tests/test_ablin.py::test_class_of_rejects_a_non_cycle",
    "tests/test_rings.py::test_subring_two_z4",
    "tests/test_rings.py::test_compose_rejects_mismatched_rings",
    "tests/test_rings.py::test_ideal_cokernel_witness_names_the_side",
    "tests/test_rings.py::test_decompose_abelian_rejects_a_table_that_is_no_group",
    "tests/test_rings.py::test_broken_checks_raise_without_assert",
    "tests/test_rings.py::test_validated_tables_are_private_and_read_only",
    "tests/test_corpus.py::test_unital_homs_rejects_a_non_unital_ring",
    "tests/test_transport.py::test_validate_section_rejects_broken_tables",
    "tests/test_transport.py::test_validate_section_rejects_a_non_unital_quotient",
    "tests/test_transport.py::test_reduce_rejects_a_section_over_another_quotient",
    "tests/test_transport.py::test_broken_checks_raise_without_assert",
    "tests/test_transport.py::test_reduce_requires_regular_base",
    "tests/test_cohomology.py::test_pullback_module_along_unit_embedding",
    "tests/test_cohomology.py::test_pullback_module_rejects_a_foreign_module",
    "tests/test_cohomology.py::test_cochain_normalisation_enforced",
    "tests/test_cohomology.py::test_pullback2_rejects_a_foreign_pulled_module",
    "tests/test_cohomology.py::test_pullback3_rejects_a_foreign_cochain",
    "tests/test_cohomology.py::test_coordinate_guard_applies_to_cached_complexes",
    "tests/test_cohomology.py::test_z6_smith_normal_form_overflow_is_raised",
    "tests/test_cohomology.py::test_broken_checks_raise_without_assert",
    "tests/test_cohomology.py::test_the_memo_matches_the_reference_in_any_order",
    "tests/test_cohomology.py::test_a_second_call_on_equal_content_builds_nothing",
    "tests/test_cohomology.py::test_the_memo_keeps_read_only_arrays_and_no_factorisation",
    "tests/test_cohomology.py::test_the_memo_holds_no_more_than_it_counts",
    "tests/test_cohomology.py::test_an_entry_over_the_byte_bound_is_not_kept",
    "tests/test_ablin.py::test_the_logs_give_the_products_of_the_built_transforms",
    "tests/test_ablin.py::test_solve_and_kernel_read_the_logs_as_the_transforms",
    "tests/test_ablin.py::test_a_replay_whose_result_leaves_int64_names_its_transform",
    "tests/test_cohomology.py::test_the_fused_cochain_checks_raise_what_the_table_walk_raises",
    "tests/test_cohomology.py::test_a_table_numpy_cannot_convert_raises_after_an_earlier_failure",
    "tests/test_extensions.py::test_obstruction_requires_regular_base",
    "tests/test_extensions.py::test_factor_system_action_condition_witnesses",
    "tests/test_extensions.py::test_factor_system_cocycle_condition_witnesses",
    "tests/test_extensions.py::test_search_rejects_non_unital_quotient",
    "tests/test_extensions.py::test_induced_psi_names_the_first_disagreeing_preimage",
    "tests/test_extensions.py::test_search_rejects_non_unital_psi",
    "tests/test_extensions.py::test_crossed_product_rejects_a_foreign_base",
    "tests/test_extensions.py::test_crossed_product_enforces_its_context",
    "tests/test_extensions.py::test_equivalent_rejects_extensions_over_different_bases",
    "tests/test_extensions.py::test_g_stage_guard_counts_generator_pair_candidates",
    "tests/test_extensions.py::test_g_guard_trips_at_the_first_action_with_candidates",
    "tests/test_extensions.py::test_search_matches_the_one_at_a_time_walk",
    "tests/test_extensions.py::test_the_search_stages_f_in_growing_batches_within_each_block",
    "tests/test_extensions.py::test_the_search_reads_its_tables_from_bounded_read_only_memos",
    "tests/test_extensions.py::test_broken_checks_raise_without_assert",
    "tests/test_extensions.py::test_factor_system_errors_match_the_one_stage_form",
    "tests/test_extensions.py::test_factor_system_errors_match_the_parent_checks",
    "tests/test_extensions.py::test_crossed_rings_gather_from_a_read_only_grid_memo",
    "tests/test_extensions.py::test_crossed_rings_are_read_only",
    "tests/test_extensions.py::test_a_failing_action_is_checked_again_on_every_call",
    "tests/test_fileio_cli.py::test_cli_bimult_guard_is_a_resource_error",
    "tests/test_fileio_cli.py::test_cli_cohom_h2_guard_is_a_resource_error",
    "tests/test_fileio_cli.py::test_cli_cohom_h2_overflow_is_a_resource_error",
    "tests/test_fileio_cli.py::test_cli_bimult_pair_scan_guard_is_a_resource_error",
    "tests/test_fileio_cli.py::test_cli_internal_error_exits_3",
    "tests/test_fileio_cli.py::test_cli_psi_rejects_a_negative_or_repeated_source",
    "tests/test_fileio_cli.py::test_cli_reduce_non_regular_is_invalid",
    "tests/test_guards.py",
    "tests/test_acceptance.py::test_criterion_07_section_independence",
]


def test_validation_survives_optimized_mode():
    src = str(ROOT / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *VALIDATION_TESTS],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]


def test_no_check_rests_on_assert():
    asserts = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted((ROOT / "src" / "ringcat").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not asserts, f"assert statements in the library: {', '.join(asserts)}"


def unbounded_memos(tree):
    """The lines of `functools.cache`, of `lru_cache` without an integer
    maxsize (as its first argument or keyword), and of any
    `maxsize=None` in a parsed module."""
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(alias.name == "cache" for alias in node.names):
                yield node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if (node.value.id, node.attr) == ("functools", "cache"):
                yield node.lineno
        elif isinstance(node, ast.keyword) and node.arg == "maxsize":
            if isinstance(node.value, ast.Constant) and node.value.value is None:
                yield node.value.lineno
        if getattr(node, "id", getattr(node, "attr", None)) == "lru_cache":
            call = calls.get(id(node))
            sizes = [k.value for k in call.keywords if k.arg == "maxsize"] + call.args[:1] if call else []
            if not (sizes and isinstance(sizes[0], ast.Constant) and type(sizes[0].value) is int):
                yield node.lineno


def memo_names(tree):
    """The functions of a parsed module decorated with `lru_cache`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            for dec in node.decorator_list:
                func = dec.func if isinstance(dec, ast.Call) else dec
                if getattr(func, "id", getattr(func, "attr", None)) == "lru_cache":
                    yield node.name


def test_every_memo_is_bounded():
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sorted((ROOT / "src" / "ringcat").glob("*.py"))}
    unbounded = [
        f"{path.relative_to(ROOT)}:{line}"
        for path, tree in trees.items()
        for line in sorted(set(unbounded_memos(tree)))
    ]
    assert not unbounded, f"memos without an integer bound: {', '.join(unbounded)}"
    # The walk reaches the memos of each layer, among them the memo of
    # pulled modules that classify_functors reads and the search's two
    # pool memos.
    memos = {f"{path.stem}.{name}" for path, tree in trees.items() for name in memo_names(tree)}
    assert {"cohomology._pulled_memo", "cohomology._defect3_plan", "extensions._bimult_pool",
            "extensions._pool_tables", "extensions._quotient_grid"} <= memos
