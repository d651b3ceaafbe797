"""The acceptance battery: every criterion runs at its stated tolerance and
prints one pass/fail line."""

from coarselab import acceptance


def _run(result):
    print(result.line())
    assert result.passed, result.details
    assert result.seconds < result.budget_seconds, (
        f"{result.name} took {result.seconds:.1f}s, "
        f"budget {result.budget_seconds:.0f}s"
    )


def test_criterion_1_staircase_cover():
    _run(acceptance.criterion_staircase())


def test_criterion_2_mixed_grid_cover():
    _run(acceptance.criterion_mixed_grid())


def test_criterion_3_shift_union_cover():
    _run(acceptance.criterion_shift_union())


def test_criterion_4_product_square_cover():
    _run(acceptance.criterion_product_square())


def test_criterion_5_fiber_witnesses():
    result = acceptance.criterion_witnesses()
    _run(result)
    # C(120, 2) control pairs: one dropped or repeated pair changes the count
    assert result.details["control_pairs"] == 7140


def test_criterion_6_oracle_vs_hand_instances():
    _run(acceptance.criterion_oracle())


def test_criterion_7_saturated_union():
    _run(acceptance.criterion_saturated_union())


def test_criterion_8_ordinal_rank():
    _run(acceptance.criterion_ordinal())


def test_criterion_9_isometries():
    result = acceptance.criterion_isometries()
    _run(result)
    # each count is C(points, 2): 221, 476, 166 and 189 points
    assert result.details == {
        "phi-tower": {"pairs": 24310, "violations": 0},
        "psi-staircase": {"pairs": 113050, "violations": 0},
        "theta-interleave": {"pairs": 13695, "violations": 0},
        "f-level-projection": {"pairs": 17766, "violations": 0},
    }
