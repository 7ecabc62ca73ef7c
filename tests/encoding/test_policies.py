"""Encoding policies: write-back plans vs Fig. 6 and Table 2."""

import pytest

from repro.encoding.policies import (
    BackwardEncodingPolicy,
    HopEncodingPolicy,
    VersionJumpingPolicy,
    make_policy,
)


def simulate(policy, length):
    """Drive a chain to `length` records; return final base pointers and
    the total number of (re)encodings planned."""
    records = [f"R{i}" for i in range(length)]
    bases: dict[str, str | None] = {records[0]: None}
    writebacks = 0
    for position in range(1, length):
        bases[records[position]] = None  # new tail is raw
        for action in policy.plan_extend(records[: position + 1], position):
            bases[action.target_id] = action.base_id
            writebacks += 1
    return bases, writebacks


class TestBackward:
    def test_every_previous_tail_reencoded(self):
        bases, writebacks = simulate(BackwardEncodingPolicy(), 10)
        assert bases["R9"] is None  # tail raw
        for i in range(9):
            assert bases[f"R{i}"] == f"R{i + 1}"
        assert writebacks == 9

    def test_first_record_no_actions(self):
        assert BackwardEncodingPolicy().plan_extend(["R0"], 0) == []


class TestVersionJumping:
    def test_reference_versions_stay_raw(self):
        policy = VersionJumpingPolicy(hop_distance=4)
        bases, _ = simulate(policy, 17)
        # References: last record of each 4-cluster → positions 3, 7, 11, 15.
        for reference in (3, 7, 11, 15):
            assert bases[f"R{reference}"] is None
        # Non-references point at their successor.
        assert bases["R0"] == "R1"
        assert bases["R4"] == "R5"

    def test_raw_record_count(self):
        policy = VersionJumpingPolicy(hop_distance=4)
        # 65 records: 16 references (positions 3,7,...,63) plus the tail.
        bases, _ = simulate(policy, 65)
        raw = sum(1 for base in bases.values() if base is None)
        assert raw == 65 // 4 + 1

    def test_writeback_count_matches_table2(self):
        h = 4
        n = 64
        _, writebacks = simulate(VersionJumpingPolicy(h), n)
        # Table 2: N - N/H (within one boundary record).
        assert abs(writebacks - (n - n // h)) <= 1

    def test_invalid_distance(self):
        with pytest.raises(ValueError):
            VersionJumpingPolicy(1)


class TestHopEncoding:
    def test_reproduces_figure_6(self):
        policy = HopEncodingPolicy(hop_distance=4)
        bases, _ = simulate(policy, 17)
        expected = {
            "R0": "R16",
            "R1": "R2", "R2": "R3", "R3": "R4",
            "R4": "R8",
            "R5": "R6", "R6": "R7", "R7": "R8",
            "R8": "R12",
            "R9": "R10", "R10": "R11", "R11": "R12",
            "R12": "R16",
            "R13": "R14", "R14": "R15", "R15": "R16",
            "R16": None,
        }
        assert bases == expected

    def test_single_raw_record(self):
        # Table 2: storage Sb + (N-1)·Sd — exactly one raw record.
        bases, _ = simulate(HopEncodingPolicy(4), 100)
        raw = [record for record, base in bases.items() if base is None]
        assert raw == ["R99"]

    def test_writeback_count_matches_table2_shape(self):
        h = 4
        n = 256
        _, writebacks = simulate(HopEncodingPolicy(h), n)
        # ~N + N/(H-1): more than plain backward, shrinking as H grows.
        assert n - 1 < writebacks < n * 1.5
        _, writebacks_larger_h = simulate(HopEncodingPolicy(16), n)
        assert writebacks_larger_h < writebacks

    def test_decode_cost_bounded(self):
        from repro.encoding.analysis import measured_decode_costs

        h = 4
        n = 257
        bases, _ = simulate(HopEncodingPolicy(h), n)
        costs = measured_decode_costs(bases)
        worst = max(costs.values())
        backward_worst = n - 1
        # Far below plain backward; within a small factor of H + log_H N.
        assert worst < backward_worst / 4
        assert worst <= (h - 1) * 6

    def test_no_duplicate_targets_per_plan(self):
        policy = HopEncodingPolicy(2)
        records = [f"R{i}" for i in range(9)]
        actions = policy.plan_extend(records, 8)
        targets = [action.target_id for action in actions]
        assert len(targets) == len(set(targets))

    def test_hop_levels(self):
        policy = HopEncodingPolicy(4)
        assert policy.hop_levels(3) == 0
        assert policy.hop_levels(5) == 1
        assert policy.hop_levels(17) == 2
        assert policy.hop_levels(65) == 3


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("backward", BackwardEncodingPolicy),
            ("hop", HopEncodingPolicy),
            ("version-jumping", VersionJumpingPolicy),
            ("vjump", VersionJumpingPolicy),
        ],
    )
    def test_known_names(self, name, cls):
        assert isinstance(make_policy(name), cls)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_policy("mystery")
