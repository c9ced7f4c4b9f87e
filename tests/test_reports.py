from syzkit.reports import CheckReport


class NoDifference:
    """A value whose difference must not be taken."""

    def __eq__(self, other):
        return True

    def __sub__(self, other):
        raise AssertionError("the witness of a passing item was built")


def test_add_equal_builds_no_witness_for_a_passing_item():
    rep = CheckReport()
    item = rep.add_equal("same", NoDifference(), NoDifference())
    assert (item.status, item.witness) == ("pass", None)


def test_add_equal_witnesses_a_failing_item_by_the_difference():
    rep = CheckReport()
    item = rep.add_equal("differ", 7, 3)
    assert (item.status, item.witness) == ("fail", "4")
    assert rep.items == [item] and not rep.passed
