"""`enumerate` output against the writers it replaced, byte for byte.

The reference builds each row from a validated `ColoredPermutation` and its
`DescentProfile`, and writes JSON with `json.dumps(..., indent=2,
sort_keys=True)`, so it shares no fragment cache or string table with the
CLI.
"""
import json

import pytest

from colored_descents import cli
from colored_descents.cli import main
from colored_descents.group import (
    ColoredComposition,
    descent_profile,
    enumerate_group,
    mr_key,
    permutation_to_json,
)
from colored_descents.schemas import SchemaError

# (2,4) and (1,5) give many permutations one value-descent pattern, so a
# row of statistics is reused across them; (3,4) and (4,3) have many color
# vectors with a color change, so one run composition's statistics are
# shared by words of different value-descent patterns
GROUPS = ((1, 0), (1, 3), (2, 3), (3, 3), (4, 2), (2, 4), (1, 5), (3, 4), (4, 3))


def _csv_line(fields):
    return ",".join(str(f) for f in fields) + "\n"


def reference_rows(r, n):
    for rank, pi in enumerate(enumerate_group(r, n)):
        yield rank, pi, descent_profile(pi), mr_key(pi).parts


def reference_json(r, n):
    records = [
        {
            "rank": rank,
            "word": str(pi),
            "permutation": permutation_to_json(pi),
            "descent_set": sorted(profile.descent_set),
            "des": profile.des,
            "intdes": profile.intdes,
            "mr_key": [list(part) for part in parts],
        }
        for rank, pi, profile, parts in reference_rows(r, n)
    ]
    return json.dumps(records, indent=2, sort_keys=True) + "\n"


def reference_csv(r, n):
    lines = [_csv_line(["rank", "word", "descent_set", "des", "intdes", "mr_key"])]
    lines.extend(
        _csv_line([rank, str(pi), " ".join(map(str, sorted(profile.descent_set))),
                   profile.des, profile.intdes, ColoredComposition(parts)])
        for rank, pi, profile, parts in reference_rows(r, n)
    )
    return "".join(lines)


def reference_text(r, n):
    return "".join(
        f"{rank:>6}  {str(pi):<24} Des={sorted(profile.descent_set)} "
        f"des={profile.des} intdes={profile.intdes} "
        f"runs={[list(part) for part in parts]}\n"
        for rank, pi, profile, parts in reference_rows(r, n)
    )


REFERENCES = {"json": reference_json, "csv": reference_csv, "text": reference_text}


@pytest.mark.parametrize("fmt", sorted(REFERENCES))
@pytest.mark.parametrize("r, n", GROUPS, ids=lambda v: str(v))
def test_enumerate_matches_reference_bytes(capsys, r, n, fmt):
    code = main(["enumerate", "--r", str(r), "--n", str(n), "--format", fmt])
    assert code == 0
    assert capsys.readouterr().out == REFERENCES[fmt](r, n)


def test_a_bad_record_stops_the_stream_after_the_good_ones(capsys, monkeypatch):
    real = cli._permutation_block
    calls = []

    def third_is_bad(r, n, letters):
        calls.append(letters)
        return {"r": 0} if len(calls) == 3 else real(r, n, letters)

    monkeypatch.setattr(cli, "_permutation_block", third_is_bad)
    with pytest.raises(SchemaError, match=r"^\$\.permutation: fails required"):
        main(["enumerate", "--r", "2", "--n", "2", "--format", "json"])
    out = capsys.readouterr().out
    assert out.count('"rank"') == 2
    assert reference_json(2, 2).startswith(out)
