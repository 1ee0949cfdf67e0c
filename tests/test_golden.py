"""Byte-for-byte output of every non-``factors`` verb on the bundled panels.

Each case is an argv and the sha256 of what ``foi`` prints for it. The
digests pin the exact bytes, so a rewrite of the reader, writer, pillar
aggregation or renderers that changes one printed digit fails here.
``{scores}`` and ``{assignments}`` stand for JSON documents written by
``indices`` and ``classify`` for ``export`` to re-render.
"""

import hashlib
from pathlib import Path
from importlib import resources

import pytest

from foi import pillar
from foi.cli import main

DATA = resources.files("foi.data")
PANEL = {e: str(DATA / f"demo_panel_{e}.csv") for e in (2010, 2020)}

GOLDEN = {
    ("ingest", "--panel", PANEL[2010], "--epoch", "2010", "--format", "table"):
        "73eed6e1533a6c80d05e09ca6591a0871e7049c4eacfd9ccd0f1faaf364d7c88",
    ("ingest", "--panel", PANEL[2010], "--epoch", "2010", "--format", "json"):
        "b608937a5acf7bb950ae91802ae2f1294ca917dbd8f8f527e9d5f48d1c4c8a8e",
    ("ingest", "--panel", PANEL[2020], "--epoch", "2020", "--format", "table"):
        "4ad28004579e6623bdb425223aefd5337c317fc9597ce7d630cad7d2f2dfe233",
    ("ingest", "--panel", PANEL[2020], "--epoch", "2020", "--format", "json"):
        "4fea42624e9e9d13ec9a1b1db12a36a3b3eea55be0a35f9550430f317f6c6a95",
    ("rescale", "--panel", PANEL[2010]):
        "10ca90579b83ad7a8c3a44f28d5a3bc5f310c509fd9a4a3263304238bff91425",
    ("rescale", "--panel", PANEL[2020]):
        "e51a568eae594aec20abfdf3db829fddee2e14c4a3510bdffe039fc35e36a9dc",
    ("indices", "--panel", PANEL[2010], "--epoch", "2010", "--format", "table"):
        "57d3f9e96d8f0312bb07fcf1280e67e98334854f1893592e22035fc269cac3b9",
    ("indices", "--panel", PANEL[2010], "--epoch", "2010", "--format", "csv"):
        "797f8fe0b4589f15cbc7d11a826400296627c771a2cdb0ec1cb72a8d86b511cf",
    ("indices", "--panel", PANEL[2010], "--epoch", "2010", "--format", "json"):
        "e5a9e01071cc2e487f70257a27e68462fa76c873a3877aefb740414bfb5f0046",
    ("indices", "--panel", PANEL[2020], "--epoch", "2020", "--format", "table"):
        "41b5edfe1b9b29c23acf2a06e376f9c4b16c087e60885c8d4ceb26aaf0167736",
    ("indices", "--panel", PANEL[2020], "--epoch", "2020", "--format", "csv"):
        "c75583c22609f6f7b57c8c52315fdbee73342f6ba68d95a5ed31d10c3536f58e",
    ("indices", "--panel", PANEL[2020], "--epoch", "2020", "--format", "json"):
        "3bd9b9ea511629b799a93a4d8af67721f07bb96ac3fae657a70d56ccaeba0720",
    ("indices", "--panel", PANEL[2010], "--missing-policy", "strict", "--format", "table"):
        "37f3001e1cdf3b5fdfc72377f8404015e80412b5e1dc4dd8f1fb3f887126a2fc",
    ("indices", "--panel", PANEL[2010], "--missing-policy", "strict", "--format", "csv"):
        "93c5169af60f405257e7624f63c957c9c1a3f71f6bd765ff6735330906625135",
    ("indices", "--panel", PANEL[2010], "--missing-policy", "strict", "--format", "json"):
        "1a247d61700092052524d447285d742c888a6d8eb3bdb4711aa6c263c4f9cdef",
    ("indices", "--panel", PANEL[2020], "--missing-policy", "strict", "--format", "table"):
        "4c3b2be2f8d74290acf48d0528399d655ecc10a76e0afcf8b2e4df787e3b48c1",
    ("indices", "--panel", PANEL[2020], "--missing-policy", "strict", "--format", "csv"):
        "77ebd7dbaaf469860948b17e0a04805b5027798b3a029f7c4e675176ba47df27",
    ("indices", "--panel", PANEL[2020], "--missing-policy", "strict", "--format", "json"):
        "9780b4ae89a63a8ff4c9e6964c306a11b9cf0a0e5a4bc9996204c4f010eeb2d5",
    ("classify", "--panel", PANEL[2010], "--epoch", "2010", "--format", "table"):
        "37e27f1100b8800d461ff291292cc96af10ebc1ae7bcc0f7e57cc465da51ca23",
    ("classify", "--panel", PANEL[2010], "--epoch", "2010", "--format", "csv"):
        "329a162c5832b77aab41bd2467f510a588b801fb7569fe65fd583bc0caaa755f",
    ("classify", "--panel", PANEL[2010], "--epoch", "2010", "--format", "json"):
        "edd18430dde9b2ab278ec119a1037ec33cf19393acacf1d36aeb6d222c3a25e8",
    ("classify", "--panel", PANEL[2020], "--epoch", "2020", "--format", "table"):
        "a46fcfc1e24ee0b9f7b895af0743da5878456e1f8082283a4ddd6e9ce81adcbf",
    ("classify", "--panel", PANEL[2020], "--epoch", "2020", "--format", "csv"):
        "e97d6c4b584e324337a4c94db8034a6a9dfa3531c1a075dc8ed6d4041eeb8860",
    ("classify", "--panel", PANEL[2020], "--epoch", "2020", "--format", "json"):
        "ec90c0d3f7ea6b5fb561793c5183a8e1e8709c95656fbf185d2f8a70bbb5db62",
    ("classify", "--panel", PANEL[2020], "--threshold", "3.5", "--epsilon", "0.3"):
        "158c808e3b30d327c742ae91cc70443011cf7d9ac6da5e54a28a98c543ee0ee1",
    ("shift", "--panel-a", PANEL[2010], "--panel-b", PANEL[2020], "--epoch-a", "2010",
     "--epoch-b", "2020", "--format", "table"):
        "48ad42c48c736c7122d58106596e8038f9854afb6b02aef347c97db737d3213b",
    ("shift", "--panel-a", PANEL[2010], "--panel-b", PANEL[2020], "--epoch-a", "2010",
     "--epoch-b", "2020", "--format", "csv"):
        "825fc54cf6e993294ef07ed44a61b6e4d616b692b7d950f735b0fb18630a58c0",
    ("shift", "--panel-a", PANEL[2010], "--panel-b", PANEL[2020], "--epoch-a", "2010",
     "--epoch-b", "2020", "--format", "json"):
        "17a9dd82acbd49cae8fa8402d29e95faaffeec7969e057a4d47e52751dd2e3ea",
    ("verify", "--epoch", "2010", "--format", "table"):
        "2c9c4cbfe66b480cf3490c399620d7a756d71a371653e587be200f425763a3ac",
    ("verify", "--epoch", "2010", "--format", "json"):
        "68b093faf75c2eaa12e5e5cf23ffe821ed7fe3626889196955feac2bd6d1293f",
    ("verify", "--epoch", "2020", "--format", "table"):
        "66e88e38ef48397ed1a1cca8782507c84a95711d296ea57c8bae0712ba792a7a",
    ("verify", "--epoch", "2020", "--format", "json"):
        "dd3ef9cbef9816f8454f767d0b3295f46580d08e19f4e513fc9916dbc7b96f6d",
    ("export", "--in", "{scores}", "--format", "table"):
        "41b5edfe1b9b29c23acf2a06e376f9c4b16c087e60885c8d4ceb26aaf0167736",
    ("export", "--in", "{scores}", "--format", "csv"):
        "c75583c22609f6f7b57c8c52315fdbee73342f6ba68d95a5ed31d10c3536f58e",
    ("export", "--in", "{scores}", "--format", "json"):
        "3bd9b9ea511629b799a93a4d8af67721f07bb96ac3fae657a70d56ccaeba0720",
    ("export", "--in", "{assignments}", "--format", "table"):
        "a46fcfc1e24ee0b9f7b895af0743da5878456e1f8082283a4ddd6e9ce81adcbf",
    ("export", "--in", "{assignments}", "--format", "csv"):
        "e97d6c4b584e324337a4c94db8034a6a9dfa3531c1a075dc8ed6d4041eeb8860",
    ("export", "--in", "{assignments}", "--format", "json"):
        "ec90c0d3f7ea6b5fb561793c5183a8e1e8709c95656fbf185d2f8a70bbb5db62",
}


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    docs = {"scores": tmp / "scores.json", "assignments": tmp / "assignments.json"}
    assert main(["indices", "--panel", PANEL[2020], "--epoch", "2020", "--format", "json",
                 "--out", str(docs["scores"])]) == 0
    assert main(["classify", "--panel", PANEL[2020], "--epoch", "2020", "--format", "json",
                 "--out", str(docs["assignments"])]) == 0
    return {k: str(v) for k, v in docs.items()}


def printed(capsys, argv) -> bytes:
    code = main(list(argv))
    out = capsys.readouterr()
    assert code == 0 and out.err == ""
    return out.out.encode("utf-8")


@pytest.mark.parametrize("argv", list(GOLDEN), ids=lambda a: " ".join(Path(x).name for x in a))
def test_output_bytes_unchanged(capsys, documents, argv):
    text = printed(capsys, [a.format(**documents) for a in argv])
    assert hashlib.sha256(text).hexdigest() == GOLDEN[argv]


@pytest.mark.parametrize("epoch", (2010, 2020))
def test_rescale_out_file_matches_stdout(capsys, tmp_path, epoch):
    out = tmp_path / "rescaled.csv"
    assert main(["rescale", "--panel", PANEL[epoch], "--out", str(out)]) == 0
    assert out.read_bytes() == printed(capsys, ("rescale", "--panel", PANEL[epoch]))


@pytest.mark.parametrize("argv", [a for a in GOLDEN if a[0] in ("classify", "shift")],
                         ids=lambda a: " ".join(Path(x).name for x in a))
def test_classify_and_shift_do_not_rank(monkeypatch, capsys, argv):
    # they print no rank, so they have no rank to compute
    def refuse(scores):
        raise AssertionError("rank_countries called")

    monkeypatch.setattr(pillar, "rank_countries", refuse)
    assert hashlib.sha256(printed(capsys, argv)).hexdigest() == GOLDEN[argv]
