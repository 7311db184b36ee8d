"""Built-in corpus of published single-state and near-single-state lattices.

Each entry carries the MMP line and the properties claimed for it
(state-space classification, self-duality, strong-set admission, element
count).  ``73-73`` drops the first five blocks of Weber's 73-78 diagram;
``73-78-single`` drops the fourth atom of its first block.  Both are
stored literally and re-derived in tests as a transcription cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .diagram import MmpDiagram, parse_mmp

EXACTLY_ONE = "ExactlyOne"
MORE_THAN_ONE = "MoreThanOne"

_THIRD = Fraction(1, 3)


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    mmp_line: str
    state_classification: str | None = None
    unique_state_value: Fraction | None = None
    self_dual: bool | None = None
    admits_strong_set: bool | None = None
    element_count: int | None = None

    def diagram(self) -> MmpDiagram:
        return parse_mmp(self.mmp_line)


def _line(blocks: list[str]) -> str:
    return ",".join(blocks) + "."


_35_35A = _line(
    "XYZ Z5J JNK KFP P38 8L7 7T9 9GW WVU UE6 6M1 1R2 2CQ QHI ISD DAX RST OPQ LMN GIM "
    "EKT BCL 9AO 56O 34R 4AN 5BS BFW 2JV 4HU 8DV 7HZ 3GY 1FX CEY".split()
)

_35_35B = _line(
    "YXZ Z3J JTK KNG GU6 65R R9A AWE EMI IFQ Q2B BCS S87 7O1 1VH H4Y UVW RST OPQ LMN "
    "HIT DKP 48L 36O 25L 3CM 4AP 19N 2JW CDV 8FU BGY 9FZ 7EX 5DX".split()
)

_35_35C = _line(
    "YXZ ZFH HIM MLN NKJ J4S SB3 3P9 91U UVW WTQ QAG GCE E67 7O2 28Y RST OPQ FGK DEI "
    "ABM 89K 5LP 4HO 5FR 5DV 4CU 17R 2BV 8IT 6NW CLY DJX 1AX 36Z".split()
)

_35_35D = _line(
    "XYZ ZFH HIM MLN NJK K8T TWQ QAE EGC C4U U92 2S7 7P1 1VB BR3 36X UVW RST OPQ FGK "
    "DEI ABN 89I 67G 5LS 4JP 4HR 5FO 5DV 39O 6MW CLY DJX 2AZ 18Y".split()
)

_35_35E = _line(
    "XYZ Z3H HIT TKJ J1V VE8 8S7 72L LMN N4C CFU UGA A9R R56 6WD DBX UVW RST OPQ GIQ "
    "FKP EIN DKM BCS 46O 38O 15L 3AM 1BQ 29P 2HW 4JY 9EX 7GY 5FZ".split()
)

_36_36 = _line(
    "XWY YTS SLP PQ7 7RO OZJ J5B BN8 82F FCV VH4 416 6IA A9M MK3 3GU UDE EaX NRX MQW "
    "LUZ KVa KOT IPa GHY FWZ BDQ ACR 9HJ 8GI 6DT 5CS 4LN 29E 135 127".split()
)

_38_38A = _line(
    "abc c12 2L9 98J JHU UPQ QKS SNO O7Y YXZ ZWV VA5 5T4 4MB BCD DIF FEG GR3 36a TUY "
    "RSW LMQ IJW AGH EMZ 69X DKX 3CP 8CO 46N 7AL 1FN 1PV 2RT 5Kb 8Eb 7Ia BHc".split()
)

_38_38B = _line(
    "bac cF3 3SX XI7 7GV VR1 14L LZM M9T TNO OAW WPQ QJB BCH HDE E5Y Y2U UK6 68b XYZ "
    "UVW RST IJK FGH 8QZ 6CS 34P 24N 8GN 9EP ACL 5JR DIO FKM 1Db 2Ba 5Ac 79a".split()
)

_38_38C = _line(
    "abc c65 5ET TZU U1F FGH H4K KLW WIJ J7C CAB BV9 93N NMY YDP POS SQR RX8 82a XYZ "
    "VWZ DEJ 89E 6SV 7HX 5AL AGP 2CM 6FM INQ 2KO 1LR 4QT 3OU 1Db GIa 4Bb 37c".split()
)

_38_38D = _line(
    "cba a95 5FQ QUP PM2 2AV VWZ ZYX X47 76E E3T TN8 8IB B1S SDH HJO OKL LRC CGc TUY "
    "RSW MNO IJZ GHU DEF CFI 9AB 7AG 9LY 5NW 1MX 3KV 4KQ 6PR 13c 2Db 48b 6Ja".split()
)

_38_38E = _line(
    "acb b59 9SR RG8 83V VWU U1P POY YCN NML LQ2 2FT T7X XAE EDH H6I IKJ JZB B4a XYZ "
    "STW QRZ FGH CKW 9DN 78M 5AK 4AL BDV 5FP 1JM 3IO 6QU 4OS 23c 67b 1Ec CGa".split()
)

_38_38F = _line(
    "XZY YTO OA2 24a a13 3E6 6SH HFb b97 7C8 8QJ JKW WUV VRP PDM MLN NIB Bc5 5GX abc "
    "STW QRZ HIZ FGV DEY BCT 9AR 56A 48G 2IU 1KX 1CP 7EU 9KN FLO 4MS 3LQ DJc".split()
)

_38_38G = _line(
    "bac c2J JKY YUT T3D DCE EFR R9H HZI I57 7G6 6XN NOQ QWP P8A A1L LMS SV4 4Bb XYZ "
    "VWZ RSU FGW 9AB 8EK 5PU 3MQ BGT 2DV 4KO 1IO 29N 7JM CLX 5Cb 68a 1Fc 3Ha".split()
)

_38_38H = _line(
    "abc c1K KLX XMN N94 43U UZT T6D DGA AVI IJS SPQ QWO O2H H78 8BF FRC C5a XYZ VWZ "
    "RSY GHY EFW CDL 9AB 6NQ 57M EJM 3LO 14R BKP 2JT 17V 5PU 68b 29a EGc 3Ib".split()
)

_44_44 = _line(
    "123 345 567 789 9AB BCD DEF FGH HIJ JKL LMN NOP PQR RST TUV VWX XYZ Zab bcd def "
    "fgh hi1 c1E e3G g5I i7K 29M 4BO 6DQ 8FS AHU CJW ELY GNa IPc KRe MTg OVi QX2 SZ4 "
    "Ub6 Wd8 YfA ahC".split()
)

# Weber's 73-78 without group-valued states: the one corpus diagram with a
# four-atom block ("123/").
_WEBER_BLOCKS = [
    "123/", "345", "567", "789", "9AB", "BC1",
    "PQR", "RST", "TUV", "VWX", "XYZ", "ZaP",
    "nop", "pqr", "rst", "tuv", "vwx", "xyn",
    "DEF", "FGH", "HIJ", "JKL", "LMN", "NOD",
    "bcd", "def", "fgh", "hij", "jkl", "lmb",
    "z!\"", "\"#$", "$%&", "&'(", "()*", "*-z",
    "/EK", "28G", "3IO", "4AF", "6CH",
    "Pci", "QWe", "Rgm", "SYd", "Uaf",
    "n!'", "ou#", "p%-", "qw\"", "sy$",
    "1Pn", "1Vk", "2Sq", "2hu", "3bs", "4Qv", "4Up", "4Yj", "5gz",
    "6Sy", "6W(", "6al", "7cw", "8Q$", "9Tt", "9Z)", "Am#", "Bd%",
    "DT!", "Eer", "Fc*", "GXx", "IZ\"", "Jf'", "LWo", "Mgx", "Mk&",
]

_73_78_NGV = _line(_WEBER_BLOCKS)

# The 73-73: Weber's diagram with its first five blocks dropped.
_73_73 = _line(
    [
        "BC1",
        "PQR", "RST", "TUV", "VWX", "XYZ", "ZaP",
        "nop", "pqr", "rst", "tuv", "vwx", "xyn",
        "DEF", "FGH", "HIJ", "JKL", "LMN", "NOD",
        "bcd", "def", "fgh", "hij", "jkl", "lmb",
        "z!\"", "\"#$", "$%&", "&'(", "()*", "*-z",
        "/EK", "28G", "3IO", "4AF", "6CH",
        "Pci", "QWe", "Rgm", "SYd", "Uaf",
        "n!'", "ou#", "p%-", "qw\"", "sy$",
        "1Pn", "1Vk", "2Sq", "2hu", "3bs", "4Qv", "4Up", "4Yj", "5gz",
        "6Sy", "6W(", "6al", "7cw", "8Q$", "9Tt", "9Z)", "Am#", "Bd%",
        "DT!", "Eer", "Fc*", "GXx", "IZ\"", "Jf'", "LWo", "Mgx", "Mk&",
    ]
)

# The single-state 73-78 variety: Weber's diagram with "/" dropped from the
# first block, leaving it 3-uniform.
_73_78_SINGLE = _line(["123"] + _WEBER_BLOCKS[1:])


# First two states of 35-35e found by state scanning, in atom order 1..Z.
KNOWN_STATES: dict[str, tuple[tuple[Fraction, ...], ...]] = {
    "35-35e": (
        tuple(
            Fraction(*pair)
            for pair in [
                (1, 6), (1, 2), (1, 2), (1, 6), (1, 2), (1, 2), (1, 6), (1, 6), (1, 2),
                (1, 2), (1, 6), (1, 6), (1, 2), (1, 6), (1, 2), (1, 6), (1, 2), (1, 6),
                (1, 6), (1, 2), (1, 3), (0, 1), (2, 3), (1, 3), (0, 1), (2, 3), (0, 1),
                (2, 3), (1, 3), (1, 3), (2, 3), (0, 1), (1, 3), (2, 3), (0, 1),
            ]
        ),
        tuple(
            Fraction(*pair)
            for pair in [
                (1, 2), (1, 6), (1, 6), (1, 2), (1, 6), (1, 6), (1, 2), (1, 2), (1, 6),
                (1, 6), (1, 2), (1, 2), (1, 6), (1, 2), (1, 6), (1, 2), (1, 6), (1, 2),
                (1, 2), (1, 6), (1, 3), (2, 3), (0, 1), (1, 3), (2, 3), (0, 1), (2, 3),
                (0, 1), (1, 3), (1, 3), (0, 1), (2, 3), (1, 3), (0, 1), (2, 3),
            ]
        ),
    ),
}


ENTRIES: tuple[CorpusEntry, ...] = (
    CorpusEntry("35-35a", _35_35A, EXACTLY_ONE, _THIRD, False, False, 72),
    CorpusEntry("35-35b", _35_35B, EXACTLY_ONE, _THIRD, False, False, 72),
    CorpusEntry("35-35c", _35_35C, EXACTLY_ONE, _THIRD, False, False, 72),
    CorpusEntry("35-35d", _35_35D, EXACTLY_ONE, _THIRD, False, False, 72),
    CorpusEntry("35-35e", _35_35E, MORE_THAN_ONE, None, True, False, 72),
    CorpusEntry("36-36", _36_36, EXACTLY_ONE, _THIRD, True, False, 74),
    CorpusEntry("38-38a", _38_38A, EXACTLY_ONE, _THIRD, True, False, 78),
    CorpusEntry("38-38b", _38_38B, EXACTLY_ONE, _THIRD, True, False, 78),
    CorpusEntry("38-38c", _38_38C, EXACTLY_ONE, _THIRD, True, False, 78),
    CorpusEntry("38-38d", _38_38D, EXACTLY_ONE, _THIRD, True, False, 78),
    CorpusEntry("38-38e", _38_38E, EXACTLY_ONE, _THIRD, True, False, 78),
    CorpusEntry("38-38f", _38_38F, EXACTLY_ONE, _THIRD, True, False, 78),
    CorpusEntry("38-38g", _38_38G, EXACTLY_ONE, _THIRD, True, False, 78),
    CorpusEntry("38-38h", _38_38H, EXACTLY_ONE, _THIRD, True, False, 78),
    CorpusEntry("44-44", _44_44, EXACTLY_ONE, _THIRD, None, False, 90),
    CorpusEntry("73-78-ngv", _73_78_NGV, None, None, None, None, 154),
    CorpusEntry("73-78-single", _73_78_SINGLE, EXACTLY_ONE, _THIRD, None, False, 148),
    CorpusEntry("73-73", _73_73, EXACTLY_ONE, _THIRD, None, False, 148),
)

_BY_NAME = {e.name: e for e in ENTRIES}

#: Entries whose whole state space is the single uniform-1/3 state.
SINGLE_STATE_NAMES = tuple(e.name for e in ENTRIES if e.state_classification == EXACTLY_ONE)


def names() -> tuple[str, ...]:
    return tuple(e.name for e in ENTRIES)


def get(name: str) -> CorpusEntry:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown corpus entry {name!r}; known: {', '.join(names())}") from None


def diagram(name: str) -> MmpDiagram:
    return get(name).diagram()
