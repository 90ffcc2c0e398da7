"""Generate the bundled corpus (src/chardeg/corpus/*.grp).

Writes every group definition file, then loads the whole catalogue with
validation as a self-check, and finally freezes engine-computed degree
multisets into the few entries whose degrees are recorded purely as
regression data.  The 3.A6 generators and the 6.A6 epimorphism payloads
come from tools/derive_3a6.py.

Run from the repository root:  python3 tools/gen_corpus.py
"""

import sys
from pathlib import Path

sys.path.insert(0, "src")

from chardeg.chars import character_table
from chardeg.constructions import MatrixGroupSpec
from chardeg.corpusio import Catalogue, GroupSpec, serialize_group_spec
from chardeg.perms import parse_cycles

OUT = Path("src/chardeg/corpus")

# from tools/derive_3a6.py (seeded, reproducible)
GENS_3A6 = [
    "(1 11 18 4 2 15 8 5 3 7 13 6)(9 17 16 12 14 10)",
    "(1 11 4 14 18 3 7 6 9 13 2 15 5 16 8)(10 12 17)",
]
EPIA_6A6 = ["(1 4 3 2)(5 6)", "(1 4)(2 3)", "(1 3 5)(2 6 4)"]
EPIB_6A6 = ["(1 2)(3 4 5 6)", "(1 3 6 5 2)"]


def cyc(points):
    return "(" + " ".join(str(p) for p in points) + ")"


def cycle_range(a, b):
    return cyc(range(a, b + 1))


def dihedral_reflection(n, offset=0):
    pairs = []
    for i in range(2, n // 2 + 2):
        j = n + 2 - i
        if i < j:
            pairs.append((offset + i, offset + j))
    return "".join(cyc(p) for p in pairs)


def perm_entry(name, degree, gens, **expect):
    return GroupSpec(name, "perm", degree=degree,
                     perm_gens=[parse_cycles(g, degree) for g in gens],
                     expect=expect)


def mat_entry(name, p, k, n, gens, action="vectors", poly=None, **expect):
    matrix = MatrixGroupSpec(p, k, n, list(gens), action, poly, name)
    return GroupSpec(name, "mat", matrix=matrix, expect=expect)


def product_entry(name, kind, refs, zm=(), zc=(), epia=(), epib=(), **expect):
    return GroupSpec(name, kind, refs=tuple(refs), zm=list(zm), zc=list(zc),
                     epia=list(epia), epib=list(epib), expect=expect)


def abelian_entries():
    # all abelian groups of order <= 16, by cyclic factor lists
    shapes = {
        "C1": [1], "C2": [2], "C3": [3], "C4": [4], "C2x2": [2, 2],
        "C5": [5], "C6": [6], "C7": [7], "C8": [8], "C4x2": [4, 2],
        "C2x2x2": [2, 2, 2], "C9": [9], "C3x3": [3, 3], "C10": [10],
        "C11": [11], "C12": [12], "C6x2": [6, 2], "C13": [13], "C14": [14],
        "C15": [15], "C16": [16], "C8x2": [8, 2], "C4x4": [4, 4],
        "C4x2x2": [4, 2, 2], "C2x2x2x2": [2, 2, 2, 2],
    }
    out = {}
    for name, factors in shapes.items():
        degree = sum(factors)
        gens = []
        start = 1
        for f in factors:
            if f > 1:
                gens.append(cycle_range(start, start + f - 1))
            start += f
        order = 1
        for f in factors:
            order *= f
        out[name] = perm_entry(name, degree, gens, order=order, center=order,
                               solvable=True)
    return out


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    files = {}
    files.update(abelian_entries())

    # ---- nonabelian solvable -------------------------------------------
    files["S3"] = perm_entry("S3", 3, ["(1 2 3)", "(1 2)"],
                             order=6, center=1, solvable=True)
    files["D8"] = perm_entry("D8", 4, ["(1 2 3 4)", "(2 4)"],
                             order=8, center=2, solvable=True)
    files["Q8"] = perm_entry(
        "Q8", 8, ["(1 2 3 4)(5 8 7 6)", "(1 5 3 7)(2 6 4 8)"],
        order=8, center=2, solvable=True)
    files["D10"] = perm_entry("D10", 5,
                              ["(1 2 3 4 5)", dihedral_reflection(5)],
                              order=10, center=1, solvable=True)
    files["A4"] = perm_entry("A4", 4, ["(1 2 3)", "(2 3 4)"],
                             order=12, center=1, solvable=True)
    files["D12"] = perm_entry("D12", 6,
                              [cycle_range(1, 6), dihedral_reflection(6)],
                              order=12, center=2, solvable=True)
    files["Q12"] = perm_entry(
        "Q12", 12,
        ["(1 2 3 4 5 6)(7 12 11 10 9 8)", "(1 7 4 10)(2 8 5 11)(3 9 6 12)"],
        order=12, center=2, solvable=True)
    files["D14"] = perm_entry("D14", 7,
                              [cycle_range(1, 7), dihedral_reflection(7)],
                              order=14, center=1, solvable=True)
    files["D16"] = perm_entry("D16", 8,
                              [cycle_range(1, 8), dihedral_reflection(8)],
                              order=16, center=2, solvable=True)
    files["Q16"] = perm_entry(
        "Q16", 16,
        ["(1 2 3 4 5 6 7 8)(9 16 15 14 13 12 11 10)",
         "(1 9 5 13)(2 10 6 14)(3 11 7 15)(4 12 8 16)"],
        order=16, center=2, solvable=True)
    files["SD16"] = perm_entry(
        "SD16", 8, [cycle_range(1, 8), "(2 4)(3 7)(6 8)"],
        order=16, center=2, solvable=True)
    files["C3xS3"] = product_entry("C3xS3", "direct", ["C3", "S3"],
                                   order=18, center=3, solvable=True)
    files["D18"] = perm_entry("D18", 9,
                              [cycle_range(1, 9), dihedral_reflection(9)],
                              order=18, center=1, solvable=True)
    files["D20"] = perm_entry("D20", 10,
                              [cycle_range(1, 10), dihedral_reflection(10)],
                              order=20, center=2, solvable=True)
    files["F20"] = perm_entry("F20", 5, ["(1 2 3 4 5)", "(2 3 5 4)"],
                              order=20, center=1, solvable=True)
    files["F21"] = perm_entry("F21", 7, [cycle_range(1, 7), "(2 3 5)(4 7 6)"],
                              order=21, center=1, solvable=True)
    files["C2xA4"] = product_entry("C2xA4", "direct", ["C2", "A4"],
                                   order=24, center=2, solvable=True)
    files["S4"] = perm_entry("S4", 4, ["(1 2 3 4)", "(1 2)"],
                             order=24, center=1, solvable=True)
    files["SL2_3"] = mat_entry("SL2_3", 3, 1, 2,
                               [(1, 1, 0, 1), (0, 1, 2, 0)],
                               order=24, center=2, solvable=True)
    files["C3sC8"] = perm_entry(
        "C3sC8", 11, ["(1 2 3 4 5 6 7 8)(10 11)", "(9 10 11)"],
        order=24, center=4, solvable=True)
    files["D24"] = perm_entry("D24", 12,
                              [cycle_range(1, 12), dihedral_reflection(12)],
                              order=24, center=2, solvable=True)
    files["E27"] = mat_entry(
        "E27", 3, 1, 3,
        [(1, 1, 0, 0, 1, 0, 0, 0, 1), (1, 0, 0, 0, 1, 1, 0, 0, 1)],
        order=27, center=3, solvable=True)
    files["D8oQ8"] = product_entry(
        "D8oQ8", "central", ["D8", "Q8"],
        zm=[("perm", "(1 3)(2 4)")],
        zc=[("perm", "(1 3)(2 4)(5 7)(6 8)")],
        order=32, center=2, solvable=True)
    files["F42"] = perm_entry("F42", 7, [cycle_range(1, 7), "(2 4 3 7 5 6)"],
                              order=42, center=1, solvable=True)
    files["F55"] = perm_entry("F55", 11,
                              [cycle_range(1, 11), "(2 4 10 6 5)(3 7 8 11 9)"],
                              order=55, center=1, solvable=True)

    # ---- nonsolvable ----------------------------------------------------
    files["A5"] = perm_entry("A5", 5, ["(1 2 3 4 5)", "(1 2 3)"],
                             order=60, center=1, perfect=True, solvable=False,
                             degrees=(1, 3, 3, 4, 5))
    files["C2xA5"] = product_entry("C2xA5", "direct", ["C2", "A5"],
                                   order=120, center=2, solvable=False)
    files["S5"] = perm_entry("S5", 5, ["(1 2 3 4 5)", "(1 2)"],
                             order=120, center=1, solvable=False,
                             degrees=(1, 1, 4, 4, 5, 5, 6))
    files["SL2_5"] = mat_entry(
        "SL2_5", 5, 1, 2, [(1, 1, 0, 1), (2, 0, 0, 3), (0, 1, 4, 0)],
        order=120, center=2, perfect=True, solvable=False,
        degrees=(1, 2, 2, 3, 3, 4, 4, 5, 6),
        quotient_center_sizes=(1, 15, 20, 12, 12))
    files["PSL2_7"] = mat_entry(
        "PSL2_7", 7, 1, 2, [(1, 1, 0, 1), (3, 0, 0, 5), (0, 1, 6, 0)],
        action="projective",
        order=168, center=1, perfect=True, solvable=False,
        degrees=(1, 3, 3, 6, 7, 8))
    files["SL2_7"] = mat_entry(
        "SL2_7", 7, 1, 2, [(1, 1, 0, 1), (3, 0, 0, 5), (0, 1, 6, 0)],
        order=336, center=2, perfect=True, solvable=False,
        degrees=(1, 3, 3, 4, 4, 6, 6, 6, 7, 8, 8))
    files["PGL2_7"] = mat_entry(
        "PGL2_7", 7, 1, 2,
        [(1, 1, 0, 1), (3, 0, 0, 5), (0, 1, 6, 0), (3, 0, 0, 1)],
        action="projective",
        order=336, center=1, solvable=False,
        degrees=(1, 1, 6, 6, 6, 7, 7, 8, 8))
    files["A6"] = perm_entry("A6", 6, ["(1 2 3 4 5)", "(4 5 6)"],
                             order=360, center=1, perfect=True, solvable=False,
                             degrees=(1, 5, 5, 8, 8, 9, 10))
    files["S6"] = perm_entry("S6", 6, ["(1 2 3 4 5 6)", "(1 2)"],
                             order=720, center=1, solvable=False,
                             degrees=(1, 1, 5, 5, 5, 5, 9, 9, 10, 10, 16))
    files["PSL2_11"] = mat_entry(
        "PSL2_11", 11, 1, 2, [(1, 1, 0, 1), (2, 0, 0, 6), (0, 1, 10, 0)],
        action="projective",
        order=660, center=1, perfect=True, solvable=False,
        degrees=(1, 5, 5, 10, 10, 11, 12, 12))
    files["2A6"] = mat_entry(
        "2A6", 3, 2, 2, [(1, 1, 0, 1), (3, 0, 0, 5), (0, 1, 2, 0)],
        poly=(2, 2, 1),
        order=720, center=2, perfect=True, solvable=False,
        degrees=(1, 4, 4, 5, 5, 8, 8, 8, 8, 9, 10, 10, 10),
        quotient_center_sizes=(1, 45, 40, 40, 90, 72, 72))
    files["3A6"] = perm_entry(
        "3A6", 18, GENS_3A6,
        order=1080, center=3, perfect=True, solvable=False,
        degrees=(1, 3, 3, 3, 3, 5, 5, 6, 6, 8, 8, 9, 9, 9, 10, 15, 15),
        quotient_center_sizes=(1, 45, 40, 40, 90, 72, 72))
    files["PSL2_13"] = mat_entry(
        "PSL2_13", 13, 1, 2, [(1, 1, 0, 1), (2, 0, 0, 7), (0, 1, 12, 0)],
        action="projective",
        order=1092, center=1, perfect=True, solvable=False,
        degrees=(1, 7, 7, 12, 12, 12, 13, 14, 14))
    files["6A6"] = product_entry(
        "6A6", "fiber", ["2A6", "3A6", "A6"],
        epia=EPIA_6A6, epib=EPIB_6A6,
        order=2160, center=6, center_cyclic=True, perfect=True,
        solvable=False)
    files["SL25oC4"] = product_entry(
        "SL25oC4", "central", ["SL2_5", "C4"],
        zm=[("mat", "4 0 0 4")], zc=[("perm", "(1 3)(2 4)")],
        order=240, center=4, solvable=False)
    files["SL25oQ8"] = product_entry(
        "SL25oQ8", "central", ["SL2_5", "Q8"],
        zm=[("mat", "4 0 0 4")], zc=[("perm", "(1 3)(2 4)(5 7)(6 8)")],
        order=480, center=2, solvable=False)
    files["A5xA5"] = product_entry(
        "A5xA5", "direct", ["A5", "A5"],
        order=3600, center=1, solvable=False,
        degrees=(1, 3, 3, 3, 3, 4, 4, 5, 5, 9, 9, 9, 9, 12, 12, 12, 12,
                 15, 15, 15, 15, 16, 20, 20, 25))
    files["A7"] = perm_entry("A7", 7, ["(1 2 3 4 5 6 7)", "(5 6 7)"],
                             order=2520, center=1, perfect=True,
                             solvable=False,
                             degrees=(1, 6, 10, 10, 14, 14, 15, 21, 35))

    for name, spec in files.items():
        (OUT / f"{name}.grp").write_text(serialize_group_spec(spec))
    print(f"wrote {len(files)} corpus files")

    print("validating the whole catalogue (builds every group)...")
    cat = Catalogue(OUT)
    entries = cat.load_all()
    print(f"validated {len(entries)} entries")

    # freeze engine degrees for entries without independently known lists
    for name in ("6A6", "SL25oC4", "SL25oQ8"):
        entry = cat.entry(name)
        degs = tuple(character_table(entry.group).degrees())
        spec = entry.spec
        spec.expect["degrees"] = degs
        (OUT / f"{name}.grp").write_text(serialize_group_spec(spec))
        print(f"{name} degrees: {degs}")


if __name__ == "__main__":
    main()
