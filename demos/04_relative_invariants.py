"""Characters relative to a normal subgroup: restriction, extension,
kernels, and averages over a fixed central character.

For SL2(5) with center Z of order 2, the characters split into those that
factor through the quotient (an A5 worth of them) and the faithful ones
lying over the nonprincipal character of Z.  The faithful degrees are
2, 2, 4, 6 with average 7/2, and that average multiplies across central
products.
"""

from chardeg import (Catalogue, center, character_table, extensions_of,
                     gallagher_check, kernel_subgroup, n_d, acd_over,
                     acd_rel, restrict_character, inner_product, Subgroup)
from chardeg.checks import nonprincipal_chars

cat = Catalogue()

sl25 = cat.group("SL2_5")
t = character_table(sl25)
z = center(sl25)
tz = character_table(z)
lam = nonprincipal_chars(tz)[0]

print("SL2(5), center Z of order 2:")
for d in (1, 2, 4, 6):
    print(f"  n_{d}(G|Z) =", n_d(t, d, modulo=z, mode="relative"))
print("  acd(G|Z)  =", acd_rel(t, z))
print("  acd over the nonprincipal lambda:", acd_over(t, z, tz, lam))

# kernels: every character knows which classes it cannot distinguish
for chi in t.chars:
    k = kernel_subgroup(sl25, chi)
    tag = "faithful" if k.order == 1 else f"kernel of order {k.order}"
    print(f"  degree {chi.degree}: {tag}")

# extension and the multiplication correspondence: A5 inside S5
s5 = cat.group("S5")
a5 = Subgroup(s5, cat.group("A5").generators)
ta5 = character_table(a5)
theta = next(c for c in ta5.chars if c.degree == 5)
extensions = extensions_of(s5, a5, theta)
print(f"\nthe degree-5 character of A5 has {len(extensions)} extensions to S5")

psi = extensions[0]
result = gallagher_check(s5, a5, psi)
print("multiplying the linear characters of S5/A5 into psi:",
      "pass" if result.passed else "fail", "-", result.details[0])

# restriction goes the other way: a character of A5, here reducible
deg6 = next(c for c in character_table(s5).chars if c.degree == 6)
res = restrict_character(s5, deg6, a5)
norm = inner_product(ta5, res, res)
print(f"the degree-6 character of S5 restricted to A5 has norm {norm} "
      "(reducible)")
print("its constituents in Irr(A5) have degrees",
      [theta.degree for theta in ta5.chars
       if inner_product(ta5, res, theta) > 0])
