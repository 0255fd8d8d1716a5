"""Oriented distance between points of a line, on the smallest geometry.

The isometries fixing the frame and one line form a small group; its
index-2 oriented part acts simply transitively on each point stratum of
the line, so "the element carrying p to q" is a well-defined distance.
"""

import itertools

from char2conf import (
    Arf, GF2Field, build_geometry, classify_cycle, distance, line_group,
    oriented_distance, ort_plus, point_orbit, projective_reps, quadric_points,
)

f = GF2Field(1)
e = Arf.finite(f.arf_e())
g = build_geometry(f, e, e)
print("geometry: elliptic over GF(2)")

lines = [c for c in projective_reps(f, 6)
         if (lambda fl: fl.hypercycle and fl.line and fl.independent
             and not fl.ideal)(classify_cycle(g, c))]
print("independent non-ideal lines found:", len(lines))

ell = (1, 0, 0, 1, 0, 1)
grp = ort_plus(line_group(g, ell))
print("chosen line:", ell, "-> oriented group of order", grp.order)

orbit = point_orbit(g, ell, Arf.finite(0))
print("points on the line (ratio-0 stratum):",
      [p.rep for p in orbit])

print("\npairwise oriented distances (as group elements):")
for p1, p2 in itertools.product(orbit, orbit):
    gamma = oriented_distance(g, ell, p1, p2)
    print("  %s -> %s : %s" % (p1.rep, p2.rep, gamma))

print("\nforgetting orientation folds inverse pairs together:")
classes = {distance(g, ell, p1, p2)
           for p1, p2 in itertools.product(orbit, orbit)}
print(len(classes), "distance classes on this line")

# over GF(8) the stabilizer of the frame and the line is the line group
# itself, so the ratio-0 stratum comes from mapping one point through it
f8 = GF2Field(3)
e8 = Arf.finite(f8.arf_e())
g8 = build_geometry(f8, e8, e8)
ell8 = next(c.rep for c in quadric_points(g8)
            if (lambda fl: fl.line and fl.real and fl.independent
                and not fl.ideal)(classify_cycle(g8, c)))
grp8 = ort_plus(line_group(g8, ell8))
print("\ngeometry: elliptic over GF(8); line", ell8,
      "-> oriented group of order", grp8.order)
orbit8 = point_orbit(g8, ell8, Arf.finite(0))
print("points on the line (ratio-0 stratum):", len(orbit8))
print("pairwise distances from the first point (as distance classes):")
for p in orbit8:
    pair = distance(g8, ell8, orbit8[0], p).pair
    print("  %s -> %s : %s" % (orbit8[0].rep, p.rep, pair))
classes8 = {distance(g8, ell8, p1, p2)
            for p1, p2 in itertools.product(orbit8, orbit8)}
print(len(classes8), "distance classes over all",
      len(orbit8) ** 2, "pairs on this line")
