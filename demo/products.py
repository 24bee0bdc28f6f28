"""Products: the width of a product is the minimum of the factor widths.

Fixed components of a product action are pairs of factor components, moment
levels add, and the level right below the top comes from stepping down in
the narrowest factor.  The demo pairs up small Grassmannians, checks the
minimum rule on each pair (and that product_width, which answers from the
factors without building the product, gives the same report), and prints
one worked example in full.
"""

from gromov_width import (
    GrassmannianSpec,
    grassmannian_action,
    gromov_width,
    product_action,
    product_width,
    seidel_structure,
)


def main():
    specs = [GrassmannianSpec(k, m)
             for m in range(2, 7) for k in range(1, m // 2 + 1)]
    actions = {(s.k, s.m): grassmannian_action(s) for s in specs}
    widths = {key: gromov_width(a).width for key, a in actions.items()}

    print("pairwise check of width(A x B) = min(width(A), width(B)):")
    for a in specs:
        row = []
        for b in specs:
            parts = [actions[(a.k, a.m)], actions[(b.k, b.m)]]
            report = gromov_width(product_action(parts))
            assert report.width == min(widths[(a.k, a.m)], widths[(b.k, b.m)])
            assert product_width(parts) == report
            row.append(report.width)
        print(f"  Gr({a.k},{a.m}): {row}")
    print("all pairs agree with the minimum rule and with product_width")
    print()

    prod = product_action([actions[(2, 4)], actions[(1, 2)]])
    report = gromov_width(prod)
    print("worked example Gr(2,4) x Gr(1,2):")
    print(f"  n = {prod.n}, components = {len(prod.components)}")
    print(f"  H_max = {report.H_max} at {report.max_component}")
    print(f"  s = {report.s} at {', '.join(report.second_level_components)}")
    print(f"  width = {report.width}")
    print("  Seidel element:", seidel_structure(prod).formula())


if __name__ == "__main__":
    main()
