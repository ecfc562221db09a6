/* Connected-component labels by union-find over the edge arrays.
 *
 * A port of ``repro.graph.properties._components_reference``: the labels
 * must be the same bytes. Components are numbered in the order of their
 * smallest vertex, the order a BFS seeded from vertex 0 upward finds
 * them. Width-independent (int64 in and out), so ``kernels.c`` includes
 * it once.
 *
 * ``label`` is the only scratch: it holds the union-find parents first.
 * Every root is its component's smallest vertex (the larger root is
 * linked under the smaller, and path halving only points a vertex at an
 * ancestor), so a parent never exceeds its child; one ascending pass
 * then points every vertex at its root, and a second replaces roots by
 * their rank and the rest by their root's label.
 */

static i64 uf_find(i64 *parent, i64 x)
{
    while (parent[x] != x) {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    return x;
}

/* Writes ``label`` (int64, n) and returns the number of components. */
i64 components(i64 n, i64 m, const i64 *u, const i64 *v, i64 *label)
{
    for (i64 x = 0; x < n; x++)
        label[x] = x;
    for (i64 e = 0; e < m; e++) {
        i64 a = uf_find(label, u[e]), b = uf_find(label, v[e]);
        if (a < b)
            label[b] = a;
        else if (b < a)
            label[a] = b;
    }
    for (i64 x = 0; x < n; x++)
        label[x] = label[label[x]];
    i64 k = 0;
    for (i64 x = 0; x < n; x++)
        label[x] = label[x] == x ? k++ : label[label[x]];
    return k;
}
