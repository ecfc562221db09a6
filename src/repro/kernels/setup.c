/* Setup's adjacency kernels: the CSR build, the BFS vertex order and the
 * LDG streaming partitioner.
 *
 * Ports of ``repro.graph.csr._build_csr_reference``,
 * ``repro.partitioning.ldg._bfs_order_reference`` and
 * ``repro.partitioning.ldg._ldg_reference``; each must produce the same
 * bytes as its reference. Instantiated once per index width by
 * ``kernels.c`` (see there for ``IDX`` and ``FN``): the CSR arrays are
 * ``IDX``; the graph's endpoint arrays, vertex orders and partition maps
 * are int64.
 */

/* Stable counting sort of the 2m half-edges by source vertex: half-edge i
 * < m is edge i seen from edge_u, half-edge m + i the same edge seen from
 * edge_v, so a vertex lists its u-side half-edges (ascending eid) before
 * its v-side ones -- the order ``argsort(kind="stable")`` gives. Returns
 * 0, or -1 when out of memory. */
i64 FN(build_csr)(i64 n, i64 m, const i64 *u, const i64 *v, IDX *offsets,
                  IDX *targets, IDX *eids)
{
    IDX *cursor = malloc((n + 1) * sizeof(IDX));
    if (!cursor)
        return -1;
    for (i64 x = 0; x <= n; x++)
        offsets[x] = 0;
    for (i64 e = 0; e < m; e++) {
        offsets[u[e] + 1]++;
        offsets[v[e] + 1]++;
    }
    for (i64 x = 0; x < n; x++) {
        offsets[x + 1] += offsets[x];
        cursor[x] = offsets[x];
    }
    for (i64 side = 0; side < 2; side++) {
        const i64 *src = side ? v : u, *dst = side ? u : v;
        for (i64 e = 0; e < m; e++) {
            i64 at = cursor[src[e]]++;
            targets[at] = (IDX)dst[e];
            eids[at] = (IDX)e;
        }
    }
    free(cursor);
    return 0;
}

/* BFS visitation order: components are entered in ``starts`` order and
 * neighbours queued in CSR order. ``order`` doubles as the FIFO queue, as
 * a vertex's position in it is its visitation rank. Returns the number of
 * vertices ordered, or -1 when out of memory. */
i64 FN(bfs_order)(i64 n, const IDX *offsets, const IDX *targets,
                  const i64 *starts, i64 *order)
{
    uint8_t *seen = calloc(n + 1, 1);
    if (!seen)
        return -1;
    i64 head = 0, tail = 0;
    for (i64 i = 0; i < n; i++) {
        i64 s = starts[i];
        if (seen[s])
            continue;
        seen[s] = 1;
        order[tail++] = s;
        while (head < tail) {
            i64 x = order[head++];
            for (i64 p = offsets[x], end = offsets[x + 1]; p < end; p++) {
                i64 t = targets[p];
                if (!seen[t]) {
                    seen[t] = 1;
                    order[tail++] = t;
                }
            }
        }
    }
    free(seen);
    return tail;
}

/* Linear Deterministic Greedy over a vertex order. A vertex goes to the
 * part with the highest float64 score count * (1 - load / capacity), where
 * count is its already-placed neighbours there (with multiplicity); full
 * parts score -inf, ties go to the first maximum, and when every part is
 * full the least-loaded one (first minimum) wins. Writes ``part`` (int64)
 * and returns 0, or -1 when out of memory. Compiled without contraction,
 * so each score rounds exactly as NumPy's separate multiply does. */
i64 FN(ldg)(i64 n, i64 n_parts, i64 capacity, const IDX *offsets,
            const IDX *targets, const i64 *order, i64 *part)
{
    i64 *load = calloc(2 * n_parts, sizeof(i64));
    if (!load)
        return -1;
    i64 *count = load + n_parts;
    for (i64 x = 0; x < n; x++)
        part[x] = -1;
    for (i64 i = 0; i < n; i++) {
        i64 x = order[i];
        for (i64 p = offsets[x], end = offsets[x + 1]; p < end; p++) {
            i64 q = part[targets[p]];
            if (q >= 0)
                count[q]++;
        }
        i64 best = 0;
        double top = 0.0;
        for (i64 q = 0; q < n_parts; q++) {
            double score = -INFINITY;
            if (load[q] < capacity)
                score = (double)count[q]
                        * (1.0 - (double)load[q] / (double)capacity);
            if (q == 0 || score > top) {
                best = q;
                top = score;
            }
            count[q] = 0;
        }
        if (isinf(top))
            for (i64 q = 1; q < n_parts; q++)
                if (load[q] < load[best])
                    best = q;
        part[x] = best;
        load[best]++;
    }
    free(load);
    return 0;
}
