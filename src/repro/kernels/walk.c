/* Phase-1 walk kernel (Alg. 1) over packed walk tables.
 *
 * Runs the three walk stages of one partition's Phase-1 run -- OB -> OB
 * maximal paths, EB cycles, internal cycles via the next-unvisited scan --
 * plus mergeInto's pivot/owner lookup, the splice of merged cycles into
 * their roots, and the ItemArray decode. It is a port of
 * ``repro.core.phase1._walk_reference``; both must produce identical bytes.
 *
 * The source is instantiated once per index width by ``kernels.c``: ``IDX``
 * is the storage type of the walk tables, the walk records and every
 * scratch buffer (int32_t or int64_t), and ``FN(name)`` gives each
 * instantiation its own symbols. Loop counters and index arithmetic stay
 * 64-bit; only storage narrows. The EdgeTable (``edges``) and the ItemArray
 * (``items``) are int64 at both widths: their ``ref`` column carries
 * fragment ids. An ItemArray row is ``(ref | forward << 62, dst)``; the
 * ref alone says whether it is an edge or a fragment (``pathmap.py``).
 *
 * Vertices are local indices into the CSR tables; ``vert_ids`` maps them
 * to global ids (NULL in dense mode, where local == global). Walk kinds
 * are 0 path, 1 EB cycle, 2 anchored internal cycle, 3 merged internal
 * cycle (WALK_* in repro.kernels).
 */

/* Maximal traversal along unvisited edges from ``cur``: appends packed
 * edges and arrival vertices at enc/loc[*n] and returns the end vertex. */
static i64 FN(walk)(i64 cur, IDX *ptr, const IDX *offsets, const IDX *slot_enc,
                    const IDX *slot_next, uint8_t *visited, IDX *enc, IDX *loc,
                    i64 *n)
{
    for (;;) {
        i64 p = ptr[cur], end = offsets[cur + 1];
        while (p < end && visited[slot_enc[p] >> 1])
            p++;
        ptr[cur] = (IDX)p;
        if (p == end)
            return cur;
        i64 e = slot_enc[p];
        visited[e >> 1] = 1;
        enc[*n] = (IDX)e;
        cur = slot_next[p];
        loc[*n] = (IDX)cur;
        (*n)++;
    }
}

/* First owning root wins: the junction owner table behind mergeInto. */
static void FN(claim)(IDX *owner, i64 root, i64 v, const IDX *loc, i64 a,
                      i64 b)
{
    if (owner[v] < 0)
        owner[v] = (IDX)root;
    for (i64 j = a; j < b; j++)
        if (owner[loc[j]] < 0)
            owner[loc[j]] = (IDX)root;
}

static void FN(record)(IDX *rec, i64 start, i64 end, i64 kind)
{
    rec[0] = (IDX)start;
    rec[1] = (IDX)end;
    rec[2] = (IDX)kind;
    rec[3] = 0;
}

/* Returns the number of walks, -1 when out of memory, -2 when a merged
 * cycle was never spliced. ``recs`` rows are (start, end, kind, flat_len);
 * flat_len is a root's spliced length, 0 for merged cycles. ``items``
 * receives every root's spliced ItemArray rows, roots in walk order. */
i64 FN(phase1_walk)(i64 m, i64 size, const IDX *offsets, const IDX *slot_enc,
                    const IDX *slot_next, const IDX *eu_loc, const IDX *ob,
                    i64 n_ob, const IDX *eb, i64 n_eb, const i64 *edges,
                    const IDX *vert_ids, i64 *items, IDX *recs)
{
    IDX *ptr = malloc(3 * (size + 1) * sizeof(IDX));
    IDX *buf = malloc(5 * (m + 1) * sizeof(IDX));
    uint8_t *visited = calloc(m + 1, 1);
    IDX *stack = NULL;
    i64 nw = -1;
    if (!ptr || !buf || !visited)
        goto out;
    IDX *owner = ptr + size + 1, *head = owner + size + 1;
    IDX *enc = buf, *loc = enc + m + 1, *woff = loc + m + 1;
    IDX *next = woff + m + 1, *rot = next + m + 1;
    for (i64 v = 0; v < size; v++) {
        ptr[v] = offsets[v];
        owner[v] = head[v] = -1;
    }
    i64 n = 0;
    nw = 0;
    for (i64 kind = 0; kind < 2; kind++) { /* OB paths, then EB cycles */
        const IDX *starts = kind ? eb : ob;
        for (i64 i = 0, cnt = kind ? n_eb : n_ob; i < cnt; i++) {
            i64 n0 = n, v = starts[i];
            i64 end = FN(walk)(v, ptr, offsets, slot_enc, slot_next, visited,
                               enc, loc, &n);
            if (n == n0)
                continue;
            FN(record)(recs + 4 * nw, v, end, kind);
            woff[nw] = (IDX)n0;
            rot[nw] = 0;
            FN(claim)(owner, nw++, v, loc, n0, n);
        }
    }
    for (i64 k = 0;; k++) { /* internal cycles from each unvisited edge */
        while (k < m && visited[k])
            k++;
        if (k == m)
            break;
        i64 n0 = n, u = eu_loc[k];
        i64 end = FN(walk)(u, ptr, offsets, slot_enc, slot_next, visited,
                           enc, loc, &n);
        i64 pivot = owner[u] >= 0 ? u : -1, j = n0;
        for (; pivot < 0 && j < n; j++)
            if (owner[loc[j]] >= 0)
                pivot = loc[j];
        woff[nw] = (IDX)n0;
        rot[nw] = 0;
        if (pivot < 0) {
            FN(record)(recs + 4 * nw, u, end, 2);
            FN(claim)(owner, nw, u, loc, n0, n);
        } else {
            /* Rotate to restart just past the pivot's first visit (the
             * search left j one past it) and file the cycle under the
             * pivot, newest first. */
            FN(record)(recs + 4 * nw, u, end, 3);
            if (pivot != u)
                rot[nw] = (IDX)(j - n0);
            next[nw] = head[pivot];
            head[pivot] = (IDX)nw;
            FN(claim)(owner, owner[pivot], pivot, loc, n0, n);
        }
        nw++;
    }
    woff[nw] = (IDX)n;

    /* Splice: depth-first over each root, entering a vertex's attached
     * cycles (oldest first) right after the walk arrives there. Frames
     * are (walk, steps emitted). */
    stack = malloc(2 * (nw + 1) * sizeof(IDX));
    if (!stack) {
        nw = -1;
        goto out;
    }
    i64 pos = 0;
    for (i64 w = 0; w < nw; w++) {
        if (recs[4 * w + 2] == 3)
            continue;
        i64 row0 = pos, sp = 1, v = recs[4 * w];
        stack[0] = (IDX)w;
        stack[1] = 0;
        for (;;) {
            if (v >= 0 && owner[v] == w && head[v] >= 0) {
                for (i64 c = head[v]; c >= 0; c = next[c]) {
                    stack[2 * sp] = (IDX)c;
                    stack[2 * sp + 1] = 0;
                    sp++;
                }
                head[v] = -1;
            }
            if (sp == 0)
                break;
            i64 c = stack[2 * sp - 2], len = woff[c + 1] - woff[c];
            i64 step = stack[2 * sp - 1]++;
            if (step == len) {
                sp--;
                v = -1;
                continue;
            }
            i64 at = woff[c] + (rot[c] + step) % len;
            i64 e = enc[at], *row = items + 2 * pos++;
            v = loc[at];
            row[0] = edges[4 * (e >> 1) + 3] | (e & 1) << 62;
            row[1] = vert_ids ? vert_ids[v] : v;
        }
        recs[4 * w + 3] = (IDX)(pos - row0);
    }
    for (i64 v = 0; v < size; v++)
        if (head[v] >= 0)
            nw = -2;
out:
    free(ptr);
    free(buf);
    free(visited);
    free(stack);
    return nw;
}
