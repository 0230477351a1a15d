/* The compiled core: two entry points over caller-owned arrays. Neither
 * keeps state between calls, and netctrl_sample allocates nothing (its
 * scratch comes from the caller), so calls on different arrays may run
 * at once.
 *
 * netctrl_sample: all of MatchingState.complete() in one call, which is
 * one whole sample of the sampler.
 *
 * 1. Scan order. Each tail's slice of the out-CSR `heads` is written to
 *    `scan` in ascending order of its slots' `keys`, sorted with its keys
 *    in `scan_key`: by insertion up to INSERTED slots and by heapsort
 *    above (hubs). Two equal keys in one slice return NETCTRL_TIE before
 *    anything is written to `mh`/`mt`: the caller then puts the tied
 *    slots in numpy's argsort order, which only numpy defines, and calls
 *    again with keys that cannot tie.
 * 2. The completing pass, the same search as MatchingState._augment over
 *    every root: free tails in the order of `order`, each tail's scan in
 *    key order, an explicit parent stack of (tail, slot to resume, head
 *    descended through) frames instead of recursion. A failed search
 *    keeps its marks and a successful one clears only the heads it
 *    marked (Hungarian-forest pruning; see the matching module's
 *    docstring). Every node is active.
 * 3. The check that `mh` and `mt` are inverses (entries in -1..n-1, each
 *    pair read the same from both sides) holding as many pairs as the
 *    pass counted; NETCTRL_BREACH when it fails.
 * 4. The free in-roles, in ascending order, to `free_heads`, and the sum
 *    of their total degrees (out-degree from `ptr`, in-degree from
 *    `in_ptr`) to `*degree_sum`. The sum is exact, so the caller's
 *    sum / count is the mean numpy would give, bit for bit.
 *
 * The caller checks the inputs: `ptr` and `in_ptr` are CSR row pointers
 * of n + 1 entries over the same ptr[n] edges, `heads` holds indices in
 * 0..n-1, `order` is a permutation of 0..n-1, and `mh`/`mt` hold a
 * matching and its inverse (-1 when free), updated in place. Scratch:
 * `scan` and `scan_key` hold ptr[n] entries, `mark`, `trail` and
 * `free_heads` n, `stack` 3 * n. Returns the number of matched pairs,
 * NETCTRL_TIE or NETCTRL_BREACH.
 *
 * netctrl_tokenize: the edge-list tokenizer of parse_edge_list.
 *
 * One pass over `size` bytes of ASCII text, split as Python's
 * str.splitlines and str.split split ASCII text: lines end at \n, \r,
 * \v, \f and \x1c-\x1e (\r\n reads as a line break and a blank line),
 * and tokens are also separated by space, \t and \x1f. Blank lines and
 * lines whose first token starts with '#' or '%' are skipped; every other
 * line must hold exactly two tokens. Labels are interned in order of
 * first appearance with an open-addressing hash table.
 *
 * `lines` bounds the number of lines: the caller counts the line breaks
 * and adds one. It sizes the hash table; `ends` has room for 2 * lines
 * ids and `offsets`/`lengths` for 2 * lines labels. Writes each edge
 * line's (tail, head) ids to `ends`, each label's byte offset and length
 * to `offsets`/`lengths`, and the label count to `*labels`. Returns the
 * number of edge lines; -1 when a line does not hold two tokens (the
 * caller's line loop then reports it) or when more than `lines` lines
 * hold edges; -2 when the hash table cannot be allocated.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { NETCTRL_TIE = -1, NETCTRL_BREACH = -2 };

/* the longest slices sorted by insertion; longer ones (hubs) are heapsorted */
enum { INSERTED = 64 };

/* restore the max-heap of key[0..size) below `root` */
static void sift_down(int64_t *key, int64_t *head, int64_t root, int64_t size)
{
    int64_t k = key[root], h = head[root];
    for (;;) {
        int64_t child = 2 * root + 1;
        if (child >= size)
            break;
        if (child + 1 < size && key[child + 1] > key[child])
            child++;
        if (key[child] <= k)
            break;
        key[root] = key[child];
        head[root] = head[child];
        root = child;
    }
    key[root] = k;
    head[root] = h;
}

/* write head[0..size) to scan[0..size) in ascending order of key[]; 1 when
 * two keys tie. `scan_key` is scratch of `size` entries. */
static int sort_segment(const int64_t *key, const int64_t *head, int64_t size,
                        int64_t *scan, int64_t *scan_key)
{
    memcpy(scan, head, (size_t)size * sizeof *scan);
    memcpy(scan_key, key, (size_t)size * sizeof *scan_key);
    if (size <= INSERTED) {
        for (int64_t i = 1; i < size; i++) {
            int64_t k = scan_key[i], h = scan[i], j = i;
            for (; j > 0 && scan_key[j - 1] > k; j--) {
                scan_key[j] = scan_key[j - 1];
                scan[j] = scan[j - 1];
            }
            scan_key[j] = k;
            scan[j] = h;
        }
    } else {
        for (int64_t i = size / 2 - 1; i >= 0; i--)
            sift_down(scan_key, scan, i, size);
        for (int64_t end = size - 1; end > 0; end--) {
            int64_t k = scan_key[end], h = scan[end];
            scan_key[end] = scan_key[0];
            scan[end] = scan[0];
            scan_key[0] = k;
            scan[0] = h;
            sift_down(scan_key, scan, 0, end);
        }
    }
    for (int64_t i = 1; i < size; i++)
        if (scan_key[i - 1] == scan_key[i])
            return 1;
    return 0;
}

int64_t netctrl_sample(int64_t n, const int64_t *ptr, const int64_t *heads,
                       const int64_t *in_ptr, const int64_t *keys, const int64_t *order,
                       int64_t *mh, int64_t *mt, int64_t *scan, int64_t *scan_key,
                       unsigned char *mark, int64_t *trail, int64_t *stack,
                       int64_t *free_heads, int64_t *degree_sum)
{
    for (int64_t u = 0; u < n; u++) {
        int64_t lo = ptr[u];
        if (sort_segment(keys + lo, heads + lo, ptr[u + 1] - lo, scan + lo, scan_key + lo))
            return NETCTRL_TIE;
    }

    int64_t size = 0;
    for (int64_t v = 0; v < n; v++) {
        mark[v] = 0;
        size += mh[v] >= 0;
    }
    for (int64_t k = 0; k < n; k++) {
        int64_t u = order[k], i = ptr[u], end = ptr[u + 1], depth = 0, marked = 0;
        if (mh[u] >= 0)
            continue;
        for (;;) {
            if (i < end) {
                int64_t v = scan[i++];
                if (mark[v])
                    continue;
                mark[v] = 1;
                trail[marked++] = v;
                if (mt[v] >= 0) {
                    stack[depth++] = u;
                    stack[depth++] = i;
                    stack[depth++] = v;
                    u = mt[v];
                    i = ptr[u];
                    end = ptr[u + 1];
                    continue;
                }
                for (mh[u] = v, mt[v] = u; depth; depth -= 3) {
                    mh[stack[depth - 3]] = stack[depth - 1];
                    mt[stack[depth - 1]] = stack[depth - 3];
                }
                while (marked)
                    mark[trail[--marked]] = 0;
                size++;
                break;
            }
            if (!depth)
                break;
            depth -= 3;
            u = stack[depth];
            i = stack[depth + 1];
            end = ptr[u + 1];
        }
    }

    /* branch-free: whether a role is free is as random as the sample */
    int64_t pairs = 0, unmatched = 0, sum = 0, bad = 0;
    for (int64_t u = 0; u < n; u++) {
        int64_t v = mh[u], matched = v >= 0 && v < n;
        bad |= (v < -1) | (v >= n) | (matched & (mt[matched ? v : 0] != u));
        pairs += matched;
    }
    for (int64_t v = 0; v < n; v++) {
        int64_t u = mt[v], matched = u >= 0 && u < n;
        bad |= (u < -1) | (u >= n) | (matched & (mh[matched ? u : 0] != v));
        free_heads[unmatched] = v;
        unmatched += !matched;
        sum += !matched * (ptr[v + 1] - ptr[v] + in_ptr[v + 1] - in_ptr[v]);
    }
    if (bad || pairs != size)
        return NETCTRL_BREACH;
    *degree_sum = sum;
    return size;
}

enum { WORD, BLANK, BREAK };

static const unsigned char kind[256] = {
    ['\t'] = BLANK, [' '] = BLANK, [0x1f] = BLANK,
    ['\n'] = BREAK, ['\v'] = BREAK, ['\f'] = BREAK, ['\r'] = BREAK,
    [0x1c] = BREAK, [0x1d] = BREAK, [0x1e] = BREAK,
};

int64_t netctrl_tokenize(const char *text, int64_t size, int64_t lines, int64_t *ends,
                         int64_t *offsets, int64_t *lengths, int64_t *labels)
{
    const unsigned char *p = (const unsigned char *)text, *end = p + size;
    /* at most 2 * lines labels: a power of two at least twice that keeps
     * the table at most half full; a slot holds a label id + 1, 0 if empty */
    size_t mask = 1;
    while (mask < 4 * (size_t)lines)
        mask <<= 1;
    int64_t *table = calloc(mask--, sizeof *table);
    int64_t edges = 0, count = 0;
    if (!table)
        return -2;
    while (p < end) {
        const unsigned char *start[2];
        int64_t length[2];
        int tokens = 0;
        for (;;) {
            while (p < end && kind[*p] == BLANK)
                p++;
            if (p == end || kind[*p] == BREAK)
                break;
            const unsigned char *token = p;
            while (p < end && kind[*p] == WORD)
                p++;
            if (tokens == 0 && (*token == '#' || *token == '%')) {
                while (p < end && kind[*p] != BREAK)
                    p++;
                break;
            }
            if (tokens == 2) {
                edges = -1;
                goto done;
            }
            start[tokens] = token;
            length[tokens++] = p - token;
        }
        p += p < end;
        if (tokens == 0)
            continue;
        if (tokens == 1 || edges == lines) {
            edges = -1;
            goto done;
        }
        for (int k = 0; k < 2; k++) {
            /* FNV-1a */
            uint64_t h = 14695981039346656037ULL;
            for (int64_t i = 0; i < length[k]; i++)
                h = (h ^ start[k][i]) * 1099511628211ULL;
            size_t slot = (h ^ h >> 32) & mask;
            int64_t id;
            for (;; slot = (slot + 1) & mask) {
                id = table[slot] - 1;
                if (id < 0) {
                    id = count++;
                    table[slot] = id + 1;
                    offsets[id] = start[k] - (const unsigned char *)text;
                    lengths[id] = length[k];
                    break;
                }
                if (lengths[id] == length[k]
                    && memcmp(text + offsets[id], start[k], (size_t)length[k]) == 0)
                    break;
            }
            ends[2 * edges + k] = id;
        }
        edges++;
    }
done:
    free(table);
    *labels = count;
    return edges;
}
