/* The compiled core: two entry points over caller-owned int64 arrays.
 *
 * netctrl_complete: the completing pass of MatchingState.complete().
 *
 * The same search as MatchingState._augment over every root: free tails
 * in the order given, each tail's slice of `heads` scanned in order, an
 * explicit parent stack of (tail, slot to resume, head descended through)
 * frames instead of recursion. A failed search keeps its marks and a
 * successful one clears only the heads it marked (Hungarian-forest
 * pruning; see the matching module's docstring). Every node is active.
 *
 * The caller checks the inputs: `ptr` is a CSR row pointer of n + 1
 * entries, `heads` holds indices in 0..n-1, `order` is a permutation of
 * 0..n-1, and `mh`/`mt` are a matching and its inverse (-1 when free).
 * `mh` and `mt` are updated in place. Returns the number of matched
 * pairs, or -1 when the scratch memory cannot be allocated.
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

int64_t netctrl_complete(int64_t n, const int64_t *ptr, const int64_t *heads,
                         const int64_t *order, int64_t *mh, int64_t *mt)
{
    unsigned char *mark = calloc((size_t)n + 1, 1);
    int64_t *trail = malloc(((size_t)n + 1) * sizeof *trail);
    int64_t *stack = malloc(3 * ((size_t)n + 1) * sizeof *stack);
    int64_t size = -1;
    if (mark && trail && stack) {
        size = 0;
        for (int64_t k = 0; k < n; k++)
            size += mh[k] >= 0;
        for (int64_t k = 0; k < n; k++) {
            int64_t u = order[k], i = ptr[u], end = ptr[u + 1], depth = 0, marked = 0;
            if (mh[u] >= 0)
                continue;
            for (;;) {
                if (i < end) {
                    int64_t v = heads[i++];
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
    }
    free(mark);
    free(trail);
    free(stack);
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
