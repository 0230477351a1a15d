/* The completing pass of MatchingState.complete(), compiled.
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
 */
#include <stdint.h>
#include <stdlib.h>

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
