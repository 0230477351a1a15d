/* Two threads sampling one graph, each in a workspace of its own.
 *
 * The sampler runs netctrl_sample on several threads at once, one
 * workspace each, over one shared read-only graph (netctrl.mds). This
 * driver does the same with two pthreads and compares every result
 * with a serial run: each sample's pair count, free in-roles and their
 * degree sum, and the order and keys its drawn call writes. Each thread
 * keeps one workspace for all its samples, so each drawn call starts
 * with the last sample's matching in `mh` and `mt`; every drawn call
 * must equal a call in a second workspace handed -1s and the drawn
 * call's order and keys, which is the empty start the drawn call makes
 * itself. Built with
 * ThreadSanitizer, it reports any write the two threads share:
 *
 *     cc -std=c99 -fsanitize=thread -O1 -g -pthread \
 *         -o two_workspaces tests/c/two_workspaces.c src/netctrl/_core.c
 *     TSAN_OPTIONS=halt_on_error=1 ./two_workspaces
 *
 * Exits 0 when both threads agree with the serial run, 1 otherwise.
 */
#define _POSIX_C_SOURCE 200809L
#include <pthread.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

/* as declared in _core.c */
struct netctrl_workspace {
    int64_t n;
    const int64_t *ptr, *heads, *in_ptr;
    int64_t *keys, *order, *mh, *mt, *scan;
    unsigned char *mark;
    int64_t *trail, *stack, *free_heads;
    int64_t degree_sum;
    const uint32_t *seed;
    int64_t words;
};

int64_t netctrl_sample(struct netctrl_workspace *w, int64_t drawn, uint64_t index);

/* a random graph with a hub, so that both of the core's slice sorts run */
enum { NODES = 600, RANDOM_EDGES = 900, HUB_EDGES = 120, EDGES = RANDOM_EDGES + HUB_EDGES, SAMPLES = 24 };

static const uint32_t SEED[] = {12345u, 7u};

static int64_t out_ptr[NODES + 1], out_heads[EDGES], in_ptr[NODES + 1];

/* what one sample gives: its pairs, free in-roles and their degree sum,
 * the order and keys drawn for its index, and whether the drawn call
 * equals the given one */
struct result {
    int64_t pairs, degree_sum;
    int64_t free_heads[NODES];
    int64_t order[NODES], keys[EDGES];
    int as_given;
};

/* the arrays a workspace points to */
struct arrays {
    int64_t keys[EDGES], order[NODES], mh[NODES], mt[NODES], scan[EDGES];
    unsigned char mark[NODES];
    int64_t trail[NODES], stack[3 * NODES], free_heads[NODES];
};

static void build_graph(void)
{
    static int64_t tails[EDGES], heads[EDGES];
    uint64_t state = 88172645463325252ULL;
    for (int64_t e = 0; e < EDGES; e++) {
        /* xorshift64: any fixed stream will do */
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        tails[e] = e < RANDOM_EDGES ? (int64_t)(state % NODES) : 0;
        heads[e] = (int64_t)(state >> 32) % NODES;
    }
    for (int64_t e = 0; e < EDGES; e++) {
        out_ptr[tails[e] + 1]++;
        in_ptr[heads[e] + 1]++;
    }
    for (int64_t u = 0; u < NODES; u++) {
        out_ptr[u + 1] += out_ptr[u];
        in_ptr[u + 1] += in_ptr[u];
    }
    int64_t fill[NODES];
    memcpy(fill, out_ptr, sizeof fill);
    for (int64_t e = 0; e < EDGES; e++)
        out_heads[fill[tails[e]]++] = heads[e];
}

static struct netctrl_workspace workspace(struct arrays *a)
{
    struct netctrl_workspace w = {
        NODES, out_ptr, out_heads, in_ptr, a->keys, a->order, a->mh, a->mt, a->scan,
        a->mark, a->trail, a->stack, a->free_heads, 0, SEED, 2,
    };
    return w;
}

/* sample `index` drawn in `drawn`, and the same sample from a call in
 * `given` handed -1s and the order and keys the drawn call wrote */
static void run(struct netctrl_workspace *drawn, struct netctrl_workspace *given, uint64_t index,
                struct result *r)
{
    r->pairs = netctrl_sample(drawn, 1, index);
    r->degree_sum = drawn->degree_sum;
    memcpy(r->free_heads, drawn->free_heads, sizeof r->free_heads);
    memcpy(r->order, drawn->order, sizeof r->order);
    memcpy(r->keys, drawn->keys, sizeof r->keys);

    memcpy(given->order, r->order, sizeof r->order);
    memcpy(given->keys, r->keys, sizeof r->keys);
    for (int64_t v = 0; v < NODES; v++)
        given->mh[v] = given->mt[v] = -1;
    int64_t pairs = netctrl_sample(given, 0, 0), unmatched = NODES - pairs;
    r->as_given = pairs == r->pairs && pairs >= 0 && given->degree_sum == r->degree_sum
        && !memcmp(given->free_heads, drawn->free_heads, (size_t)unmatched * sizeof *given->free_heads)
        && !memcmp(given->mh, drawn->mh, NODES * sizeof *given->mh)
        && !memcmp(given->mt, drawn->mt, NODES * sizeof *given->mt)
        && !memcmp(given->scan, drawn->scan, EDGES * sizeof *given->scan);
}

static struct result serial[SAMPLES], threaded[2][SAMPLES];

static void *sampler(void *arg)
{
    struct result *out = arg;
    struct arrays *a = malloc(2 * sizeof *a);
    if (!a)
        return NULL;
    struct netctrl_workspace drawn = workspace(&a[0]), given = workspace(&a[1]);
    for (uint64_t i = 0; i < SAMPLES; i++)
        run(&drawn, &given, i, &out[i]);
    free(a);
    return out;
}

static int same(const struct result *a, const struct result *b)
{
    int64_t unmatched = NODES - a->pairs;
    return a->pairs == b->pairs && a->pairs >= 0 && a->degree_sum == b->degree_sum
        && !memcmp(a->free_heads, b->free_heads, (size_t)unmatched * sizeof a->free_heads[0])
        && !memcmp(a->order, b->order, sizeof a->order) && !memcmp(a->keys, b->keys, sizeof a->keys)
        && a->as_given && b->as_given;
}

int main(void)
{
    build_graph();
    if (!sampler(serial))
        return 1;
    pthread_t threads[2];
    for (int t = 0; t < 2; t++) {
        if (pthread_create(&threads[t], NULL, sampler, threaded[t])) {
            fprintf(stderr, "two_workspaces: cannot start thread %d\n", t);
            return 1;
        }
    }
    int failed = 0;
    for (int t = 0; t < 2; t++) {
        void *done;
        pthread_join(threads[t], &done);
        failed |= done == NULL;
    }
    for (int t = 0; t < 2; t++) {
        for (int i = 0; i < SAMPLES; i++) {
            if (!same(&serial[i], &threaded[t][i])) {
                fprintf(stderr, "two_workspaces: thread %d, sample %d differs from the serial run\n", t, i);
                failed = 1;
            }
        }
    }
    if (failed)
        return 1;
    printf("two_workspaces: %d samples on two threads match the serial run\n", SAMPLES);
    return 0;
}
