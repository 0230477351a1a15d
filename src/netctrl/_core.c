/* The compiled core: three entry points over caller-owned arrays. None
 * keeps state between calls, and netctrl_sample and netctrl_seed_states
 * allocate nothing (netctrl_sample's scratch comes from the caller), so
 * calls on different arrays may run at once.
 *
 * netctrl_sample: all of MatchingState.complete() in one call, which is
 * one whole sample of the sampler.
 *
 * 1. Scan order. Each tail's slice of the out-CSR `heads` is written to
 *    `scan` in ascending order of its slots' `keys`, equal keys in slot
 *    order: numpy's argsort(kind="stable") order. The slice is sorted in
 *    `scan` as one uint64 word per slot, key << 32 | offset in the slice:
 *    distinct words, so no comparison needs a tie-break. Insertion sorts
 *    up to INSERTED slots, heapsort longer ones (hubs); then each word is
 *    replaced by the head at its offset.
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
 * 0..n-1, `keys` are in 0..2^32-1 and slices shorter than 2^32 slots,
 * `order` is a permutation of 0..n-1, and `mh`/`mt` hold a matching and
 * its inverse (-1 when free), updated in place.
 * `scan` holds ptr[n] entries; scratch: `mark`, `trail` and `free_heads`
 * n, `stack` 3 * n. Returns the number of matched pairs or NETCTRL_BREACH.
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
 *
 * netctrl_seed_states: the PCG64 state of each sample's generator,
 * numpy.random.default_rng(spawn_seed(seed, i)), bit for bit.
 *
 * Two fixed integer hashes, reproduced from numpy (NEP 19 and
 * numpy/random/bit_generator.pyx, pcg64.h):
 * 1. spawn_seed(seed, i): a SeedSequence over the seed's little-endian
 *    uint32 words (`words` of them in `seed`, as numpy splits an int),
 *    padded with zeros to the pool size because a spawn key is given,
 *    then the words of i (one, or two from 2^32 on); its
 *    generate_state(1, uint64) is the child seed.
 * 2. default_rng(child): a SeedSequence over the child's words, whose
 *    generate_state(4, uint64) gives PCG64's initial state and stream
 *    (high word first), then pcg_setseq_128_srandom_r's two LCG steps.
 *    The 128-bit arithmetic is done on 64-bit halves.
 * The pool after the seed's words is the same for every i, so it is
 * mixed once per call.
 *
 * Writes, for k in 0..count-1 and i = start + k, the four words
 * state >> 64, state & (2^64 - 1), inc >> 64, inc & (2^64 - 1) to
 * states[4k..4k+3]. The caller keeps start + count - 1 within uint64.
 * With spawn = 0, step 2 alone runs on the child seeds start + k, so
 * that it can be checked on any child; `seed` is then not read.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { NETCTRL_BREACH = -2 };

/* the longest slices sorted by insertion; longer ones (hubs) are heapsorted */
enum { INSERTED = 64 };

/* fill the hole at `root` of the max-heap word[0..size) with w */
static void sift_down(uint64_t *word, uint64_t w, int64_t root, int64_t size)
{
    for (int64_t child = 2 * root + 1; child < size; root = child, child = 2 * root + 1) {
        /* branch-free: which child is larger is as random as the keys */
        child += child + 1 < size && word[child + 1] > word[child];
        if (word[child] <= w)
            break;
        word[root] = word[child];
    }
    word[root] = w;
}

/* write head[0..size) to scan[0..size) in ascending order of key[], equal
 * keys in slot order: sort the distinct words key << 32 | offset in
 * `scan`, then replace each with the head at its offset */
static void sort_slice(const int64_t *key, const int64_t *head, int64_t size, int64_t *scan)
{
    uint64_t *word = (uint64_t *)scan;
    for (int64_t i = 0; i < size; i++)
        word[i] = (uint64_t)key[i] << 32 | (uint64_t)i;
    if (size <= INSERTED) {
        for (int64_t i = 1, j; i < size; i++) {
            uint64_t w = word[i];
            for (j = i; j > 0 && word[j - 1] > w; j--)
                word[j] = word[j - 1];
            word[j] = w;
        }
    } else {
        for (int64_t i = size / 2 - 1; i >= 0; i--)
            sift_down(word, word[i], i, size);
        for (int64_t end = size - 1; end > 0; end--) {
            uint64_t w = word[end];
            word[end] = word[0];
            sift_down(word, w, 0, end);
        }
    }
    for (int64_t i = 0; i < size; i++)
        scan[i] = head[word[i] & 0xffffffffu];
}

int64_t netctrl_sample(int64_t n, const int64_t *ptr, const int64_t *heads,
                       const int64_t *in_ptr, const int64_t *keys, const int64_t *order,
                       int64_t *mh, int64_t *mt, int64_t *scan, unsigned char *mark,
                       int64_t *trail, int64_t *stack, int64_t *free_heads, int64_t *degree_sum)
{
    for (int64_t u = 0; u < n; u++) {
        int64_t lo = ptr[u];
        sort_slice(keys + lo, heads + lo, ptr[u + 1] - lo, scan + lo);
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

/* SeedSequence with numpy's default pool of four uint32 words */
enum { POOL = 4 };
static const uint32_t INIT_A = 0x43b0d7e5u, MULT_A = 0x931e8875u;
static const uint32_t INIT_B = 0x8b51f9ddu, MULT_B = 0x58f38dedu;
static const uint32_t MIX_MULT_L = 0xca01f9ddu, MIX_MULT_R = 0x4973f715u;

typedef struct {
    uint32_t pool[POOL], hash_const;
} seed_sequence;

static uint32_t hashmix(seed_sequence *s, uint32_t value)
{
    value ^= s->hash_const;
    s->hash_const *= MULT_A;
    value *= s->hash_const;
    return value ^ value >> 16;
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t result = MIX_MULT_L * x - MIX_MULT_R * y;
    return result ^ result >> 16;
}

/* the pool after the first POOL entropy words (zeros past the entropy) */
static void start_pool(seed_sequence *s, const uint32_t head[POOL])
{
    s->hash_const = INIT_A;
    for (int i = 0; i < POOL; i++)
        s->pool[i] = hashmix(s, head[i]);
    for (int src = 0; src < POOL; src++)
        for (int dst = 0; dst < POOL; dst++)
            if (src != dst)
                s->pool[dst] = mix(s->pool[dst], hashmix(s, s->pool[src]));
}

/* mix one more entropy word into every word of the pool */
static void mix_word(seed_sequence *s, uint32_t word)
{
    for (int dst = 0; dst < POOL; dst++)
        s->pool[dst] = mix(s->pool[dst], hashmix(s, word));
}

/* generate_state(count, uint64) */
static void generate_state(const seed_sequence *s, uint64_t *out, int count)
{
    uint32_t hash_const = INIT_B, word[2];
    for (int i = 0; i < 2 * count; i++) {
        uint32_t value = s->pool[i % POOL] ^ hash_const;
        hash_const *= MULT_B;
        value *= hash_const;
        word[i % 2] = value ^ value >> 16;
        if (i % 2)
            out[i / 2] = (uint64_t)word[1] << 32 | word[0];
    }
}

typedef struct {
    uint64_t high, low;
} u128;

static u128 add128(u128 a, u128 b)
{
    u128 r;
    r.low = a.low + b.low;
    r.high = a.high + b.high + (r.low < a.low);
    return r;
}

/* the low 128 bits of a * b */
static u128 mul128(u128 a, u128 b)
{
    const uint64_t half = 0xffffffffu;
    uint64_t a0 = a.low & half, a1 = a.low >> 32, b0 = b.low & half, b1 = b.low >> 32;
    uint64_t p00 = a0 * b0, p01 = a0 * b1, p10 = a1 * b0;
    uint64_t mid = (p00 >> 32) + (p01 & half) + (p10 & half);
    u128 r;
    r.low = mid << 32 | (p00 & half);
    r.high = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
             + a.high * b.low + a.low * b.high;
    return r;
}

/* the PCG64 (state, inc) of default_rng(child), as four words */
static void pcg64_state(uint64_t child, uint64_t *out)
{
    static const u128 MULTIPLIER = {2549297995355413924ULL, 4865540595714422341ULL};
    const uint32_t head[POOL] = {(uint32_t)child, (uint32_t)(child >> 32), 0, 0};
    seed_sequence s;
    /* zeroed only for gcc's -fanalyzer, which cannot see that
       generate_state's odd-index writes fill all four words */
    uint64_t v[4] = {0, 0, 0, 0};
    start_pool(&s, head);
    generate_state(&s, v, 4);
    u128 init = {v[0], v[1]}, inc = {v[2] << 1 | v[3] >> 63, v[3] << 1 | 1};
    /* state = 0, step, state += init, step */
    u128 state = add128(mul128(add128(inc, init), MULTIPLIER), inc);
    out[0] = state.high;
    out[1] = state.low;
    out[2] = inc.high;
    out[3] = inc.low;
}

void netctrl_seed_states(const uint32_t *seed, int64_t words, uint64_t start, int64_t count,
                         int64_t spawn, uint64_t *states)
{
    seed_sequence root = {{0, 0, 0, 0}, 0};
    if (spawn) {
        uint32_t head[POOL] = {0, 0, 0, 0};
        memcpy(head, seed, (size_t)(words < POOL ? words : POOL) * sizeof *head);
        start_pool(&root, head);
        for (int64_t k = POOL; k < words; k++)
            mix_word(&root, seed[k]);
    }
    for (int64_t k = 0; k < count; k++) {
        uint64_t i = start + (uint64_t)k, child = i;
        if (spawn) {
            seed_sequence s = root;
            mix_word(&s, (uint32_t)i);
            if (i >> 32)
                mix_word(&s, (uint32_t)(i >> 32));
            generate_state(&s, &child, 1);
        }
        pcg64_state(child, states + 4 * k);
    }
}
