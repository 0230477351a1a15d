/* The compiled core: three entry points, netctrl_sample, netctrl_tokenize
 * and netctrl_build. Every entry point writes only into the caller's
 * arrays (netctrl_sample's scratch comes from the caller too), and no
 * memory outlives a call: netctrl_tokenize's hash table is its own and
 * freed before it returns. None keeps state between calls, so calls on
 * different arrays may run at once.
 *
 * netctrl_sample: all of MatchingState.complete() in one call, which is
 * one whole sample of the sampler. Its memory is one struct
 * netctrl_workspace, which the caller fills once per graph: the graph's
 * CSR, the arrays named below and the seed whose samples it draws.
 *
 * 0. Draws and start. With `drawn` non-zero, the call first draws sample
 *    `index` of the workspace's seed (`words` uint32 words at `seed`)
 *    into `order` and `keys`, as defined below, and starts from the
 *    empty matching, whatever `mh` and `mt` held; with `drawn` zero it
 *    reads all four as given.
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
 *    `in_ptr`) to `degree_sum`. The sum is exact, so the caller's
 *    sum / count is the mean numpy would give, bit for bit.
 *
 * The caller checks the inputs: `ptr` and `in_ptr` are CSR row pointers
 * of n + 1 entries over the same ptr[n] edges, `heads` holds indices in
 * 0..n-1, slices are shorter than 2^32 slots, given `keys` are in
 * 0..2^32-1, a given `order` is a permutation of 0..n-1, given
 * `mh`/`mt` hold a matching and its inverse (-1 when free), and a
 * workspace that draws has a seed. `mh` and `mt` are updated in place.
 * `scan` holds ptr[n] entries; scratch: `mark`, `trail` and `free_heads`
 * n, `stack` 3 * n. Returns the number of matched pairs or
 * NETCTRL_BREACH.
 *
 * The draws of step 0 define the sampler's stream, and
 * seeding.sample_draws makes the same ones: sample i of a seed takes the
 * 32-bit halves of the raw outputs of PCG64(spawn_seed(seed, i)), low
 * half first. numpy promises that bit generator's stream across its
 * releases (NEP 19), so no release can move the samples. The halves give
 * numpy 2.x's permutation(n) and integers(0, 2**32, size=edges,
 * dtype=int64) of default_rng(spawn_seed(seed, i)), bit for bit, and the
 * code follows numpy's (numpy/random/bit_generator.pyx, _generator.pyx,
 * _bounded_integers.pyx, distributions.c and pcg64.h):
 * 1. spawn_seed(seed, i): a SeedSequence over the seed's little-endian
 *    uint32 words (`words` of them in `seed`, as numpy splits an int),
 *    padded with zeros to the pool size because a spawn key is given,
 *    then the words of i (one, or two from 2^32 on); its
 *    generate_state(1, uint64) is the child seed.
 * 2. PCG64(child): a SeedSequence over the child's words, whose
 *    generate_state(4, uint64) gives PCG64's initial state and stream
 *    (high word first), then pcg_setseq_128_srandom_r's two LCG steps.
 *    Each 64-bit output is one LCG step and the XSL-RR output function.
 * 3. The node order: Fisher-Yates from the top over 0..n-1. For i from
 *    n - 1 down to 1, j is the first half that is at most i once masked
 *    by the smallest 2^k - 1 >= i, and order[i] and order[j] swap.
 * 4. The scan keys: the next `edges` halves, one each.
 * The 128-bit LCG step is unsigned __int128 arithmetic where the
 * compiler has it and 64-bit products of 32-bit halves where it does not.
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
 * Writes each edge line's (tail, head) ids to `ends`, which has room for
 * two ids per line the text can hold: the caller counts them as the
 * smaller of its line breaks + 1 (the last line may end without its
 * break) and (size + 1) / 4 (an edge line takes at least four bytes, two
 * tokens, a blank and a line break). Writes the labels to two more
 * arrays of the caller's: `packed`, of size + 1 bytes, each label's bytes
 * followed by '\n' (a label never holds a line break), in order of first
 * appearance, and `offsets`, of one entry more than `ends`, where each
 * label starts, with one entry past the last, so that label i is
 * packed[offsets[i]..offsets[i + 1] - 1). Both bounds hold: a new label's
 * bytes and its '\n' take no more room than its token and the byte after
 * it in the text, which only the last token may lack, and an edge line
 * adds at most two labels. The hash table is the one array
 * the call allocates: it grows fourfold when it is half full, so it is
 * sized by the labels, and it is freed before the call returns. Writes
 * the label count to `*labels` and returns the number of edge lines; -1
 * when a line does not hold two tokens (the caller's line loop then
 * reports it), -2 when there is no memory for the hash table.
 *
 * netctrl_build: every array of a DirectedGraph of `n` nodes, built from
 * `count` (tail, head) pairs into one int64 buffer of the caller's, of
 * 5 * count + 2 * n + 2 entries laid out as
 *   tails[count] heads[count] out_ptr[n + 1] out_heads[count]
 *   in_ptr[n + 1] in_tails[count] keys[count]
 * (graph._layout names the same regions). The caller writes the pairs to
 * `tails` and `heads`. A pair given more than once is kept at its first
 * position only: the call moves the kept pairs to the front of `tails` and
 * `heads`, in input order, and writes the other regions for them. Each
 * CSR row (out_heads of a tail, in_tails of a head) keeps input order, as
 * the scan's tie rule needs, and `keys` holds tail * n + head of every
 * kept pair in ascending order. Each array is built with counting sorts;
 * `keys` is the in-CSR, which is ordered by head, sorted stably by tail.
 * Repeats are found in the out-rows by a stamp per head. The unused
 * regions hold the scratch, so the call allocates nothing. Checks its
 * inputs: n in 1..MAX_NODES (so that every key fits int64), count >= 0
 * and every id in 0..n-1. Returns the number of pairs kept, or -1 when a
 * check fails, with the buffer's contents undefined.
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

static void draw(const uint32_t *seed, int64_t words, uint64_t index, int64_t n, int64_t *order, int64_t edges,
                 int64_t *keys);

/* the memory of netctrl_sample on one graph; _kernel._Struct declares
 * the same fields in the same order */
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

int64_t netctrl_sample(struct netctrl_workspace *w, int64_t drawn, uint64_t index)
{
    const int64_t n = w->n, *ptr = w->ptr, *heads = w->heads, *in_ptr = w->in_ptr;
    int64_t *keys = w->keys, *order = w->order, *mh = w->mh, *mt = w->mt, *scan = w->scan;
    int64_t *trail = w->trail, *stack = w->stack, *free_heads = w->free_heads;
    unsigned char *mark = w->mark;
    if (drawn) {
        draw(w->seed, w->words, index, n, order, ptr[n], keys);
        for (int64_t v = 0; v < n; v++)
            mh[v] = mt[v] = -1;
    }
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
    w->degree_sum = sum;
    return size;
}

enum { WORD, BLANK, BREAK };

static const unsigned char kind[256] = {
    ['\t'] = BLANK, [' '] = BLANK, [0x1f] = BLANK,
    ['\n'] = BREAK, ['\v'] = BREAK, ['\f'] = BREAK, ['\r'] = BREAK,
    [0x1c] = BREAK, [0x1d] = BREAK, [0x1e] = BREAK,
};

/* FNV-1a, its high half folded onto the low bits that pick a slot */
#define FNV_BASIS 14695981039346656037ULL
#define FNV_STEP(h, byte) (((h) ^ (byte)) * 1099511628211ULL)
#define FNV_FOLD(h) ((h) ^ (h) >> 32)

static uint64_t label_hash(const unsigned char *s, int64_t length)
{
    uint64_t h = FNV_BASIS;
    for (int64_t i = 0; i < length; i++)
        h = FNV_STEP(h, s[i]);
    return FNV_FOLD(h);
}

/* the labels interned so far and their hash table, at most half full.
 * A slot holds 0 when empty, else a label id + 1 in its low ID_BITS bits
 * and the label hash's high bits above them, which settle most
 * mismatches without a look at the label */
struct interned {
    char *packed;
    int64_t *offsets, count;
    uint64_t *table;
    size_t mask;
};

#define ID_BITS 40
#define ID_MASK ((UINT64_C(1) << ID_BITS) - 1)

/* the id of label s[0..length), whose label_hash is h, interned if new;
 * -2 without memory */
static int64_t intern(struct interned *t, const unsigned char *s, int64_t length, uint64_t h)
{
    char *packed = t->packed;
    int64_t *offsets = t->offsets;
    uint64_t entry;
    size_t slot = h & t->mask;
    for (; (entry = t->table[slot]) != 0; slot = (slot + 1) & t->mask) {
        int64_t id = (int64_t)(entry & ID_MASK) - 1;
        if ((entry & ~ID_MASK) == (h & ~ID_MASK) && offsets[id + 1] - offsets[id] - 1 == length
            && memcmp(packed + offsets[id], s, (size_t)length) == 0)
            return id;
    }
    int64_t id = t->count, at = offsets[id];
    if (id == (int64_t)ID_MASK)
        return -2;
    memcpy(packed + at, s, (size_t)length);
    packed[at + length] = '\n';
    offsets[id + 1] = at + length + 1;
    t->table[slot] = (h & ~ID_MASK) | (uint64_t)++t->count;
    if (2 * (size_t)t->count > t->mask) {
        /* a table four times the size, with every label put back: fewer
         * rounds of putting back than doubling */
        size_t mask = 4 * t->mask + 3;
        uint64_t *table = calloc(mask + 1, sizeof *table);
        if (!table)
            return -2;
        for (int64_t i = 0; i < t->count; i++) {
            h = label_hash((const unsigned char *)packed + offsets[i], offsets[i + 1] - offsets[i] - 1);
            size_t k = h & mask;
            while (table[k])
                k = (k + 1) & mask;
            table[k] = (h & ~ID_MASK) | (uint64_t)(i + 1);
        }
        free(t->table);
        t->table = table;
        t->mask = mask;
    }
    return id;
}

int64_t netctrl_tokenize(const char *text, int64_t size, int64_t *ends, char *packed,
                         int64_t *offsets, int64_t *labels)
{
    const unsigned char *p = (const unsigned char *)text, *end = p + size;
    enum { FIRST_SLOTS = 1024 };
    struct interned t = {packed, offsets, 0, calloc(FIRST_SLOTS, sizeof(uint64_t)), FIRST_SLOTS - 1};
    int64_t edges = 0;
    if (!t.table)
        return -2;
    offsets[0] = 0;
    while (p < end) {
        const unsigned char *start[2];
        int64_t length[2];
        uint64_t hash[2];
        int tokens = 0;
        for (;;) {
            while (p < end && kind[*p] == BLANK)
                p++;
            if (p == end || kind[*p] == BREAK)
                break;
            const unsigned char *token = p;
            uint64_t h = FNV_BASIS; /* label_hash, as the token is read */
            while (p < end && kind[*p] == WORD)
                h = FNV_STEP(h, *p++);
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
            hash[tokens] = FNV_FOLD(h);
            length[tokens++] = p - token;
        }
        p += p < end;
        if (tokens == 0)
            continue;
        if (tokens == 1) {
            edges = -1;
            goto done;
        }
        for (int k = 0; k < 2; k++) {
            int64_t id = intern(&t, start[k], length[k], hash[k]);
            if (id < 0) {
                edges = -2;
                goto done;
            }
            ends[2 * edges + k] = id;
        }
        edges++;
    }
done:
    free(t.table);
    *labels = t.count;
    return edges;
}

/* the largest n whose keys tail * n + head, up to n * n - 1, fit int64 */
#define MAX_NODES INT64_C(3037000499)

int64_t netctrl_build(int64_t n, int64_t count, int64_t *buffer)
{
    if (n < 1 || n > MAX_NODES || count < 0)
        return -1;
    int64_t *tails = buffer, *heads = tails + count, *out_ptr = heads + count, *out_heads = out_ptr + n + 1;
    int64_t *in_ptr = out_heads + count, *in_tails = in_ptr + n + 1, *keys = in_tails + count;
    /* scratch: each tail's pair ids in `keys`, a stamp per head in `in_ptr` */
    int64_t *rows = keys, *stamp = in_ptr;

    /* out-degrees over every pair, repeats included, as row starts */
    for (int64_t u = 0; u <= n; u++)
        out_ptr[u] = 0;
    for (int64_t e = 0; e < count; e++) {
        if (tails[e] < 0 || tails[e] >= n || heads[e] < 0 || heads[e] >= n)
            return -1;
        out_ptr[tails[e] + 1]++;
    }
    for (int64_t u = 0; u < n; u++)
        out_ptr[u + 1] += out_ptr[u];
    /* each tail's pair ids in input order; out_ptr[u] ends as row u's end */
    for (int64_t e = 0; e < count; e++)
        rows[out_ptr[tails[e]]++] = e;
    /* the out-CSR of the first occurrences: a head already stamped with
     * its row's tail is a repeat, marked by a tail of -1 */
    for (int64_t v = 0; v < n; v++)
        stamp[v] = -1;
    int64_t kept = 0;
    for (int64_t u = 0, start = 0; u < n; u++) {
        int64_t end = out_ptr[u];
        out_ptr[u] = kept;
        for (int64_t i = start; i < end; i++) {
            int64_t e = rows[i], v = heads[e];
            if (stamp[v] == u) {
                tails[e] = -1;
                continue;
            }
            stamp[v] = u;
            out_heads[kept++] = v;
        }
        start = end;
    }
    out_ptr[n] = kept;
    if (kept < count)
        for (int64_t e = 0, k = 0; e < count; e++)
            if (tails[e] >= 0) {
                tails[k] = tails[e];
                heads[k++] = heads[e];
            }

    /* the in-CSR: in_ptr[v] is row v's cursor, then its end, shifted back */
    for (int64_t v = 0; v <= n; v++)
        in_ptr[v] = 0;
    for (int64_t e = 0; e < kept; e++)
        in_ptr[heads[e] + 1]++;
    for (int64_t v = 0; v < n; v++)
        in_ptr[v + 1] += in_ptr[v];
    for (int64_t e = 0; e < kept; e++)
        in_tails[in_ptr[heads[e]]++] = tails[e];
    for (int64_t v = n; v > 0; v--)
        in_ptr[v] = in_ptr[v - 1];
    in_ptr[0] = 0;

    /* the keys: the in-CSR's pairs, by head, placed stably by tail, with
     * out_ptr as the cursors and then shifted back */
    for (int64_t v = 0; v < n; v++)
        for (int64_t j = in_ptr[v]; j < in_ptr[v + 1]; j++)
            keys[out_ptr[in_tails[j]]++] = in_tails[j] * n + v;
    for (int64_t u = n; u > 0; u--)
        out_ptr[u] = out_ptr[u - 1];
    out_ptr[0] = 0;
    return kept;
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

/* a 128-bit number as two words */
typedef struct {
    uint64_t high, low;
} u128;

/* a * b + c, modulo 2^128: in unsigned __int128 where the compiler has it
 * (gcc and clang on 64-bit targets), else from 32-bit halves */
static u128 mul_add128(u128 a, u128 b, u128 c)
{
#ifdef __SIZEOF_INT128__
    __extension__ typedef unsigned __int128 wide;
    wide r = ((wide)a.high << 64 | a.low) * ((wide)b.high << 64 | b.low) + ((wide)c.high << 64 | c.low);
    u128 out = {(uint64_t)(r >> 64), (uint64_t)r};
#else
    const uint64_t half = 0xffffffffu;
    uint64_t a0 = a.low & half, a1 = a.low >> 32, b0 = b.low & half, b1 = b.low >> 32;
    uint64_t p00 = a0 * b0, p01 = a0 * b1, p10 = a1 * b0;
    uint64_t mid = (p00 >> 32) + (p01 & half) + (p10 & half);
    u128 out;
    out.low = (mid << 32 | (p00 & half)) + c.low;
    out.high = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32) + a.high * b.low + a.low * b.high
               + c.high + (out.low < c.low);
#endif
    return out;
}

/* numpy's PCG64: the 128-bit LCG and next_uint32's buffered high half */
typedef struct {
    u128 state, inc;
    uint32_t half;
    int has_half;
} pcg64;

static const u128 MULTIPLIER = {2549297995355413924ULL, 4865540595714422341ULL};

/* PCG64(child) */
static pcg64 seeded_pcg64(uint64_t child)
{
    static const u128 ONE = {0, 1};
    const uint32_t head[POOL] = {(uint32_t)child, (uint32_t)(child >> 32), 0, 0};
    seed_sequence s;
    /* zeroed only for gcc's -fanalyzer, which cannot see that
       generate_state's odd-index writes fill all four words */
    uint64_t v[4] = {0, 0, 0, 0};
    start_pool(&s, head);
    generate_state(&s, v, 4);
    u128 init = {v[0], v[1]};
    pcg64 g = {{0, 0}, {v[2] << 1 | v[3] >> 63, v[3] << 1 | 1}, 0, 0};
    /* state = 0, step (to inc), state += init, step */
    g.state = mul_add128(mul_add128(init, ONE, g.inc), MULTIPLIER, g.inc);
    return g;
}

/* pcg64_next64: one LCG step, then the XSL-RR output */
static uint64_t next_uint64(pcg64 *g)
{
    g->state = mul_add128(g->state, MULTIPLIER, g->inc);
    uint64_t high = g->state.high, x = high ^ g->state.low;
    unsigned rot = (unsigned)(high >> 58);
    return x >> rot | x << (-rot & 63);
}

/* pcg64_next32: the low half of a fresh output, then its high half */
static uint32_t next_uint32(pcg64 *g)
{
    if (g->has_half) {
        g->has_half = 0;
        return g->half;
    }
    uint64_t next = next_uint64(g);
    g->has_half = 1;
    g->half = (uint32_t)(next >> 32);
    return (uint32_t)next;
}

/* spawn_seed(seed, index): the seed's `words` uint32 words, padded with
 * zeros to the pool, then the one or two words of the spawn key */
static uint64_t spawn_seed(const uint32_t *seed, int64_t words, uint64_t index)
{
    seed_sequence s;
    uint32_t head[POOL] = {0, 0, 0, 0};
    uint64_t child = 0;
    memcpy(head, seed, (size_t)(words < POOL ? words : POOL) * sizeof *head);
    start_pool(&s, head);
    for (int64_t k = POOL; k < words; k++)
        mix_word(&s, seed[k]);
    mix_word(&s, (uint32_t)index);
    if (index >> 32)
        mix_word(&s, (uint32_t)(index >> 32));
    generate_state(&s, &child, 1);
    return child;
}

/* sample `index`'s node order and scan keys, as the header defines the stream */
static void draw(const uint32_t *seed, int64_t words, uint64_t index, int64_t n, int64_t *order, int64_t edges,
                 int64_t *keys)
{
    pcg64 g = seeded_pcg64(spawn_seed(seed, words, index));
    for (int64_t i = 0; i < n; i++)
        order[i] = i;
    /* Fisher-Yates from the top, each j the first half at most i under
     * the smallest mask 2^k - 1 >= i (numpy's random_interval(i)).
     * Branch-free: one half per turn, and a rejected half swaps i with
     * itself and keeps i, since whether a half is rejected is as random
     * as the halves */
    uint64_t mask = (uint64_t)(n > 1 ? n - 1 : 0);
    for (int shift = 1; shift < 64; shift <<= 1)
        mask |= mask >> shift;
    for (int64_t i = n - 1; i > 0;) {
        uint64_t value = next_uint32(&g) & mask;
        int64_t accept = value <= (uint64_t)i, j = accept ? (int64_t)value : i, t = order[i];
        order[i] = order[j];
        order[j] = t;
        i -= accept;
        /* the smallest mask for the next i */
        mask >>= (uint64_t)i <= mask >> 1;
    }
    /* one half per key */
    for (int64_t k = 0; k < edges; k++)
        keys[k] = next_uint32(&g);
}
