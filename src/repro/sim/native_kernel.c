/*
 * Native event-loop kernel for closed-system simulator runs.
 *
 * This file is a line-for-line port of the hot path of
 * repro/sim/engine.py (Simulator._dispatch and its helpers, which hold
 * the cache, MSHR, crossbar and issue rules), repro/sim/dram.py
 * (DRAMChannel._decide/_pick), SetAssocCache.fill in repro/sim/cache.py
 * and repro/workloads/synthetic.py
 * (WarpAddressStream, including CPython's MT19937 seeding and its
 * random()/randrange() draws).  The Python engine is the reference: a
 * change here must keep every golden fixture bit-identical on both
 * backends (see docs/performance.md, "Native kernel").
 *
 * Ordering contract: every event carries (time, seq) and the queue pops
 * in exactly that order, sharing one seq counter with the events Python
 * pushes (controller windows, delayed actuations, the warmup mark).
 * rk_run() returns to Python whenever such an event is due.
 *
 * Float contract: every time/latency value is a double computed with
 * the same operations, in the same order, as the Python engine.  Build
 * with -ffp-contract=off and never with -ffast-math.
 *
 * Built by repro/sim/native.py with the system C compiler and loaded
 * through ctypes; plain C99, no Python headers.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* ------------------------------------------------------------------ */
/* MT19937, bit-compatible with CPython's _random module               */
/* ------------------------------------------------------------------ */

#define MT_N 624
#define MT_M 397

typedef struct {
    uint32_t mt[MT_N];
    int mti;
} MT;

static void mt_init_genrand(MT *s, uint32_t seed) {
    uint32_t *mt = s->mt;
    mt[0] = seed;
    for (int i = 1; i < MT_N; i++) {
        mt[i] = 1812433253U * (mt[i - 1] ^ (mt[i - 1] >> 30)) + (uint32_t)i;
    }
    s->mti = MT_N;
}

static void mt_init_by_array(MT *s, const uint32_t *key, int key_length) {
    uint32_t *mt = s->mt;
    mt_init_genrand(s, 19650218U);
    int i = 1, j = 0;
    int k = (MT_N > key_length ? MT_N : key_length);
    for (; k; k--) {
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1664525U)) + key[j] + (uint32_t)j;
        i++;
        j++;
        if (i >= MT_N) {
            mt[0] = mt[MT_N - 1];
            i = 1;
        }
        if (j >= key_length) j = 0;
    }
    for (k = MT_N - 1; k; k--) {
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1566083941U)) - (uint32_t)i;
        i++;
        if (i >= MT_N) {
            mt[0] = mt[MT_N - 1];
            i = 1;
        }
    }
    mt[0] = 0x80000000U;
}

/* random.Random(seed) for a non-negative integer seed below 2**64:
 * the key is the seed's 32-bit words, least significant first. */
static void mt_seed(MT *s, uint64_t seed) {
    uint32_t key[2];
    key[0] = (uint32_t)(seed & 0xFFFFFFFFU);
    key[1] = (uint32_t)(seed >> 32);
    mt_init_by_array(s, key, key[1] ? 2 : 1);
}

static uint32_t mt_genrand(MT *s) {
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t y;
    uint32_t *mt = s->mt;
    if (s->mti >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        s->mti = 0;
    }
    y = mt[s->mti++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* random.random() */
static double mt_random(MT *s) {
    uint32_t a = mt_genrand(s) >> 5, b = mt_genrand(s) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* random.getrandbits(k) for 0 <= k <= 64 */
static uint64_t mt_getrandbits(MT *s, int k) {
    if (k <= 0) return 0;
    if (k <= 32) return mt_genrand(s) >> (32 - k);
    uint64_t lo = mt_genrand(s);
    uint64_t hi = mt_genrand(s);
    if (k < 64) hi >>= (64 - k);
    return lo | (hi << 32);
}

static int bit_length(uint64_t n) {
    int k = 0;
    while (n) {
        k++;
        n >>= 1;
    }
    return k;
}

/* random.randrange(n) == Random._randbelow_with_getrandbits(n), n >= 1 */
static uint64_t mt_randbelow(MT *s, uint64_t n) {
    int k = bit_length(n);
    uint64_t r = mt_getrandbits(s, k);
    while (r >= n) r = mt_getrandbits(s, k);
    return r;
}

/* Differential-test entry points (tests/test_native.py). */
MT *rk_mt_new(uint64_t seed) {
    MT *s = (MT *)malloc(sizeof(MT));
    if (s) mt_seed(s, seed);
    return s;
}
void rk_mt_free(MT *s) { free(s); }
double rk_mt_random(MT *s) { return mt_random(s); }
uint64_t rk_mt_randbelow(MT *s, uint64_t n) { return mt_randbelow(s, n); }

/* ------------------------------------------------------------------ */
/* Model records                                                       */
/* ------------------------------------------------------------------ */

enum {
    COMPUTE_DONE = 0,
    WARP_RESP = 1,
    L2_ACCESS = 2,
    L1_FILL = 3,
    L1_FILL_MULTI = 4,
    N_STAGES = 5
};

enum { EV_TXN = 0, EV_REQ = 1, EV_DECIDE = 2, EV_PY = 3 };

enum { ERR_NONE = 0, ERR_OVER_RESPONSE = 1, ERR_NOMEM = 2 };

/* MemTxn */
typedef struct Txn {
    int32_t stage, core, warp, app_id, channel, n;
    int64_t n_inst;
    uint64_t line;
    double due;
    struct Txn *link;
    uint64_t *lines; /* COMPUTE_DONE batch / L1_FILL_MULTI batch */
    int32_t n_lines, cap_lines;
} Txn;

/* DRAMRequest */
typedef struct {
    uint64_t line;
    int64_t row;
    double enqueue_time;
    int32_t app_id, bank, channel, row_hit;
} Req;

typedef struct {
    double time;
    uint64_t seq;
    void *obj;
    int64_t aux; /* kind in the low byte; Python handle above it */
} Event;

/* WarpAddressStream parameters shared by the warps of one app */
typedef struct {
    int64_t inst_gap;
    double gap_jitter, gap_lo, p_reuse, p_seq, shared_frac;
    uint64_t shared_lines, stream_lines;
    int32_t divergent, footprint;
    int64_t coalesce;
    uint64_t line_bytes, shared_base;
} SParams;

/* CoreStream */
typedef struct {
    uint64_t base, n_lines, line_bytes, offset;
} CStream;

typedef struct {
    int32_t app_id, core, active, parked;
    int64_t pending, iterations;
    double issue_time;
    Txn *compute_txn, *resp_txn;
    /* stream state (seeded on first use) */
    uint64_t seed;
    int32_t params, cstream, ring_pos, seeded;
    uint64_t *ring;
    MT *mt;
} Warp;

/* AppStats */
typedef struct {
    int64_t insts, l1_accesses, l1_misses, l2_accesses, l2_misses, dram_lines,
        mem_requests, row_hits, row_misses;
    double mem_latency_sum;
} AppStats;

/* SetAssocCache: each set is an LRU-ordered array (index 0 = LRU), the
 * same order as the Python dict's insertion order. */
typedef struct {
    int64_t n_sets, assoc;
    uint64_t line_bytes;
    uint64_t *tags;
    int32_t *owner;
    int32_t *count;
    uint8_t *bypass;  /* per app */
    int32_t *quota;   /* per app, -1 = none */
    int32_t n_bypass, n_quota;
} Cache;

/* MSHRTable: line -> ordered waiter list */
typedef struct {
    uint64_t key;
    int32_t *v;
    int32_t n, cap;
} MRec;

typedef struct {
    int32_t n_entries, size;
    uint32_t mask;
    int32_t shift;
    int32_t *index; /* hash slot -> record id, -1 empty */
    MRec *recs;
    int32_t *free_recs;
    int32_t n_free;
    int64_t merges, failures;
} MSHR;

/* deque[MemTxn] */
typedef struct {
    Txn **buf;
    int32_t head, n, cap;
} TQueue;

/* crossbar Link */
typedef struct {
    double latency, cpp, free_at, busy_cycles, queue_cycles;
    int64_t packets;
} Link;

typedef struct {
    int64_t open_row; /* -1 = no open row */
    double free_at, ras_until;
} Bank;

typedef struct {
    int32_t app_id, tlp, first_warp, n_warps;
    double issue_width, issue_free_at;
    Txn *fill_txn;
    double fill_time;
    Txn *tick_head, *tick_tail;
    Cache l1;
    MSHR l1m;
    TQueue l1_def;
} Core;

typedef struct {
    Link req_port, resp_port;
    Cache l2;
    MSHR l2m;
    TQueue l2_def, dram_def;
    int32_t drain_armed;
    /* DRAMChannel */
    Bank *banks;
    double *group_col_free;
    Req **queue;
    int32_t qlen, capacity, deciding;
    int64_t hit_streak;
    double bus_free, last_activate;
    double busy_cycles;
} Chan;

typedef struct {
    void **v;
    int64_t n, cap;
} PtrVec;

typedef struct {
    int32_t n_apps, n_cores, n_channels, n_warps, n_params, n_cstreams;
    int32_t max_tlp, schedulers;
    /* config scalars */
    double l1_hit_latency, l2_hit_latency;
    uint64_t interleave, n_ch, row_bytes, banks, bank_groups;
    double t_ccd, t_cl, t_rp, t_rcd, t_ras, t_rrd, burst, lookahead;
    int64_t frfcfs_cap, scan_window;
    Core *cores;
    Warp *warps;
    Chan *chans;
    SParams *params;
    CStream *cstreams;
    AppStats *stats;
    /* event queue: binary heap on (time, seq) */
    Event *heap;
    int64_t hsize, hcap;
    uint64_t seq;
    double now;
    /* free lists (LIFO): retired transactions and DRAM requests are
     * reused; all_txns / all_reqs own every allocation for rk_free */
    PtrVec txn_pool, req_pool;
    PtrVec all_txns, all_reqs;
    int64_t prof[N_STAGES];
    int32_t error;
} K;

/* ------------------------------------------------------------------ */
/* Small containers                                                    */
/* ------------------------------------------------------------------ */

static int pv_push(PtrVec *p, void *x) {
    if (p->n == p->cap) {
        int64_t cap = p->cap ? p->cap * 2 : 64;
        void **v = (void **)realloc(p->v, (size_t)cap * sizeof(void *));
        if (!v) return -1;
        p->v = v;
        p->cap = cap;
    }
    p->v[p->n++] = x;
    return 0;
}

static int tq_push(TQueue *q, Txn *t) {
    if (q->n == q->cap) {
        int32_t cap = q->cap ? q->cap * 2 : 16;
        Txn **buf = (Txn **)malloc((size_t)cap * sizeof(Txn *));
        if (!buf) return -1;
        for (int32_t i = 0; i < q->n; i++) buf[i] = q->buf[(q->head + i) % q->cap];
        free(q->buf);
        q->buf = buf;
        q->head = 0;
        q->cap = cap;
    }
    q->buf[(q->head + q->n) % q->cap] = t;
    q->n++;
    return 0;
}

static Txn *tq_popleft(TQueue *q) {
    Txn *t = q->buf[q->head];
    q->head = (q->head + 1) % q->cap;
    q->n--;
    return t;
}

static int lines_reserve(Txn *t, int32_t n) {
    if (n <= t->cap_lines) return 0;
    int32_t cap = t->cap_lines ? t->cap_lines : 4;
    while (cap < n) cap *= 2;
    uint64_t *v = (uint64_t *)realloc(t->lines, (size_t)cap * sizeof(uint64_t));
    if (!v) return -1;
    t->lines = v;
    t->cap_lines = cap;
    return 0;
}

/* ------------------------------------------------------------------ */
/* Event queue                                                         */
/* ------------------------------------------------------------------ */

static inline int ev_less(const Event *a, const Event *b) {
    return a->time < b->time || (a->time == b->time && a->seq < b->seq);
}

static void push(K *k, double time, int kind, void *obj, int64_t handle) {
    if (k->hsize == k->hcap) {
        int64_t cap = k->hcap * 2;
        Event *h = (Event *)realloc(k->heap, (size_t)cap * sizeof(Event));
        if (!h) {
            k->error = ERR_NOMEM;
            return;
        }
        k->heap = h;
        k->hcap = cap;
    }
    Event e;
    e.time = time;
    e.seq = k->seq++;
    e.obj = obj;
    e.aux = (handle << 8) | kind;
    Event *h = k->heap;
    int64_t i = k->hsize++;
    while (i > 0) {
        int64_t parent = (i - 1) >> 1;
        if (!ev_less(&e, &h[parent])) break;
        h[i] = h[parent];
        i = parent;
    }
    h[i] = e;
}

static Event pop(K *k) {
    Event *h = k->heap;
    Event top = h[0];
    Event last = h[--k->hsize];
    int64_t n = k->hsize, i = 0;
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= n) break;
        if (c + 1 < n && ev_less(&h[c + 1], &h[c])) c++;
        if (!ev_less(&h[c], &last)) break;
        h[i] = h[c];
        i = c;
    }
    if (n) h[i] = last;
    return top;
}

/* ------------------------------------------------------------------ */
/* Pools                                                               */
/* ------------------------------------------------------------------ */

static Txn *txn_new(K *k) {
    Txn *t = (Txn *)calloc(1, sizeof(Txn));
    if (!t || pv_push(&k->all_txns, t)) {
        free(t);
        k->error = ERR_NOMEM;
        return NULL;
    }
    return t;
}

static Txn *txn_alloc(K *k) {
    if (k->txn_pool.n) return (Txn *)k->txn_pool.v[--k->txn_pool.n];
    return txn_new(k);
}

static void txn_release(K *k, Txn *t) {
    if (pv_push(&k->txn_pool, t)) k->error = ERR_NOMEM;
}

static Req *req_alloc(K *k) {
    if (k->req_pool.n) return (Req *)k->req_pool.v[--k->req_pool.n];
    Req *r = (Req *)calloc(1, sizeof(Req));
    if (!r || pv_push(&k->all_reqs, r)) {
        free(r);
        k->error = ERR_NOMEM;
        return NULL;
    }
    return r;
}

/* ------------------------------------------------------------------ */
/* Caches                                                              */
/* ------------------------------------------------------------------ */

static int cache_init(Cache *c, int64_t n_sets, int64_t assoc, uint64_t line_bytes, int n_apps) {
    c->n_sets = n_sets;
    c->assoc = assoc;
    c->line_bytes = line_bytes;
    c->tags = (uint64_t *)calloc((size_t)(n_sets * assoc), sizeof(uint64_t));
    c->owner = (int32_t *)calloc((size_t)(n_sets * assoc), sizeof(int32_t));
    c->count = (int32_t *)calloc((size_t)n_sets, sizeof(int32_t));
    c->bypass = (uint8_t *)calloc((size_t)n_apps, 1);
    c->quota = (int32_t *)malloc((size_t)n_apps * sizeof(int32_t));
    if (!c->tags || !c->owner || !c->count || !c->bypass || !c->quota)
        return -1;
    for (int i = 0; i < n_apps; i++) c->quota[i] = -1;
    return 0;
}

static void cache_free(Cache *c) {
    free(c->tags);
    free(c->owner);
    free(c->count);
    free(c->bypass);
    free(c->quota);
}

/* Move entry i of a set to the MRU end. */
static inline void set_to_mru(uint64_t *tags, int32_t *owner, int32_t n, int32_t i) {
    uint64_t t = tags[i];
    int32_t o = owner[i];
    for (int32_t j = i; j < n - 1; j++) {
        tags[j] = tags[j + 1];
        owner[j] = owner[j + 1];
    }
    tags[n - 1] = t;
    owner[n - 1] = o;
}

static inline void set_remove(uint64_t *tags, int32_t *owner, int32_t n, int32_t i) {
    for (int32_t j = i; j < n - 1; j++) {
        tags[j] = tags[j + 1];
        owner[j] = owner[j + 1];
    }
}

/* `line in line_set`, refreshing recency on a hit: the L1/L2 lookup of
 * Simulator._dispatch (callers count the access in AppStats). */
static inline int cache_touch(Cache *c, uint64_t line) {
    uint64_t s = (line / c->line_bytes) % (uint64_t)c->n_sets;
    uint64_t *tags = c->tags + s * (uint64_t)c->assoc;
    int32_t *owner = c->owner + s * (uint64_t)c->assoc;
    int32_t n = c->count[s];
    for (int32_t i = 0; i < n; i++) {
        if (tags[i] == line) {
            set_to_mru(tags, owner, n, i);
            return 1;
        }
    }
    return 0;
}

/* SetAssocCache.fill */
static void cache_fill(Cache *c, uint64_t line, int32_t app_id) {
    if (c->n_bypass && c->bypass[app_id]) return;
    uint64_t s = (line / c->line_bytes) % (uint64_t)c->n_sets;
    uint64_t *tags = c->tags + s * (uint64_t)c->assoc;
    int32_t *owner = c->owner + s * (uint64_t)c->assoc;
    int32_t n = c->count[s];
    for (int32_t i = 0; i < n; i++) {
        if (tags[i] == line) {
            set_to_mru(tags, owner, n, i);
            return;
        }
    }
    if (c->n_quota && c->quota[app_id] >= 0) {
        int32_t owned = 0, first = -1;
        for (int32_t i = 0; i < n; i++) {
            if (owner[i] == app_id) {
                if (first < 0) first = i;
                owned++;
            }
        }
        if (owned >= c->quota[app_id]) {
            /* evict the app's own LRU line (quotas are >= 1, so it exists) */
            set_remove(tags, owner, n, first);
            tags[n - 1] = line;
            owner[n - 1] = app_id;
            return;
        }
    }
    if (n >= c->assoc) {
        set_remove(tags, owner, n, 0);
        n--;
    }
    tags[n] = line;
    owner[n] = app_id;
    c->count[s] = n + 1;
}

/* ------------------------------------------------------------------ */
/* MSHR tables                                                         */
/* ------------------------------------------------------------------ */

static int mshr_init(MSHR *m, int32_t n_entries) {
    int32_t bits = 2;
    while ((1 << bits) < 2 * (n_entries > 1 ? n_entries : 1)) bits++;
    m->n_entries = n_entries;
    m->size = 0;
    m->mask = (1U << bits) - 1;
    m->shift = 64 - bits;
    m->index = (int32_t *)malloc(((size_t)1 << bits) * sizeof(int32_t));
    int32_t n_recs = n_entries > 0 ? n_entries : 1;
    m->recs = (MRec *)calloc((size_t)n_recs, sizeof(MRec));
    m->free_recs = (int32_t *)malloc((size_t)n_recs * sizeof(int32_t));
    if (!m->index || !m->recs || !m->free_recs) return -1;
    for (uint32_t i = 0; i <= m->mask; i++) m->index[i] = -1;
    m->n_free = n_recs;
    for (int32_t i = 0; i < n_recs; i++) m->free_recs[i] = n_recs - 1 - i;
    return 0;
}

static void mshr_free(MSHR *m, int n_recs) {
    if (m->recs)
        for (int i = 0; i < n_recs; i++) free(m->recs[i].v);
    free(m->index);
    free(m->recs);
    free(m->free_recs);
}

static inline uint32_t mshr_home(const MSHR *m, uint64_t key) {
    return (uint32_t)((key * 0x9E3779B97F4A7C15ULL) >> m->shift);
}

/* record id for `key`, or -1 */
static inline int32_t mshr_find(const MSHR *m, uint64_t key) {
    uint32_t i = mshr_home(m, key);
    for (;;) {
        int32_t r = m->index[i];
        if (r < 0) return -1;
        if (m->recs[r].key == key) return r;
        i = (i + 1) & m->mask;
    }
}

static int mrec_append(MRec *r, int32_t waiter) {
    if (r->n == r->cap) {
        int32_t cap = r->cap ? r->cap * 2 : 4;
        int32_t *v = (int32_t *)realloc(r->v, (size_t)cap * sizeof(int32_t));
        if (!v) return -1;
        r->v = v;
        r->cap = cap;
    }
    r->v[r->n++] = waiter;
    return 0;
}

/* pending[key] = [waiter]; the caller checked size < n_entries */
static int mshr_insert(MSHR *m, uint64_t key, int32_t waiter) {
    int32_t r = m->free_recs[--m->n_free];
    MRec *rec = &m->recs[r];
    rec->key = key;
    rec->n = 0;
    if (mrec_append(rec, waiter)) return -1;
    uint32_t i = mshr_home(m, key);
    while (m->index[i] >= 0) i = (i + 1) & m->mask;
    m->index[i] = r;
    m->size++;
    return 0;
}

/* pending.pop(key): unlink the record and return its id (-1 if absent);
 * the caller reads its waiters, then hands it back with mshr_recycle. */
static int32_t mshr_pop(MSHR *m, uint64_t key) {
    uint32_t i = mshr_home(m, key);
    int32_t r;
    for (;;) {
        r = m->index[i];
        if (r < 0) return -1;
        if (m->recs[r].key == key) break;
        i = (i + 1) & m->mask;
    }
    /* backward-shift deletion keeps linear probing tombstone-free */
    m->index[i] = -1;
    uint32_t j = i;
    for (;;) {
        j = (j + 1) & m->mask;
        int32_t rj = m->index[j];
        if (rj < 0) break;
        uint32_t h = mshr_home(m, m->recs[rj].key);
        int stays = (i <= j) ? (i < h && h <= j) : (i < h || h <= j);
        if (!stays) {
            m->index[i] = rj;
            m->index[j] = -1;
            i = j;
        }
    }
    m->size--;
    return r;
}

static inline void mshr_recycle(MSHR *m, int32_t r) { m->free_recs[m->n_free++] = r; }

/* ------------------------------------------------------------------ */
/* Warp address streams (WarpAddressStream)                            */
/* ------------------------------------------------------------------ */

static int stream_seed_now(K *k, Warp *w) {
    const SParams *p = &k->params[w->params];
    const CStream *cs = &k->cstreams[w->cstream];
    w->mt = (MT *)malloc(sizeof(MT));
    w->ring = (uint64_t *)malloc((size_t)p->footprint * sizeof(uint64_t));
    if (!w->mt || !w->ring) return -1;
    mt_seed(w->mt, w->seed);
    /* ring pre-population, in construction order */
    for (int32_t i = 0; i < p->footprint; i++)
        w->ring[i] = cs->base + mt_randbelow(w->mt, p->stream_lines) * p->line_bytes;
    w->ring_pos = 0;
    w->seeded = 1;
    return 0;
}

static uint64_t one_line(K *k, Warp *w) {
    const SParams *p = &k->params[w->params];
    MT *mt = w->mt;
    double r = mt_random(mt);
    if (r < p->p_reuse) return w->ring[mt_randbelow(mt, (uint64_t)p->footprint)];
    r -= p->p_reuse;
    CStream *cs = &k->cstreams[w->cstream];
    if (!(r < p->p_seq)) {
        r -= p->p_seq;
        if (r < p->shared_frac)
            return p->shared_base + mt_randbelow(mt, p->shared_lines) * p->line_bytes;
        cs->offset = mt_randbelow(mt, p->stream_lines) % cs->n_lines;
    }
    uint64_t offset = cs->offset;
    uint64_t line = cs->base + offset * cs->line_bytes;
    offset++;
    cs->offset = offset >= cs->n_lines ? 0 : offset;
    w->ring[w->ring_pos] = line;
    w->ring_pos = (w->ring_pos + 1) % p->footprint;
    return line;
}

/* WarpAddressStream.next_request into the warp's compute transaction */
static int next_request(K *k, Warp *w, Txn *txn) {
    if (!w->seeded && stream_seed_now(k, w)) return -1;
    const SParams *p = &k->params[w->params];
    int64_t gap = p->inst_gap;
    if (p->gap_jitter != 0.0) {
        double v = (double)gap * (p->gap_lo + p->gap_jitter * mt_random(w->mt));
        int64_t g = (int64_t)v;
        gap = g > 1 ? g : 1;
    }
    txn->n_inst = gap;
    if (lines_reserve(txn, (int32_t)p->coalesce)) return -1;
    uint64_t *lines = txn->lines;
    int32_t n = 0;
    if (p->divergent) {
        for (int64_t c = 0; c < p->coalesce; c++) {
            uint64_t line = one_line(k, w);
            int seen = 0;
            for (int32_t i = 0; i < n; i++) {
                if (lines[i] == line) {
                    seen = 1;
                    break;
                }
            }
            if (!seen) lines[n++] = line;
        }
    } else {
        uint64_t first = one_line(k, w);
        for (int64_t c = 0; c < p->coalesce; c++) lines[n++] = first + (uint64_t)c * p->line_bytes;
    }
    txn->n_lines = n;
    return 0;
}

/* ------------------------------------------------------------------ */
/* Warp loop                                                           */
/* ------------------------------------------------------------------ */

static void start_warp(K *k, Core *core, Warp *w, double now) {
    Txn *txn = w->compute_txn;
    if (next_request(k, w, txn)) {
        k->error = ERR_NOMEM;
        return;
    }
    double free_at = core->issue_free_at;
    double start = now > free_at ? now : free_at;
    double finish = start + (double)txn->n_inst / core->issue_width;
    core->issue_free_at = finish;
    double min_finish = now + (double)txn->n_inst;
    double t = finish > min_finish ? finish : min_finish;
    txn->due = t;
    txn->link = NULL;
    /* stride chain: same-instant completions of one core share an event */
    if (core->tick_head != NULL && core->tick_tail->due == t) {
        core->tick_tail->link = txn;
        core->tick_tail = txn;
        return;
    }
    core->tick_head = txn;
    core->tick_tail = txn;
    push(k, t, EV_TXN, txn, 0);
}

static inline void note_mem_request(K *k, int32_t app_id, double latency) {
    AppStats *s = &k->stats[app_id];
    s->mem_requests += 1;
    s->mem_latency_sum += latency;
}

/* ------------------------------------------------------------------ */
/* Memory hierarchy                                                    */
/* ------------------------------------------------------------------ */

static inline double link_send(Link *port, double now) {
    double fa = port->free_at;
    double start = now > fa ? now : fa;
    double cpp = port->cpp;
    fa = start + cpp;
    port->free_at = fa;
    port->packets += 1;
    port->busy_cycles += cpp;
    port->queue_cycles += start - now;
    return fa + port->latency;
}

static void decide(K *k, Chan *c, double now);

/* _l1_miss */
static void l1_miss(K *k, Core *core, int32_t wi, uint64_t line, double now, Txn *txn) {
    MSHR *m = &core->l1m;
    int32_t r = mshr_find(m, line);
    if (r >= 0) {
        if (mrec_append(&m->recs[r], wi)) k->error = ERR_NOMEM;
        m->merges += 1;
        if (txn) txn_release(k, txn);
        return;
    }
    Warp *w = &k->warps[wi];
    if (m->size >= m->n_entries) {
        m->failures += 1;
        if (!txn) {
            txn = txn_new(k);
            if (!txn) return;
            txn->core = (int32_t)(core - k->cores);
            txn->warp = wi;
            txn->line = line;
            txn->app_id = w->app_id;
        }
        if (tq_push(&core->l1_def, txn)) k->error = ERR_NOMEM;
        return;
    }
    if (mshr_insert(m, line, wi)) k->error = ERR_NOMEM;
    int32_t channel = (int32_t)((line / k->interleave) % k->n_ch);
    double t = link_send(&k->chans[channel].req_port, now);
    if (!txn) {
        txn = txn_new(k);
        if (!txn) return;
        txn->core = (int32_t)(core - k->cores);
        txn->warp = wi;
        txn->line = line;
        txn->app_id = w->app_id;
    }
    txn->stage = L2_ACCESS;
    txn->channel = channel;
    push(k, t, EV_TXN, txn, 0);
}

/* _to_dram */
static void to_dram(K *k, Txn *txn, double now) {
    Chan *c = &k->chans[txn->channel];
    if (c->qlen >= c->capacity) {
        if (tq_push(&c->dram_def, txn)) k->error = ERR_NOMEM;
        c->drain_armed = 1;
        return;
    }
    uint64_t line = txn->line;
    uint64_t il = k->interleave;
    uint64_t local = (line / il / k->n_ch) * il + line % il;
    uint64_t local_row = local / k->row_bytes;
    Req *req = req_alloc(k);
    if (!req) return;
    req->line = line;
    req->app_id = txn->app_id;
    req->bank = (int32_t)(local_row % k->banks);
    req->row = (int64_t)(local_row / k->banks);
    req->enqueue_time = now;
    req->channel = txn->channel;
    req->row_hit = 0;
    /* DRAMChannel.enqueue */
    c->queue[c->qlen++] = req;
    if (!c->deciding) {
        c->deciding = 1;
        push(k, now, EV_DECIDE, c, 0);
    }
    txn_release(k, txn);
}

/* _l2_miss */
static void l2_miss(K *k, Txn *txn, double now) {
    Chan *c = &k->chans[txn->channel];
    MSHR *m = &c->l2m;
    uint64_t line = txn->line;
    int32_t r = mshr_find(m, line);
    if (r >= 0) {
        if (mrec_append(&m->recs[r], txn->core)) k->error = ERR_NOMEM;
        m->merges += 1;
        txn_release(k, txn);
        return;
    }
    if (m->size >= m->n_entries) {
        m->failures += 1;
        if (tq_push(&c->l2_def, txn)) k->error = ERR_NOMEM;
        return;
    }
    if (mshr_insert(m, line, txn->core)) k->error = ERR_NOMEM;
    to_dram(k, txn, now);
}

/* _drain_dram_deferred (DRAMChannel.on_dequeue while armed) */
static void drain_dram_deferred(K *k, Chan *c, double now) {
    TQueue *d = &c->dram_def;
    while (d->n && c->qlen < c->capacity) to_dram(k, tq_popleft(d), now);
    if (!d->n) c->drain_armed = 0;
}

/* Same-instant L1 fill coalescing onto the core's queued fill. */
static void coalesce_fill(K *k, Txn *ft, uint64_t line) {
    if (ft->stage == L1_FILL) {
        ft->stage = L1_FILL_MULTI;
        if (lines_reserve(ft, 2)) {
            k->error = ERR_NOMEM;
            return;
        }
        ft->lines[0] = ft->line;
        ft->lines[1] = line;
        ft->n_lines = 2;
    } else {
        if (lines_reserve(ft, ft->n_lines + 1)) {
            k->error = ERR_NOMEM;
            return;
        }
        ft->lines[ft->n_lines++] = line;
    }
}

/* _dram_done: the data return of one DRAM request */
static void dram_done(K *k, Req *req, double now) {
    AppStats *st = &k->stats[req->app_id];
    st->dram_lines += 1;
    if (req->row_hit)
        st->row_hits += 1;
    else
        st->row_misses += 1;
    uint64_t line = req->line;
    int32_t app_id = req->app_id;
    Chan *c = &k->chans[req->channel];
    cache_fill(&c->l2, line, app_id);
    Link *port = &c->resp_port;
    MSHR *m = &c->l2m;
    int32_t r = mshr_pop(m, line);
    if (r >= 0) {
        MRec *rec = &m->recs[r];
        for (int32_t i = 0; i < rec->n; i++) {
            Core *core = &k->cores[rec->v[i]];
            double t = link_send(port, now);
            Txn *ft = core->fill_txn;
            if (ft != NULL && core->fill_time == t) {
                coalesce_fill(k, ft, line);
                continue;
            }
            Txn *t2 = txn_alloc(k);
            if (!t2) return;
            t2->stage = L1_FILL;
            t2->core = rec->v[i];
            t2->warp = -1;
            t2->line = line;
            t2->app_id = app_id;
            core->fill_txn = t2;
            core->fill_time = t;
            push(k, t, EV_TXN, t2, 0);
        }
        mshr_recycle(m, r);
    }
    TQueue *d = &c->l2_def;
    while (d->n && m->size < m->n_entries) l2_miss(k, tq_popleft(d), now);
    if (pv_push(&k->req_pool, req)) k->error = ERR_NOMEM;
}

/* DRAMChannel._pick */
static int32_t pick(K *k, Chan *c, double now) {
    Req **queue = c->queue;
    Bank *banks = c->banks;
    int32_t window = c->qlen < k->scan_window ? c->qlen : (int32_t)k->scan_window;
    int32_t best = 0;
    double best_ready = INFINITY;
    if (c->hit_streak < k->frfcfs_cap) {
        for (int32_t i = 0; i < window; i++) {
            Req *req = queue[i];
            Bank *bank = &banks[req->bank];
            if (bank->open_row == req->row) return i;
            if (best_ready > now) {
                double ready = bank->free_at;
                if (ready < best_ready) {
                    best = i;
                    best_ready = ready;
                }
            }
        }
        return best;
    }
    for (int32_t i = 0; i < window; i++) {
        double ready = banks[queue[i]->bank].free_at;
        if (ready < best_ready) {
            best = i;
            best_ready = ready;
            if (ready <= now) break;
        }
    }
    return best;
}

/* DRAMChannel._decide */
static void decide(K *k, Chan *c, double now) {
    if (!c->qlen) {
        c->deciding = 0;
        return;
    }
    int32_t i = c->qlen == 1 ? 0 : pick(k, c, now);
    Req *req = c->queue[i];
    for (int32_t j = i; j < c->qlen - 1; j++) c->queue[j] = c->queue[j + 1];
    c->qlen--;
    if (c->drain_armed) drain_dram_deferred(k, c, now);
    Bank *bank = &c->banks[req->bank];
    int64_t group = (int64_t)((uint64_t)req->bank % k->bank_groups);
    double *gcf = c->group_col_free;
    int64_t row = req->row;
    double col_issue;
    int row_hit = bank->open_row == row;
    req->row_hit = row_hit;
    if (row_hit) {
        c->hit_streak += 1;
        col_issue = now;
        if (bank->free_at > col_issue) col_issue = bank->free_at;
        if (gcf[group] > col_issue) col_issue = gcf[group];
    } else {
        c->hit_streak = 0;
        double act_start = now;
        if (bank->free_at > act_start) act_start = bank->free_at;
        double rrd_ok = c->last_activate + k->t_rrd;
        if (rrd_ok > act_start) act_start = rrd_ok;
        if (bank->open_row >= 0) {
            if (bank->ras_until > act_start) act_start = bank->ras_until;
            act_start += k->t_rp;
        }
        c->last_activate = act_start;
        bank->ras_until = act_start + k->t_ras;
        bank->open_row = row;
        col_issue = act_start + k->t_rcd;
        if (gcf[group] > col_issue) col_issue = gcf[group];
    }
    double t_ccd = k->t_ccd;
    double data_ready = col_issue + k->t_cl;
    gcf[group] = col_issue + t_ccd;
    double bus_free = c->bus_free;
    double data_start = data_ready > bus_free ? data_ready : bus_free;
    double data_end = data_start + k->burst;
    c->bus_free = data_end;
    bank->free_at = col_issue + t_ccd;
    c->busy_cycles += k->burst;
    push(k, data_end, EV_REQ, req, 0);
    if (!c->qlen) {
        c->deciding = 0;
        return;
    }
    double next_decision = now + t_ccd;
    double lagged = data_end - k->lookahead;
    if (lagged > next_decision) next_decision = lagged;
    push(k, next_decision, EV_DECIDE, c, 0);
}

/* ------------------------------------------------------------------ */
/* Transaction dispatch (Simulator._dispatch)                          */
/* ------------------------------------------------------------------ */

static void wake_waiters(K *k, Core *core, MSHR *m, uint64_t line, double now) {
    int32_t r = mshr_pop(m, line);
    if (r < 0) return;
    MRec *rec = &m->recs[r];
    for (int32_t i = 0; i < rec->n; i++) {
        Warp *w = &k->warps[rec->v[i]];
        int64_t pending = w->pending - 1;
        w->pending = pending;
        if (pending == 0) {
            note_mem_request(k, w->app_id, now - w->issue_time);
            if (w->active)
                start_warp(k, core, w, now);
            else
                w->parked = 1;
        } else if (pending < 0) {
            k->error = ERR_OVER_RESPONSE;
            return;
        }
    }
    mshr_recycle(m, r);
}

static void drain_l1_deferred(K *k, Core *core, double now) {
    TQueue *d = &core->l1_def;
    MSHR *m = &core->l1m;
    while (d->n && m->size < m->n_entries) {
        Txn *t2 = tq_popleft(d);
        l1_miss(k, &k->cores[t2->core], t2->warp, t2->line, now, t2);
    }
}

static void compute_done(K *k, Txn *txn, double now) {
    Core *core = &k->cores[txn->core];
    if (core->tick_head == txn) core->tick_head = NULL;
    for (;;) {
        Txn *nxt = txn->link;
        txn->link = NULL;
        int32_t wi = txn->warp;
        Warp *w = &k->warps[wi];
        AppStats *stats = &k->stats[w->app_id];
        stats->insts += txn->n_inst;
        w->iterations += 1;
        int32_t n = txn->n_lines;
        if (n == 0) {
            if (w->active)
                start_warp(k, core, w, now);
            else
                w->parked = 1;
        } else {
            w->pending = n;
            w->issue_time = now;
            Cache *l1 = &core->l1;
            MSHR *m = &core->l1m;
            int32_t app_id = w->app_id;
            int32_t n_hits = 0, n_misses = 0;
            const uint64_t *lines = txn->lines;
            for (int32_t i = 0; i < n; i++) {
                uint64_t line = lines[i];
                if (cache_touch(l1, line)) {
                    n_hits++;
                    continue;
                }
                n_misses++;
                int32_t r = mshr_find(m, line);
                if (r >= 0) {
                    if (mrec_append(&m->recs[r], wi)) k->error = ERR_NOMEM;
                    m->merges += 1;
                    continue;
                }
                if (m->size >= m->n_entries) {
                    m->failures += 1;
                    Txn *t2 = txn_alloc(k);
                    if (!t2) return;
                    t2->core = txn->core;
                    t2->warp = wi;
                    t2->line = line;
                    t2->app_id = app_id;
                    if (tq_push(&core->l1_def, t2)) k->error = ERR_NOMEM;
                    continue;
                }
                if (mshr_insert(m, line, wi)) k->error = ERR_NOMEM;
                int32_t channel = (int32_t)((line / k->interleave) % k->n_ch);
                double t = link_send(&k->chans[channel].req_port, now);
                Txn *t2 = txn_alloc(k);
                if (!t2) return;
                t2->stage = L2_ACCESS;
                t2->core = txn->core;
                t2->warp = wi;
                t2->line = line;
                t2->app_id = app_id;
                t2->channel = channel;
                push(k, t, EV_TXN, t2, 0);
            }
            stats->l1_accesses += n;
            if (n_misses) stats->l1_misses += n_misses;
            if (n_hits) {
                if (n_misses) {
                    Txn *resp = w->resp_txn;
                    resp->n = n_hits;
                    push(k, now + k->l1_hit_latency, EV_TXN, resp, 0);
                } else {
                    /* all-hit fold: complete the memory instruction here */
                    w->pending = 0;
                    double t = now + k->l1_hit_latency;
                    note_mem_request(k, app_id, t - now);
                    if (w->active)
                        start_warp(k, core, w, t);
                    else
                        w->parked = 1;
                }
            }
        }
        if (nxt == NULL || k->error) return;
        txn = nxt;
        now = txn->due;
    }
}

static void l2_access(K *k, Txn *txn, double now) {
    Chan *c = &k->chans[txn->channel];
    int32_t app_id = txn->app_id;
    uint64_t line = txn->line;
    Cache *l2 = &c->l2;
    int hit = cache_touch(l2, line);
    AppStats *stats = &k->stats[app_id];
    stats->l2_accesses += 1;
    if (hit) {
        double t = link_send(&c->resp_port, now + k->l2_hit_latency);
        Core *core = &k->cores[txn->core];
        Txn *ft = core->fill_txn;
        if (ft != NULL && core->fill_time == t) {
            coalesce_fill(k, ft, line);
            txn_release(k, txn);
            return;
        }
        txn->stage = L1_FILL;
        core->fill_txn = txn;
        core->fill_time = t;
        push(k, t, EV_TXN, txn, 0);
        return;
    }
    stats->l2_misses += 1;
    MSHR *m = &c->l2m;
    int32_t r = mshr_find(m, line);
    if (r >= 0) {
        if (mrec_append(&m->recs[r], txn->core)) k->error = ERR_NOMEM;
        m->merges += 1;
        txn_release(k, txn);
        return;
    }
    if (m->size >= m->n_entries) {
        m->failures += 1;
        if (tq_push(&c->l2_def, txn)) k->error = ERR_NOMEM;
        return;
    }
    if (mshr_insert(m, line, txn->core)) k->error = ERR_NOMEM;
    if (c->qlen >= c->capacity) {
        if (tq_push(&c->dram_def, txn)) k->error = ERR_NOMEM;
        c->drain_armed = 1;
        return;
    }
    uint64_t il = k->interleave;
    uint64_t local = (line / il / k->n_ch) * il + line % il;
    uint64_t local_row = local / k->row_bytes;
    Req *req = req_alloc(k);
    if (!req) return;
    req->line = line;
    req->app_id = app_id;
    req->bank = (int32_t)(local_row % k->banks);
    req->row = (int64_t)(local_row / k->banks);
    req->enqueue_time = now;
    req->channel = txn->channel;
    req->row_hit = 0;
    c->queue[c->qlen++] = req;
    txn_release(k, txn);
    if (!c->deciding) {
        c->deciding = 1;
        /* synchronous first decision, unless a same-instant event was
         * queued first (it must run first to keep (time, seq) order) */
        if (k->hsize && k->heap[0].time == now)
            push(k, now, EV_DECIDE, c, 0);
        else
            decide(k, c, now);
    }
}

static void dispatch(K *k, Txn *txn, double now) {
    int32_t stage = txn->stage;
    k->prof[stage] += 1;
    switch (stage) {
    case COMPUTE_DONE:
        compute_done(k, txn, now);
        return;
    case L1_FILL: {
        Core *core = &k->cores[txn->core];
        if (core->fill_txn == txn) core->fill_txn = NULL;
        cache_fill(&core->l1, txn->line, txn->app_id);
        wake_waiters(k, core, &core->l1m, txn->line, now);
        if (k->error) return;
        drain_l1_deferred(k, core, now);
        txn_release(k, txn);
        return;
    }
    case L1_FILL_MULTI: {
        Core *core = &k->cores[txn->core];
        if (core->fill_txn == txn) core->fill_txn = NULL;
        int32_t app_id = txn->app_id;
        for (int32_t i = 0; i < txn->n_lines; i++) {
            uint64_t line = txn->lines[i];
            cache_fill(&core->l1, line, app_id);
            wake_waiters(k, core, &core->l1m, line, now);
            if (k->error) return;
            drain_l1_deferred(k, core, now);
        }
        txn->n_lines = 0;
        txn_release(k, txn);
        return;
    }
    case L2_ACCESS:
        l2_access(k, txn, now);
        return;
    case WARP_RESP: {
        Warp *w = &k->warps[txn->warp];
        int64_t pending = w->pending - txn->n;
        w->pending = pending;
        if (pending < 0) {
            k->error = ERR_OVER_RESPONSE;
            return;
        }
        if (pending == 0) {
            note_mem_request(k, w->app_id, now - w->issue_time);
            if (w->active)
                start_warp(k, &k->cores[txn->core], w, now);
            else
                w->parked = 1;
        }
        return;
    }
    }
}

/* ------------------------------------------------------------------ */
/* Public API (ctypes)                                                 */
/* ------------------------------------------------------------------ */

void rk_free(K *k);

/*
 * dparams: l1_hit_latency, l2_hit_latency, t_ccd, t_cl, t_rp, t_rcd,
 *          t_ras, t_rrd, burst, lookahead, req_latency, req_cpp,
 *          resp_latency, resp_cpp
 * iparams: n_apps, n_cores, n_channels, max_tlp, schedulers, interleave,
 *          row_bytes, banks, bank_groups, frfcfs_cap, scan_window,
 *          dram_capacity, l2_sets, l2_assoc, l2_line_bytes, l2_mshr
 */
K *rk_new(const double *dp, const int64_t *ip) {
    K *k = (K *)calloc(1, sizeof(K));
    if (!k) return NULL;
    k->l1_hit_latency = dp[0];
    k->l2_hit_latency = dp[1];
    k->t_ccd = dp[2];
    k->t_cl = dp[3];
    k->t_rp = dp[4];
    k->t_rcd = dp[5];
    k->t_ras = dp[6];
    k->t_rrd = dp[7];
    k->burst = dp[8];
    k->lookahead = dp[9];
    k->n_apps = (int32_t)ip[0];
    k->n_cores = (int32_t)ip[1];
    k->n_channels = (int32_t)ip[2];
    k->max_tlp = (int32_t)ip[3];
    k->schedulers = (int32_t)ip[4];
    k->interleave = (uint64_t)ip[5];
    k->n_ch = (uint64_t)ip[2];
    k->row_bytes = (uint64_t)ip[6];
    k->banks = (uint64_t)ip[7];
    k->bank_groups = (uint64_t)ip[8];
    k->frfcfs_cap = ip[9];
    k->scan_window = ip[10];
    k->hcap = 1024;
    k->heap = (Event *)malloc((size_t)k->hcap * sizeof(Event));
    k->cores = (Core *)calloc((size_t)k->n_cores, sizeof(Core));
    k->chans = (Chan *)calloc((size_t)k->n_channels, sizeof(Chan));
    k->stats = (AppStats *)calloc((size_t)k->n_apps, sizeof(AppStats));
    if (!k->heap || !k->cores || !k->chans || !k->stats) {
        rk_free(k);
        return NULL;
    }
    for (int32_t ch = 0; ch < k->n_channels; ch++) {
        Chan *c = &k->chans[ch];
        c->req_port.latency = dp[10];
        c->req_port.cpp = dp[11];
        c->resp_port.latency = dp[12];
        c->resp_port.cpp = dp[13];
        c->capacity = (int32_t)ip[11];
        c->last_activate = -1e18;
        c->banks = (Bank *)calloc((size_t)k->banks, sizeof(Bank));
        c->group_col_free = (double *)calloc((size_t)k->bank_groups, sizeof(double));
        c->queue = (Req **)malloc((size_t)(c->capacity > 0 ? c->capacity : 1) * sizeof(Req *));
        if (!c->banks || !c->group_col_free || !c->queue ||
            cache_init(&c->l2, ip[12], ip[13], (uint64_t)ip[14], k->n_apps) ||
            mshr_init(&c->l2m, (int32_t)ip[15])) {
            rk_free(k);
            return NULL;
        }
        for (uint64_t b = 0; b < k->banks; b++) c->banks[b].open_row = -1;
    }
    return k;
}

/* One core: its app, warp range, issue width and private L1/MSHR. */
int rk_set_core(K *k, int32_t core, int32_t app_id, int32_t first_warp, int32_t n_warps,
                double issue_width, int32_t tlp, int64_t l1_sets, int64_t l1_assoc,
                int64_t l1_line_bytes, int32_t l1_mshr) {
    Core *c = &k->cores[core];
    c->app_id = app_id;
    c->first_warp = first_warp;
    c->n_warps = n_warps;
    c->issue_width = issue_width;
    c->tlp = tlp;
    c->fill_time = -1.0;
    if (cache_init(&c->l1, l1_sets, l1_assoc, (uint64_t)l1_line_bytes, k->n_apps)) return -1;
    if (mshr_init(&c->l1m, l1_mshr)) return -1;
    return 0;
}

/* Stream parameter table: dp = gap_jitter, gap_lo, p_reuse, p_seq,
 * shared_frac; ip = inst_gap, shared_lines, stream_lines, divergent,
 * coalesce, line_bytes, shared_base, footprint (one row per entry). */
int rk_set_params(K *k, int32_t n, const double *dp, const int64_t *ip) {
    k->params = (SParams *)calloc((size_t)(n > 0 ? n : 1), sizeof(SParams));
    if (!k->params) return -1;
    k->n_params = n;
    for (int32_t i = 0; i < n; i++) {
        SParams *p = &k->params[i];
        const double *d = dp + 5 * i;
        const int64_t *q = ip + 8 * i;
        p->gap_jitter = d[0];
        p->gap_lo = d[1];
        p->p_reuse = d[2];
        p->p_seq = d[3];
        p->shared_frac = d[4];
        p->inst_gap = q[0];
        p->shared_lines = (uint64_t)q[1];
        p->stream_lines = (uint64_t)q[2];
        p->divergent = (int32_t)q[3];
        p->coalesce = q[4];
        p->line_bytes = (uint64_t)q[5];
        p->shared_base = (uint64_t)q[6];
        p->footprint = (int32_t)q[7];
    }
    return 0;
}

/* CoreStream table: base, n_lines, line_bytes, offset per entry. */
int rk_set_cstreams(K *k, int32_t n, const int64_t *ip) {
    k->cstreams = (CStream *)calloc((size_t)(n > 0 ? n : 1), sizeof(CStream));
    if (!k->cstreams) return -1;
    k->n_cstreams = n;
    for (int32_t i = 0; i < n; i++) {
        CStream *cs = &k->cstreams[i];
        cs->base = (uint64_t)ip[4 * i];
        cs->n_lines = (uint64_t)ip[4 * i + 1];
        cs->line_bytes = (uint64_t)ip[4 * i + 2];
        cs->offset = (uint64_t)ip[4 * i + 3];
    }
    return 0;
}

/* All warps, core-major: per warp its core, stream seed, parameter row
 * and core stream. */
int rk_set_warps(K *k, int32_t n, const int32_t *core, const uint64_t *seed,
                 const int32_t *params, const int32_t *cstream) {
    k->warps = (Warp *)calloc((size_t)(n > 0 ? n : 1), sizeof(Warp));
    if (!k->warps) return -1;
    k->n_warps = n;
    for (int32_t i = 0; i < n; i++) {
        Warp *w = &k->warps[i];
        w->core = core[i];
        w->app_id = k->cores[core[i]].app_id;
        w->parked = 1;
        w->seed = seed[i];
        w->params = params[i];
        w->cstream = cstream[i];
        w->compute_txn = txn_new(k);
        w->resp_txn = txn_new(k);
        if (!w->compute_txn || !w->resp_txn) return -1;
        w->compute_txn->stage = COMPUTE_DONE;
        w->compute_txn->core = core[i];
        w->compute_txn->warp = i;
        w->compute_txn->app_id = w->app_id;
        w->resp_txn->stage = WARP_RESP;
        w->resp_txn->core = core[i];
        w->resp_txn->warp = i;
        w->resp_txn->app_id = w->app_id;
    }
    return 0;
}

/* level 1: the L1 of core `idx`; level 2: the L2 slice of channel `idx`. */
static Cache *cache_at(K *k, int32_t level, int32_t idx) {
    return level == 1 ? &k->cores[idx].l1 : &k->chans[idx].l2;
}

void rk_set_quota(K *k, int32_t level, int32_t idx, int32_t app_id, int32_t quota) {
    Cache *c = cache_at(k, level, idx);
    if (c->quota[app_id] < 0 && quota >= 0) c->n_quota++;
    if (c->quota[app_id] >= 0 && quota < 0) c->n_quota--;
    c->quota[app_id] = quota;
}

void rk_set_bypass(K *k, int32_t level, int32_t idx, int32_t app_id, int32_t on) {
    Cache *c = cache_at(k, level, idx);
    on = on ? 1 : 0;
    if (c->bypass[app_id] != on) c->n_bypass += on ? 1 : -1;
    c->bypass[app_id] = (uint8_t)on;
}

/* Core.set_tlp on every core of `app_id`, restarting parked warps the
 * new limit admits (Simulator.set_tlp after clamping). */
void rk_set_tlp(K *k, int32_t app_id, int32_t tlp, double now) {
    for (int32_t ci = 0; ci < k->n_cores; ci++) {
        Core *core = &k->cores[ci];
        if (core->app_id != app_id) continue;
        core->tlp = tlp < k->max_tlp ? tlp : k->max_tlp;
        int64_t limit = (int64_t)core->tlp * k->schedulers;
        if (limit > core->n_warps) limit = core->n_warps;
        for (int32_t i = 0; i < core->n_warps; i++) {
            Warp *w = &k->warps[core->first_warp + i];
            int should_run = i < limit;
            if (should_run && !w->active) {
                w->active = 1;
                if (w->parked) {
                    w->parked = 0;
                    start_warp(k, core, w, now);
                }
            } else if (!should_run && w->active) {
                w->active = 0;
            }
        }
    }
}

void rk_push_py(K *k, double time, int64_t handle) { push(k, time, EV_PY, NULL, handle); }

/* Run events with time <= t_end.  Returns 0 when the horizon is reached,
 * 1 when a Python event is due (its time and handle in the out
 * parameters; it has been popped), or -error. */
int32_t rk_run(K *k, double t_end, double *out_time, int64_t *out_handle) {
    while (k->hsize && k->heap[0].time <= t_end) {
        Event e = pop(k);
        k->now = e.time;
        switch ((int)(e.aux & 0xFF)) {
        case EV_TXN:
            dispatch(k, (Txn *)e.obj, e.time);
            break;
        case EV_REQ:
            dram_done(k, (Req *)e.obj, e.time);
            break;
        case EV_DECIDE:
            decide(k, (Chan *)e.obj, e.time);
            break;
        default:
            *out_time = e.time;
            *out_handle = e.aux >> 8;
            return 1;
        }
        if (k->error) return -k->error;
    }
    k->now = t_end;
    return 0;
}

int64_t rk_queue_len(K *k) { return k->hsize; }

/* Events run so far: every push took one seq, and the queued ones have
 * not run yet. */
int64_t rk_events_run(K *k) { return (int64_t)k->seq - k->hsize; }

void rk_prof(K *k, int64_t *out) {
    for (int i = 0; i < N_STAGES; i++) out[i] = k->prof[i];
}

/* Per app: 9 integer counters (AppStats field order without
 * mem_latency_sum) and mem_latency_sum; per channel: busy_cycles. */
void rk_read_stats(K *k, int64_t *ints, double *dbls) {
    for (int32_t a = 0; a < k->n_apps; a++) {
        AppStats *s = &k->stats[a];
        int64_t *o = ints + 9 * a;
        o[0] = s->insts;
        o[1] = s->l1_accesses;
        o[2] = s->l1_misses;
        o[3] = s->l2_accesses;
        o[4] = s->l2_misses;
        o[5] = s->dram_lines;
        o[6] = s->mem_requests;
        o[7] = s->row_hits;
        o[8] = s->row_misses;
        dbls[a] = s->mem_latency_sum;
    }
    double *cd = dbls + k->n_apps;
    for (int32_t ch = 0; ch < k->n_channels; ch++) cd[ch] = k->chans[ch].busy_cycles;
}

/* MSHR counters: merges, allocation failures. */
void rk_read_mshr(K *k, int32_t level, int32_t idx, int64_t *out) {
    MSHR *m = level == 1 ? &k->cores[idx].l1m : &k->chans[idx].l2m;
    out[0] = m->merges;
    out[1] = m->failures;
}

/* Warp state: active, parked, pending, iterations per warp. */
void rk_read_warps(K *k, int64_t *out) {
    for (int32_t i = 0; i < k->n_warps; i++) {
        Warp *w = &k->warps[i];
        out[4 * i] = w->active;
        out[4 * i + 1] = w->parked;
        out[4 * i + 2] = w->pending;
        out[4 * i + 3] = w->iterations;
    }
}

/* Link state: free_at, busy_cycles, queue_cycles, packets. */
void rk_read_link(K *k, int32_t response, int32_t ch, double *out) {
    Link *l = response ? &k->chans[ch].resp_port : &k->chans[ch].req_port;
    out[0] = l->free_at;
    out[1] = l->busy_cycles;
    out[2] = l->queue_cycles;
    out[3] = (double)l->packets;
}

void rk_free(K *k) {
    if (!k) return;
    if (k->cores) {
        for (int32_t i = 0; i < k->n_cores; i++) {
            cache_free(&k->cores[i].l1);
            mshr_free(&k->cores[i].l1m, k->cores[i].l1m.n_entries > 0 ? k->cores[i].l1m.n_entries : 1);
            free(k->cores[i].l1_def.buf);
        }
    }
    if (k->chans) {
        for (int32_t i = 0; i < k->n_channels; i++) {
            Chan *c = &k->chans[i];
            cache_free(&c->l2);
            mshr_free(&c->l2m, c->l2m.n_entries > 0 ? c->l2m.n_entries : 1);
            free(c->l2_def.buf);
            free(c->dram_def.buf);
            free(c->banks);
            free(c->group_col_free);
            free(c->queue);
        }
    }
    if (k->warps) {
        for (int32_t i = 0; i < k->n_warps; i++) {
            free(k->warps[i].mt);
            free(k->warps[i].ring);
        }
    }
    for (int64_t i = 0; i < k->all_txns.n; i++) {
        Txn *t = (Txn *)k->all_txns.v[i];
        free(t->lines);
        free(t);
    }
    for (int64_t i = 0; i < k->all_reqs.n; i++) free(k->all_reqs.v[i]);
    free(k->all_txns.v);
    free(k->all_reqs.v);
    free(k->txn_pool.v);
    free(k->req_pool.v);
    free(k->heap);
    free(k->cores);
    free(k->chans);
    free(k->warps);
    free(k->params);
    free(k->cstreams);
    free(k->stats);
    free(k);
}
