/* Compiled frontier kernel for CSREngine (IC and LT over CSR).
 *
 * run_many runs a block of trials with one seed set. Coins are the
 * counter-based splitmix64 stream of repro/diffusion/rng.py: a trial's
 * base key is sm64(stream ^ sm64(trial_seed)) and the uniform for id i is
 * (sm64(base + i) >> 11) * 2^-53, so every trial is bit-identical to the
 * interpreted engines. Work per trial is proportional to the out-edges of
 * activated nodes (Observation 1): scratch arrays arrive reset (act = -1,
 * acc = 0) and only the entries a trial touched are reset after it.
 *
 * queue holds activated nodes in activation order; the frontier of round
 * t is the slice the previous round appended. Seeds must be unique and
 * ascending. LT sorts each new frontier ascending with sort_ids: insertion
 * sort below 32 ids, else an LSD radix sort over 8-bit digits of ids below
 * n, buffered in cand, which is free once the round's thresholds are read.
 *
 * One run_many call runs a whole block on the threads it is given: it
 * starts threads - 1 POSIX threads, runs on the calling thread too, and
 * joins them all before it returns, so no thread outlives a call. Each
 * thread allocates its own scratch and claims its next trial index from a
 * counter local to the call (a relaxed atomic add), so no thread waits on
 * a fixed slice. Each trial resets the previous trial's nodes before it
 * starts, so with one thread, act holds on return the activation times
 * (-1 for inactive nodes) of the block's last trial; its number of
 * iterations is the largest of them, so no function returns it.
 *
 * IC has one traversal, ic_search, which run_many and ic_gains share. The
 * gains call serves CELF: a trial's live edges are fixed by its coins, so
 * its activated set is the set reachable from the seeds over them, and
 * R_k(S + {c}) = R_k(S) + R_k(c). run_many marks R_k(S) once per trial when
 * given a reach matrix; ic_gains then counts, per trial and candidate, only
 * the nodes a search from c reaches outside R_k(S). Given live-edge
 * scratch, it first hashes each coin once per trial into that trial's
 * live-edge graph (its "snapshot", Kempe et al. 2003), which every
 * candidate's search then walks without hashing (CELF's first pass, one
 * call over every node); without it, each search hashes the coin of every
 * edge it scans. Both give the same integer totals. The mode without
 * scratch also runs CELF's lazy rounds, one call per chunk of stale heap
 * entries: it stops at the first candidate that the best fresh gain so far
 * beats, as Python's heap loop would, and returns how many it evaluated.
 *
 * Scans that read coins or weights run in two phases per chunk of at most
 * CHUNK out-edges of one node, with the chunk's edge ids in a stack buffer.
 * The gather keeps the edges whose target is inactive, without a branch;
 * then IC hashes the coins of the gathered edges only and appends the live
 * targets, checking each again in case a parallel edge entered it first,
 * and LT pushes the gathered edges' weights. Edge order, queue order, LT
 * summation order and every coin that decides a node are those of a plain
 * loop over the edges. Loops that read neither, the snapshot builder and a
 * search over a snapshot, stay single loops: the builder skips edges into
 * R_k(S), which is empty in CELF's first pass, and a snapshot has about
 * one live edge per node under WC, so a gather has little to drop there.
 */
#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Edges per scan chunk: the chunk's edge ids fit in a 2 KB stack buffer. */
#define CHUNK 256
#define ALWAYS_INLINE __attribute__((always_inline))

static inline uint64_t sm64(uint64_t x) {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

static inline double uniform(uint64_t base, uint64_t id) {
    return (double)(sm64(base + id) >> 11) * (1.0 / 9007199254740992.0);
}

/* Sorts ids[0..len), each in [0, n), ascending; buf holds len ids. */
static inline void sort_ids(int64_t *ids, int64_t len, int64_t *buf, int64_t n) {
    if (len < 32) {
        for (int64_t i = 1; i < len; i++) {
            int64_t v = ids[i], j = i;
            for (; j > 0 && ids[j - 1] > v; j--) ids[j] = ids[j - 1];
            ids[j] = v;
        }
        return;
    }
    int64_t *src = ids, *dst = buf;
    for (int shift = 0; shift < 64 && (uint64_t)(n - 1) >> shift; shift += 8) {
        int64_t at[257] = {0};
        for (int64_t i = 0; i < len; i++) at[((src[i] >> shift) & 255) + 1]++;
        for (int d = 0; d < 256; d++) at[d + 1] += at[d];
        for (int64_t i = 0; i < len; i++) dst[at[(src[i] >> shift) & 255]++] = src[i];
        int64_t *t = src;
        src = dst;
        dst = t;
    }
    if (src != ids) memcpy(ids, src, (size_t)len * sizeof(int64_t));
}

/* Breadth-first search from queue[0..qlen), whose act entries are set: it
 * enters v over a live edge u->v when act[v] < 0, sets act[v] = act[u] + 1,
 * appends v to queue and returns the new queue length. The queue is FIFO,
 * so round t's nodes are expanded in the order they were activated and the
 * last node has the largest time.
 *
 * With coins, edge e is live when its coin is below w[e], and v must also
 * be unmarked in skip (if given). Each node's edges are then scanned in
 * chunks of at most CHUNK, in three phases:
 * - the gather writes every edge id to buf and keeps it only if its target
 *   is open, without a branch: on a flooding trial about half the targets
 *   are active, and a branch on act[v] would mispredict on every other edge;
 * - the hash keeps, in place, the gathered edges whose coin is live, again
 *   without a branch, so no coin of an edge into an active node is hashed;
 * - the append enters the live targets in edge order and checks act[v] < 0
 *   again: parallel edges u->v in one chunk are all gathered, and only the
 *   first live one may enter v. The later ones' coins are the only coins a
 *   one-loop scan would not hash; no count or time changes.
 *
 * Without coins, indptr and indices are a trial's live-edge snapshot (see
 * ic_gains): every edge is live, w and skip are not read, and one loop
 * scans each node's edges. Snapshot nodes have about one live edge each
 * under WC, too few for the phases to pay.
 *
 * Every caller passes coins as a literal, and run_many passes skip as NULL,
 * so an inlined copy drops their tests. ALWAYS_INLINE keeps it inlined:
 * GCC's -O2 heuristics stop inlining a function this long. */
static inline ALWAYS_INLINE int64_t ic_search(const int64_t *indptr, const int64_t *indices,
                                             const double *w, uint64_t base, int coins,
                                             const uint8_t *skip, int32_t *act,
                                             int64_t *queue, int64_t qlen) {
    int64_t buf[CHUNK];
    for (int64_t i = 0; i < qlen; i++) {
        int64_t u = queue[i], end = indptr[u + 1];
        int32_t t = act[u] + 1;
        if (!coins) {
            for (int64_t e = indptr[u]; e < end; e++) {
                int64_t v = indices[e];
                if (act[v] < 0) {
                    act[v] = t;
                    queue[qlen++] = v;
                }
            }
            continue;
        }
        for (int64_t c = indptr[u]; c < end; c += CHUNK) {
            int64_t c_end = end - c < CHUNK ? end : c + CHUNK, nb = 0, nl = 0;
            for (int64_t e = c; e < c_end; e++) {
                int64_t v = indices[e];
                buf[nb] = e;
                nb += (act[v] < 0) & !(skip && skip[v]);
            }
            for (int64_t j = 0; j < nb; j++) {
                int64_t e = buf[j];
                buf[nl] = e;
                nl += uniform(base, (uint64_t)e) < w[e];
            }
            for (int64_t j = 0; j < nl; j++) {
                int64_t v = indices[buf[j]];
                if (act[v] < 0) {
                    act[v] = t;
                    queue[qlen++] = v;
                }
            }
        }
    }
    return qlen;
}

/* LT rounds from queue[0..qlen), whose act entries are 0: each activated
 * u pushes w(u->v) into acc[v] once, walking the frontier in ascending node
 * order and each node's edges in CSR order, so the floating-point sums
 * equal the interpreted engines'. While it runs, act[v] == -2 marks a node
 * that holds weight and -3 a node that received weight this round; both
 * count as inactive. touched and cand are appended without a branch: each
 * write lands one past the list's end and counts only for a new entry; a
 * seed never lands there, so neither index passes n - 1. Returns the queue
 * length, with acc all zero again and every act entry -1 or a time.
 *
 * Each node's edges are scanned in chunks of at most CHUNK, as in
 * ic_search: the gather keeps, without a branch, the edges whose target is
 * inactive, and the push runs over them in edge order. A push moves act
 * only among -1, -2 and -3, all inactive, so every gathered edge is still
 * one to push and the sums and their order are a one-loop scan's. */
static inline int64_t lt_search(const int64_t *indptr, const int64_t *indices,
                                const double *w, uint64_t base, int32_t *act,
                                int64_t *queue, int64_t qlen, int64_t n,
                                double *acc, int64_t *touched, int64_t *cand) {
    int64_t buf[CHUNK], lo = 0, n_touched = 0;
    for (int32_t t = 0; lo < qlen; t++) {
        int64_t hi = qlen, n_cand = 0;
        for (int64_t i = lo; i < hi; i++) {
            int64_t u = queue[i], end = indptr[u + 1];
            for (int64_t c = indptr[u]; c < end; c += CHUNK) {
                int64_t c_end = end - c < CHUNK ? end : c + CHUNK, nb = 0;
                for (int64_t e = c; e < c_end; e++) {
                    buf[nb] = e;
                    nb += act[indices[e]] < 0;
                }
                for (int64_t j = 0; j < nb; j++) {
                    int64_t e = buf[j], v = indices[e];
                    int32_t a = act[v];
                    acc[v] += w[e];
                    touched[n_touched] = v;
                    n_touched += a == -1;
                    cand[n_cand] = v;
                    n_cand += a != -3;
                    act[v] = -3;
                }
            }
        }
        for (int64_t i = 0; i < n_cand; i++) {
            int64_t v = cand[i];
            if (acc[v] >= uniform(base, (uint64_t)v)) {
                act[v] = t + 1;
                queue[qlen++] = v;
            } else {
                act[v] = -2;
            }
        }
        sort_ids(queue + hi, qlen - hi, cand, n);
        lo = hi;
    }
    for (int64_t i = 0; i < n_touched; i++) {
        int64_t v = touched[i];
        acc[v] = 0.0;
        if (act[v] < 0) act[v] = -1;
    }
    return qlen;
}

/* One run_many call's block, shared by its threads. */
struct block {
    const int64_t *indptr, *indices, *seeds;
    const double *w;
    const uint64_t *trials;
    int64_t n_seeds, n_trials, n, next, lt; /* next: the next trial index to claim */
    uint64_t stream;
    int64_t *counts;
    uint8_t *reach;
};

/* Runs the trials it claims from b->next until none is left, on scratch
 * it allocates: act unless given (n activation times, all -1), a queue
 * and, under LT, acc (zeroed), touched and cand. If an allocation fails it
 * claims nothing, so another thread runs its trials. */
static void run_trials(struct block *b, int32_t *act) {
    int64_t n = b->n, qlen = 0, lt = b->lt;
    int32_t *own = act ? NULL : malloc((size_t)n * sizeof *own);
    int64_t *queue = malloc((size_t)n * sizeof *queue);
    double *acc = lt ? calloc((size_t)n, sizeof *acc) : NULL;
    int64_t *touched = lt ? malloc((size_t)n * sizeof *touched) : NULL;
    int64_t *cand = lt ? malloc((size_t)n * sizeof *cand) : NULL;
    if (own) act = memset(own, 0xff, (size_t)n * sizeof *own); /* every entry -1 */
    if (act && queue && (!lt || (acc && touched && cand))) {
        for (int64_t k; (k = __atomic_fetch_add(&b->next, 1, __ATOMIC_RELAXED)) < b->n_trials;) {
            for (int64_t i = 0; i < qlen; i++) act[queue[i]] = -1;
            uint64_t base = sm64(b->stream ^ sm64(b->trials[k]));
            for (int64_t i = 0; i < b->n_seeds; i++) {
                act[b->seeds[i]] = 0;
                queue[i] = b->seeds[i];
            }
            qlen = lt
                ? lt_search(b->indptr, b->indices, b->w, base, act, queue, b->n_seeds, n, acc,
                            touched, cand)
                : ic_search(b->indptr, b->indices, b->w, base, 1, NULL, act, queue, b->n_seeds);
            b->counts[k] = qlen;
            if (b->reach)
                for (int64_t i = 0; i < qlen; i++) b->reach[k * n + queue[i]] = 1;
        }
    }
    free(own), free(queue), free(acc), free(touched), free(cand);
}

static void *run_thread(void *b) {
    run_trials(b, NULL);
    return NULL;
}

/* Runs the block's n_trials trials on up to threads threads, the calling
 * thread among them, writing counts[k] for each trial k, under LT if lt,
 * else IC. The calling thread uses act (n entries, arriving -1) as its
 * activation times if given. If reach is given (n_trials x n bytes,
 * arriving zeroed), row k marks R_k(seeds). A thread that cannot be
 * started leaves its trials to the others. Returns 0, or -1 when no
 * thread could allocate its scratch and the block did not run. */
int64_t run_many(const int64_t *indptr, const int64_t *indices, const double *w,
                 const int64_t *seeds, int64_t n_seeds,
                 const uint64_t *trials, int64_t n_trials, uint64_t stream, int64_t lt,
                 int64_t threads, int32_t *act, int64_t *counts, uint8_t *reach, int64_t n) {
    struct block b = {indptr, indices, seeds, w, trials, n_seeds, n_trials, n, 0, lt, stream,
                      counts, reach};
    int64_t started = 0;
    pthread_t *tids = threads > 1 ? malloc((size_t)(threads - 1) * sizeof *tids) : NULL;
    for (; tids && started < threads - 1; started++)
        if (pthread_create(&tids[started], NULL, run_thread, &b)) break;
    run_trials(&b, act);
    for (int64_t i = 0; i < started; i++) pthread_join(tids[i], NULL);
    free(tids);
    return b.next < n_trials ? -1 : 0;
}

/* True when heap entry (ka, ia) pops before (kb, ib): a smaller key, or an
 * equal key and a smaller id. These are Python's tuple comparisons on
 * finite keys, -0.0 equal to 0.0 included. */
static inline int precedes(double ka, int64_t ia, double kb, int64_t ib) {
    return ka < kb || (ka == kb && ia < ib);
}

/* Row k of R_k(S) is at reach + k * stride (stride 0 with one zero row for
 * S = {}), and base_total = sum over k of |R_k(S)|. Sets totals[j] = sum
 * over trials k of |R_k(S + {cands[j]})| for the candidates it evaluates,
 * and returns their number. act arrives all -1 and is left so.
 *
 * Given live_ptr (n + 1) and live_dst (as many as the graph's edges),
 * trials are the outer loop and every candidate is evaluated: each
 * trial's live edges between nodes outside R_k(S) are built there as a
 * CSR over n nodes, hashing each of their coins once, and the searches
 * walk them; edges into R_k(S) are never live for a search, so their
 * coins are not hashed.
 *
 * With live_ptr NULL, candidates are the outer loop and each search hashes
 * the coins of the graph's edges as it scans; totals are integer sums, so
 * the loop order changes none. This mode serves CELF's lazy rounds: given
 * stale (each candidate's stale heap key, minus its last gain), it stops
 * before candidate j when the incumbent (best_key, best_id) pops before
 * (stale[j], cands[j]), and after evaluating j it makes j's fresh entry
 * (-(total / n_trials - current), cands[j]) the incumbent if there is none
 * (has_best 0) or it pops first. These are the IEEE operations of the
 * Python rule, so both stop at the same candidate. */
int64_t ic_gains(const int64_t *indptr, const int64_t *indices, const double *w,
                 const uint64_t *trials, int64_t n_trials, uint64_t stream,
                 const uint8_t *reach, int64_t stride, int64_t base_total,
                 int32_t *act, int64_t *queue, int64_t n,
                 const double *stale, double current, int64_t has_best, double best_key,
                 int64_t best_id,
                 int64_t *live_ptr, int64_t *live_dst,
                 const int64_t *cands, int64_t n_cands, int64_t *totals) {
    if (live_ptr) {
        for (int64_t j = 0; j < n_cands; j++) totals[j] = base_total;
        for (int64_t k = 0; k < n_trials; k++) {
            const uint8_t *row = reach + k * stride;
            uint64_t base = sm64(stream ^ sm64(trials[k]));
            int64_t live = 0;
            for (int64_t u = 0; u < n; u++) {
                live_ptr[u] = live;
                if (row[u]) continue;
                for (int64_t e = indptr[u]; e < indptr[u + 1]; e++) {
                    int64_t v = indices[e];
                    if (!row[v] && uniform(base, (uint64_t)e) < w[e]) live_dst[live++] = v;
                }
            }
            live_ptr[n] = live;
            for (int64_t j = 0; j < n_cands; j++) {
                int64_t c = cands[j];
                if (row[c]) continue;
                act[c] = 0;
                queue[0] = c;
                int64_t qlen = ic_search(live_ptr, live_dst, NULL, 0, 0, NULL, act, queue, 1);
                totals[j] += qlen;
                for (int64_t i = 0; i < qlen; i++) act[queue[i]] = -1;
            }
        }
        return n_cands;
    }
    for (int64_t j = 0; j < n_cands; j++) {
        int64_t c = cands[j], total = base_total;
        if (stale && has_best && precedes(best_key, best_id, stale[j], c)) return j;
        for (int64_t k = 0; k < n_trials; k++) {
            const uint8_t *row = reach + k * stride;
            if (row[c]) continue;
            act[c] = 0;
            queue[0] = c;
            int64_t qlen = ic_search(indptr, indices, w, sm64(stream ^ sm64(trials[k])), 1, row,
                                     act, queue, 1);
            total += qlen;
            for (int64_t i = 0; i < qlen; i++) act[queue[i]] = -1;
        }
        totals[j] = total;
        if (stale) {
            double key = -((double)total / (double)n_trials - current);
            if (!has_best || precedes(key, c, best_key, best_id)) {
                has_best = 1;
                best_key = key;
                best_id = c;
            }
        }
    }
    return n_cands;
}
