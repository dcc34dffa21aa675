/* Compiled frontier kernel for CSREngine (IC and LT over CSR).
 *
 * ic_many and lt_many run a block of trials with one seed set. Coins are the
 * counter-based splitmix64 stream of repro/diffusion/rng.py: a trial's
 * base key is sm64(stream ^ sm64(trial_seed)) and the uniform for id i is
 * (sm64(base + i) >> 11) * 2^-53, so every trial is bit-identical to the
 * interpreted engines. Work per trial is proportional to the out-edges of
 * activated nodes (Observation 1): scratch arrays arrive reset (act = -1,
 * acc = 0) and only the entries a trial touched are reset after it.
 *
 * queue holds activated nodes in activation order; the frontier of round
 * t is the slice the previous round appended. Seeds must be unique and
 * ascending. The last trial's nodes are not reset, so on return act holds
 * its activation times (-1 for inactive nodes). Both return the number of
 * iterations of the last trial.
 *
 * ic_reach and ic_gains serve CELF under IC. A trial's live edges are
 * fixed by its coins, so its activated set is the set reachable from the
 * seeds over them, and R_k(S + {c}) = R_k(S) + R_k(c). ic_reach marks
 * R_k(S) once per trial; ic_gains then counts, per candidate, only the
 * nodes a search from c reaches outside R_k(S).
 */
#include <stdint.h>
#include <stdlib.h>

static inline uint64_t sm64(uint64_t x) {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

static inline double uniform(uint64_t base, uint64_t id) {
    return (double)(sm64(base + id) >> 11) * (1.0 / 9007199254740992.0);
}

static int cmp_i64(const void *a, const void *b) {
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* Breadth-first search over live IC edges from queue[0..qlen), never
 * entering a node marked in skip or seen; marks what it reaches in seen,
 * appends it to queue and returns the new queue length. skip and seen may
 * be the same array. */
static int64_t ic_search(const int64_t *indptr, const int64_t *indices, const double *w,
                         uint64_t base, const uint8_t *skip, uint8_t *seen,
                         int64_t *queue, int64_t qlen) {
    for (int64_t i = 0; i < qlen; i++) {
        int64_t u = queue[i];
        for (int64_t e = indptr[u]; e < indptr[u + 1]; e++) {
            int64_t v = indices[e];
            if (!skip[v] && !seen[v] && uniform(base, (uint64_t)e) < w[e]) {
                seen[v] = 1;
                queue[qlen++] = v;
            }
        }
    }
    return qlen;
}

int64_t ic_many(const int64_t *indptr, const int64_t *indices, const double *w,
                const int64_t *seeds, int64_t n_seeds,
                const uint64_t *trials, int64_t n_trials, uint64_t stream,
                int32_t *act, int64_t *queue, int64_t *counts) {
    int32_t t = 0;
    for (int64_t k = 0; k < n_trials; k++) {
        uint64_t base = sm64(stream ^ sm64(trials[k]));
        int64_t qlen = 0, lo = 0;
        for (int64_t i = 0; i < n_seeds; i++) {
            act[seeds[i]] = 0;
            queue[qlen++] = seeds[i];
        }
        for (t = 0; lo < qlen; t++) {
            int64_t hi = qlen;
            for (int64_t i = lo; i < hi; i++) {
                int64_t u = queue[i];
                for (int64_t e = indptr[u]; e < indptr[u + 1]; e++) {
                    int64_t v = indices[e];
                    if (act[v] < 0 && uniform(base, (uint64_t)e) < w[e]) {
                        act[v] = t + 1;
                        queue[qlen++] = v;
                    }
                }
            }
            if (qlen == hi) break;
            lo = hi;
        }
        counts[k] = qlen;
        if (k < n_trials - 1)
            for (int64_t i = 0; i < qlen; i++) act[queue[i]] = -1;
    }
    return t;
}

/* Marks R_k(seeds) in row k of reach (n_trials x n bytes, arriving zeroed)
 * and stores its size in counts[k]. */
void ic_reach(const int64_t *indptr, const int64_t *indices, const double *w,
              const int64_t *seeds, int64_t n_seeds,
              const uint64_t *trials, int64_t n_trials, uint64_t stream,
              uint8_t *reach, int64_t n, int64_t *queue, int64_t *counts) {
    for (int64_t k = 0; k < n_trials; k++) {
        uint8_t *row = reach + k * n;
        int64_t qlen = 0;
        for (int64_t i = 0; i < n_seeds; i++) {
            if (!row[seeds[i]]) {
                row[seeds[i]] = 1;
                queue[qlen++] = seeds[i];
            }
        }
        counts[k] = ic_search(indptr, indices, w, sm64(stream ^ sm64(trials[k])),
                              row, row, queue, qlen);
    }
}

/* totals[j] = sum over trials k of |R_k(S + {cands[j]})|, given row k of
 * R_k(S) at reach + k * stride (stride 0 with one zero row for S = {}) and
 * base_total = sum over k of |R_k(S)|. seen arrives zeroed and is left
 * zeroed. */
void ic_gains(const int64_t *indptr, const int64_t *indices, const double *w,
              const int64_t *cands, int64_t n_cands,
              const uint64_t *trials, int64_t n_trials, uint64_t stream,
              const uint8_t *reach, int64_t stride, int64_t base_total,
              uint8_t *seen, int64_t *queue, int64_t *totals) {
    for (int64_t j = 0; j < n_cands; j++) {
        int64_t c = cands[j], total = base_total;
        for (int64_t k = 0; k < n_trials; k++) {
            const uint8_t *row = reach + k * stride;
            if (row[c]) continue;
            seen[c] = 1;
            queue[0] = c;
            int64_t qlen = ic_search(indptr, indices, w, sm64(stream ^ sm64(trials[k])),
                                     row, seen, queue, 1);
            total += qlen;
            for (int64_t i = 0; i < qlen; i++) seen[queue[i]] = 0;
        }
        totals[j] = total;
    }
}

/* LT pushes w(u->v) into acc[v] once per activated u, walking the frontier
 * in ascending node order and each node's edges in CSR order, so the
 * floating-point sums equal the interpreted engines'. While a trial runs,
 * act[v] == -2 marks a node that holds weight and -3 a node that received
 * weight this round; both count as inactive. */
int64_t lt_many(const int64_t *indptr, const int64_t *indices, const double *w,
                const int64_t *seeds, int64_t n_seeds,
                const uint64_t *trials, int64_t n_trials, uint64_t stream,
                int32_t *act, int64_t *queue, int64_t *counts,
                double *acc, int64_t *touched, int64_t *cand) {
    int32_t t = 0;
    for (int64_t k = 0; k < n_trials; k++) {
        uint64_t base = sm64(stream ^ sm64(trials[k]));
        int64_t qlen = 0, lo = 0, n_touched = 0;
        for (int64_t i = 0; i < n_seeds; i++) {
            act[seeds[i]] = 0;
            queue[qlen++] = seeds[i];
        }
        for (t = 0; lo < qlen; t++) {
            int64_t hi = qlen, n_cand = 0;
            for (int64_t i = lo; i < hi; i++) {
                int64_t u = queue[i];
                for (int64_t e = indptr[u]; e < indptr[u + 1]; e++) {
                    int64_t v = indices[e];
                    if (act[v] >= 0) continue;
                    acc[v] += w[e];
                    if (act[v] == -1) touched[n_touched++] = v;
                    if (act[v] != -3) {
                        act[v] = -3;
                        cand[n_cand++] = v;
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
            if (qlen == hi) break;
            qsort(queue + hi, (size_t)(qlen - hi), sizeof(int64_t), cmp_i64);
            lo = hi;
        }
        counts[k] = qlen;
        for (int64_t i = 0; i < n_touched; i++) {
            int64_t v = touched[i];
            acc[v] = 0.0;
            if (act[v] < 0) act[v] = -1;
        }
        if (k < n_trials - 1)
            for (int64_t i = 0; i < qlen; i++) act[queue[i]] = -1;
    }
    return t;
}
