/* The alpha-UCT bandit step loop of alphauct.regret, one seed at a time.
   regret._simulate makes one ucb_run call per seed shard, which steps the
   shard's seeds block by block through ucb_log_table and ucb_block;
   regret.NUMPY holds all three in numpy, with the same arguments.

   A step's arm is the first maximum of the index mean_j + sqrt(inv_j * c_t)
   over the K arms, as in the numpy block (regret.NUMPY.ucb_block).
   Wherever the kernel computes an index it does the numpy block's IEEE
   operations on the same operands, and every cell update too, so the two
   give the same bits.  The kernel computes all K indices only where it
   must:

   After a full K-way step, while the leader keeps being pulled, no other
   arm's mean or inv changes.  Multiplying by inv_j >= 0, sqrt and adding
   mean_j are each correctly rounded and monotone in their operand, so
   bound_j = mean_j + sqrt(inv_j * c_end) is at least arm j's index at every
   step with c_t <= c_end.  So for a window of at most WINDOW steps, ending
   inside this block with c_end = ct[last step], a step computes only the
   leader's index v and keeps the leader while every arm below it has
   bound_j < v and every arm above it bound_j <= v: then no arm below ties
   or beats v and none above beats it, which is the first-maximum rule.  The
   step compares ct[b] <= c_end itself, so this never rests on libm's log
   being monotone.  Otherwise it takes the full step and opens a new window.

   While a window is open the leader's sum, count, inv and mean, its arm
   mean and its gap live in locals, and a leader-only step updates only
   those, so no cell makes a store-to-load round trip through memory from
   one step to the next.  They go back to the slabs before a full step
   reads every arm and at the end of the seed's block.  inv and mean are
   functions of (sum, count) alone, so holding them changes no bit.

   A full step computes each arm's index and bound in one pass: one SSE2
   multiply, sqrt and add of inv_j * (c_t, c_end) plus mean_j, index in
   lane 0 and bound in lane 1.  mulpd, sqrtpd and addpd are the same
   correctly rounded IEEE operations per lane as their scalar forms, and
   SSE2 is part of baseline x86-64.  The same pass keeps the first maximum
   and the largest bound below (lo) and above (hi) it.  Without __SSE2__ the
   pass computes the same two values with scalar sqrt.

   Each step also takes the seed's pull noise, one draw whatever the arm:
   the next uniform of its numpy PCG64 stream (a 128-bit LCG step and the
   XSL-RR output, O'Neill 2014), mapped as envs.residual_noise maps it.  The
   128-bit state needs a compiler with unsigned __int128 (gcc and clang on
   64-bit targets); where it is missing the build fails and regret runs
   NUMPY.

   Build it only as kernel.CC does: -O2 with -ffp-contract=off, no fast-math
   and no -march, so that the compiler fuses, reorders or approximates none
   of these operations.  */
#include <math.h>
#include <stdint.h>
#ifdef __SSE2__
#include <emmintrin.h>
#endif

/* The most steps one window of leader-only steps spans.  Opening a window
   costs K - 1 bounds; a longer one loosens them (c_end grows) and sends more
   steps to the full index.  Of windows of 8, 16, 32, 64 and 128 steps, 32
   came within 8 % of the fastest both at T = 20k (16 fastest, 128 slowest
   by 30 %) and at T = 100k (64 fastest, 8 slowest by 38 %), at K = 10.  */
#define WINDOW 32

/* ct[b] = scale * ln(t0 + 1 + b) for b < n, with the libm log that Python's
   math.log calls: the radius factor of step t0 + 1 + b.  */
void ucb_log_table(double scale, int64_t t0, int64_t n, double *ct)
{
    for (int64_t b = 0; b < n; b++)
        ct[b] = scale * log((double)(t0 + 1 + b));
}

/* numpy's PCG64 multiplier, PCG_DEFAULT_MULTIPLIER_128 */
#define PCG_MULT (((unsigned __int128)0x2360ED051FC65DA4ULL << 64) \
                  | 0x4385DF649FCCF645ULL)

/* One pull of the arm whose cells are *sum, *count, *inv and *mean, for
   reward: the numpy block's update, operation for operation.  */
static inline void pull(double *sum, double *count, double *inv, double *mean,
                        double reward)
{
    *sum = *sum + reward;
    *count = *count + 1.0;
    *inv = 1.0 / *count;
    *mean = *sum * *inv;
}

/* Steps t0 + 1 .. t0 + n of seeds 0 .. n_seeds - 1 of a shard of a run of
   stride seeds (n_seeds <= stride).  regret._simulate passes st, pcg, reg
   and out offset to the shard's first seed, so that several threads can
   each step their own shard of one set of arrays.  st holds four slabs
   sum | count | inv | mean of stride * K cells each, seed s's K cells at
   offset k * s in every slab, as in the numpy block.  Seed s keeps its
   regret at reg[s] and its PCG64 state at pcg[4 s ..]: state lo, hi, inc
   lo, hi, advanced one draw per step.  Its pull noise has standard
   deviation s_res, of kind 0 (two_point: +-s_res) or 1 (uniform: over
   +-s_res * sqrt(3)), envs.NOISE_KINDS' order.  Its regret at checkpoint
   grid[g] goes to out[g * stride + s].  gi is the first checkpoint not yet
   passed; returns the first one after step t0 + n.  Adds to *full the
   number of steps that computed all K indices.  */
int64_t ucb_block(int64_t n_seeds, int64_t stride, int64_t k, int64_t t0,
                  int64_t n,
                  const double *ct, const double *means, const double *gaps,
                  uint64_t *pcg, double s_res, int64_t kind,
                  double *st, double *reg,
                  const int64_t *grid, int64_t n_grid, int64_t gi,
                  double *out, int64_t *full)
{
    int64_t g = gi, n_full = 0;
    /* two_point picks its residual from pm by the draw, without a branch.
       Where s_res is 0 the residual is +-0.0, not numpy's +0.0, but
       means[a] + -0.0 differs from means[a] + 0.0 only as -0.0 against
       +0.0, and adding either to a sum that starts at +0.0 gives the same
       bits.  */
    int uniform = kind == 1;
    double pm[2] = {-s_res, s_res}, width = s_res * sqrt(3.0);
    for (int64_t s = 0; s < n_seeds; s++) {
        double *sum = st + k * s, *count = sum + stride * k;
        double *inv = count + stride * k, *mean = inv + stride * k;
        double r = reg[s];
        uint64_t *p = pcg + 4 * s;
        unsigned __int128 state = (unsigned __int128)p[1] << 64 | p[0];
        unsigned __int128 inc = (unsigned __int128)p[3] << 64 | p[2];
        /* the open window: its leader, last step and c_end, and the largest
           bound below (lo) and above (hi) the leader; none open yet.  While
           one is open, the leader's four cells, arm mean and gap are held
           in lsum .. lgap, and its slab cells are stale.  */
        int64_t lead = 0, wend = -1;
        double c_end = 0.0, lo = 0.0, hi = 0.0;
        double lsum = 0.0, lcount = 0.0, linv = 0.0, lmean = 0.0;
        double lmu = 0.0, lgap = 0.0;
        g = gi;
        for (int64_t b = 0; b < n; b++) {
            int64_t t = t0 + 1 + b;
            state = state * PCG_MULT + inc;
            uint64_t xsl = (uint64_t)(state >> 64) ^ (uint64_t)state;
            unsigned rot = (unsigned)(state >> 122);
            uint64_t w = xsl >> rot | xsl << (-rot & 63);
            double u = (double)(w >> 11) * 0x1.0p-53;
            double x = uniform ? width * (2.0 * u - 1.0) : pm[u >= 0.5];
            if (t <= k) {  /* the first K steps: arm t - 1, in the slabs */
                int64_t a = t - 1;
                pull(sum + a, count + a, inv + a, mean + a, means[a] + x);
                r += gaps[a];
            } else {
                int keep = b <= wend && ct[b] <= c_end;
                if (keep) {
                    double v = lmean + sqrt(linv * ct[b]);
                    keep = lo < v && hi <= v;
                }
                if (!keep) {  /* all K indices; a tie keeps the lowest arm */
                    if (wend >= 0) {  /* the held leader, before the pass */
                        sum[lead] = lsum;
                        count[lead] = lcount;
                        inv[lead] = linv;
                        mean[lead] = lmean;
                    }
                    wend = b + WINDOW < n ? b + WINDOW : n - 1;
                    c_end = ct[wend];
                    /* arm j's index v and bound ub; top is the largest bound
                       so far, which becomes lo when arm j takes the lead */
                    double best = -INFINITY, top = -INFINITY;
#ifdef __SSE2__
                    __m128d c = _mm_set_pd(c_end, ct[b]);
#endif
                    for (int64_t j = 0; j < k; j++) {
#ifdef __SSE2__
                        __m128d vu = _mm_add_pd(
                            _mm_set1_pd(mean[j]),
                            _mm_sqrt_pd(_mm_mul_pd(_mm_set1_pd(inv[j]), c)));
                        double v = _mm_cvtsd_f64(vu);
                        double ub = _mm_cvtsd_f64(_mm_unpackhi_pd(vu, vu));
#else
                        double v = mean[j] + sqrt(inv[j] * ct[b]);
                        double ub = mean[j] + sqrt(inv[j] * c_end);
#endif
                        if (v > best) {
                            best = v;
                            lead = j;
                            lo = top;
                            hi = -INFINITY;
                        } else if (ub > hi) {
                            hi = ub;
                        }
                        if (ub > top)
                            top = ub;
                    }
                    n_full++;
                    lsum = sum[lead];
                    lcount = count[lead];
                    linv = inv[lead];
                    lmean = mean[lead];
                    lmu = means[lead];
                    lgap = gaps[lead];
                }
                pull(&lsum, &lcount, &linv, &lmean, lmu + x);
                r += lgap;
            }
            if (g < n_grid && t == grid[g])
                out[g++ * stride + s] = r;
        }
        if (wend >= 0) {  /* the held leader, at the block's end */
            sum[lead] = lsum;
            count[lead] = lcount;
            inv[lead] = linv;
            mean[lead] = lmean;
        }
        reg[s] = r;
        p[0] = (uint64_t)state; p[1] = (uint64_t)(state >> 64);
    }
    *full += n_full;
    return g;
}

/* Steps 1 .. horizon of a shard's seeds, as ucb_block's arguments name
   them, in blocks of `block` steps (the last one shorter), block-major
   with the seeds in order inside a block: for each block ct, a caller's
   scratch of min(block, horizon) doubles, gets the block's radius factors
   scale * ln t, and ucb_block steps the seeds from the checkpoint index
   the previous block returned.  Returns the index after the last step, or
   -1 as soon as a block returns one outside [gi, n_grid], which the next
   block would read out of bounds.  */
int64_t ucb_run(int64_t n_seeds, int64_t stride, int64_t k, int64_t horizon,
                int64_t block, double scale, double *ct,
                const double *means, const double *gaps,
                uint64_t *pcg, double s_res, int64_t kind,
                double *st, double *reg,
                const int64_t *grid, int64_t n_grid,
                double *out, int64_t *full)
{
    int64_t gi = 0;
    for (int64_t t0 = 0; t0 < horizon; t0 += block) {
        int64_t n = horizon - t0 < block ? horizon - t0 : block;
        ucb_log_table(scale, t0, n, ct);
        int64_t got = ucb_block(n_seeds, stride, k, t0, n, ct, means, gaps,
                                pcg, s_res, kind, st, reg, grid, n_grid, gi,
                                out, full);
        if (got < gi || got > n_grid)
            return -1;
        gi = got;
    }
    return gi;
}
