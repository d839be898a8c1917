/* The alpha-UCT bandit step loop of alphauct.kernel.
   kernel.simulate makes one ucb_run call per seed shard, which steps the
   shard's seeds block by block through ucb_log_table and ucb_block;
   kernel.NUMPY holds all three in numpy, with the same arguments.

   A step's arm is the first maximum of the index mean_j + sqrt(inv_j * c_t)
   over the K arms, as in the numpy block (kernel.NUMPY.ucb_block).
   Wherever the kernel computes an index it does the numpy block's IEEE
   operations on the same operands, and every cell update too, so the two
   give the same bits.  A block that starts at or before step K runs dense
   (below); every later block computes all K indices only where it must:

   After a full K-way step, while the leader keeps being pulled, no other
   arm's mean or inv changes.  Multiplying by inv_j >= 0, sqrt and adding
   mean_j are each correctly rounded and monotone in their operand, so
   bound_j = mean_j + sqrt(inv_j * c_end) is at least arm j's index at every
   step with c_t <= c_end.  So for a window of steps that ends inside this
   block, with c_end = ct[its last step], a step computes only the leader's
   index v and keeps the leader while every arm below it has bound_j < v
   and every arm above it bound_j <= v: then no arm below ties or beats v
   and none above beats it, which is the first-maximum rule.  The step
   compares ct[b] <= c_end itself, so this never rests on libm's log being
   monotone.  Otherwise it takes the full step and opens a new window.
   Nothing here depends on the window's length, so each seed picks its own:
   WINDOW steps after a failed check, twice the last one (up to WINDOW_CAP)
   after a window that ran out with the leader kept.

   So a lazy block runs one seed at a time as loops: full steps, each
   followed by its window as an inner loop of leader-only steps, which ends
   at the window's last step or leaves for the next full step at the first
   check that fails.  The next checkpoint's step is a local, so a step makes
   one compare and reads grid only on a hit, and each block loop is
   instantiated once per noise kind, so no step tests the kind.  The
   leader's sqrt is sqrtsd itself, not libm's sqrt, which must test its
   operand to set errno.  gcc 12 at -O2 compiles a leader-only step to 43
   instructions (two_point; 46 for uniform) with no reload from the stack,
   where one step body that tested for the forced steps, the window, the
   kind and the grid took about 66, 8 of them stack reloads.  At K = 10,
   gap 0.1 and sigma2 0.05, 20 seeds, with every block lazy, the growing
   window took full steps from 5.5 % to 3.9 % of all steps at T = 100k,
   and from 12.4 % to 11.8 % at T = 20k; at K = 2 from 3.5 % to 1.25 %.

   An index policy pulls a suboptimal arm about sigma2 ln t / gap^2 times,
   so the leader changes most often early in a run, and there a window
   rarely pays for its K - 1 bounds: at K = 10, gap 0.1, sigma2 0.05 and
   2048-step blocks, 54 % of the windows that had a leader-only step to take
   ended at it at 1000 seeds x T = 20k, and 42 % at 100 x 100k.  So a block
   that starts at or before step K (the first, and more where block < K)
   runs dense: its forced steps pull arm t - 1, and every later step
   computes all K indices and takes the first maximum with branch-free
   selects (maxsd and cmov under gcc 12 -O2).  It runs step-major over
   groups of GROUP seeds, each seed's stream state and regret in locals.
   One seed's step waits on its last pull, but the seeds of a group are
   independent, so the CPU overlaps their steps.  On one thread the first
   2048 steps of 1000 seeds at K = 10 took 23.3 ns per seed-step dense
   against 29.0 lazily (medians of 21 alternated runs; 256 steps: 22.5
   against 49.3), 12.0 against 15.3 at K = 5 and 34.5 against 44.6 at
   K = 16, but 10.9 against 9.3 at K = 2, where a window costs one bound
   and a dense step two indices.  The dense block's post-forced steps all
   count as full: with them, 5.0 % of all steps are full at K = 10,
   T = 100k (3.05 % past the first block), 17.4 % at T = 20k (8.1 %), and
   3.0 % at K = 2, T = 100k (0.94 %).

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
   pass computes the same two values with scalar sqrt, and so does the
   leader-only step.

   Each step also takes the seed's pull noise, one draw whatever the arm:
   the next uniform of its numpy PCG64 stream (a 128-bit LCG step and the
   XSL-RR output, O'Neill 2014), mapped as envs.residual_noise maps it.  The
   128-bit state needs a compiler with unsigned __int128 (gcc and clang on
   64-bit targets); where it is missing the build fails and kernel.simulate
   runs NUMPY.

   Build it only as kernel.CC does: -O2 with -ffp-contract=off, no fast-math
   and no -march, so that the compiler fuses, reorders or approximates none
   of these operations.  */
#include <math.h>
#include <stdint.h>
#ifdef __SSE2__
#include <emmintrin.h>
#endif

/* The first window's length, and the one after a failed check, in
   leader-only steps.  Opening a window costs K - 1 bounds; a longer one
   loosens them (c_end grows) and sends more steps to the full index.  Of
   fixed windows of 8, 16, 32, 64 and 128 steps, 32 came within 8 % of the
   fastest both at T = 20k (16 fastest, 128 slowest by 30 %) and at T = 100k
   (64 fastest, 8 slowest by 38 %), at K = 10.  A window that runs out with
   the leader kept doubles the next one, up to WINDOW_CAP: a leader that
   has held for that long is likely to hold longer, and each expiry costs a
   full step.  At K = 10, T = 100k the cap took full steps to 4.03 % of
   steps at 128, 3.91 % at 256 and 3.90 % at 512 and 1024, and one-thread
   times differed by less than the VM's noise from 128 up.  */
#define WINDOW 32
#define WINDOW_CAP 256

/* Seeds per group of a dense block.  Groups of 2, 3, 4, 6 and 8 seeds
   took the first 2048 steps of 1000 seeds within 2 % of each other at
   K = 10 on one thread; one seed at a time waits on each step's pull,
   37.0 ns per seed-step against 24.2 for groups of four.  */
#define GROUP 4

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

#define INLINE static inline __attribute__((always_inline))

/* One pull of the arm whose cells are *sum, *count, *inv and *mean, for
   reward: the numpy block's update, operation for operation.  */
INLINE void pull(double *sum, double *count, double *inv, double *mean,
                 double reward)
{
    *sum = *sum + reward;
    *count = *count + 1.0;
    *inv = 1.0 / *count;
    *mean = *sum * *inv;
}

/* Arm a's four slab cells get the held leader's values.  */
INLINE void put(double *sum, double *count, double *inv, double *mean,
                int64_t a, double lsum, double lcount, double linv,
                double lmean)
{
    sum[a] = lsum;
    count[a] = lcount;
    inv[a] = linv;
    mean[a] = lmean;
}

/* The correctly rounded square root, as sqrtsd: no errno to set for a
   negative operand, which libm's sqrt must check for.  */
INLINE double root(double y)
{
#ifdef __SSE2__
    __m128d v = _mm_set_sd(y);
    return _mm_cvtsd_f64(_mm_sqrt_sd(v, v));
#else
    return sqrt(y);
#endif
}

/* The seed's next pull noise: one PCG64 step of *state, its 53-bit
   uniform u, mapped by kind (a constant where the seed loop is
   instantiated).  two_point takes +-s_res from pm by u >= 0.5, which is
   w's top bit, without a branch.  Where s_res is 0 the residual is +-0.0,
   not numpy's +0.0, but means[a] + -0.0 differs from means[a] + 0.0 only
   as -0.0 against +0.0, and adding either to a sum that starts at +0.0
   gives the same bits.  */
INLINE double draw(unsigned __int128 *state, unsigned __int128 inc,
                   int uniform, double width, const double *pm)
{
    *state = *state * PCG_MULT + inc;
    uint64_t xsl = (uint64_t)(*state >> 64) ^ (uint64_t)*state;
    unsigned rot = (unsigned)(*state >> 122);
    uint64_t w = xsl >> rot | xsl << (-rot & 63);
    if (!uniform)
        return pm[w >> 63];
    return width * (2.0 * ((double)(w >> 11) * 0x1.0p-53) - 1.0);
}

/* After block step b: if it is the step of checkpoint *g, *due, the seed's
   regret r goes to its row of out and *due becomes the next checkpoint's
   step, or -1 past the grid, which no step matches.  */
INLINE void checkpoint(int64_t b, double r, double *out, int64_t stride,
                       const int64_t *grid, int64_t n_grid, int64_t t0,
                       int64_t *g, int64_t *due)
{
    if (b == *due) {
        out[*g * stride] = r;
        *due = ++*g < n_grid ? grid[*g] - t0 - 1 : -1;
    }
}

/* ucb_block's dense loop for one noise kind (uniform 0 or 1), for a block
   that starts at or before step K: step-major over groups of up to GROUP
   seeds, all K indices at every step past K.  */
INLINE int64_t dense(int uniform, int64_t n_seeds, int64_t stride, int64_t k,
                     int64_t t0, int64_t n, const double *ct,
                     const double *means, const double *gaps, uint64_t *pcg,
                     double s_res, double *st, double *reg,
                     const int64_t *grid, int64_t n_grid, int64_t gi,
                     double *out, int64_t *full)
{
    int64_t g = gi;
    /* the block steps b < forced are steps t = t0 + 1 + b <= K */
    int64_t forced = k - t0 < n ? k - t0 : n;
    double pm[2] = {-s_res, s_res}, width = s_res * sqrt(3.0);
    for (int64_t s0 = 0; s0 < n_seeds; s0 += GROUP) {
        int64_t m = n_seeds - s0 < GROUP ? n_seeds - s0 : GROUP;
        unsigned __int128 state[GROUP], inc[GROUP];
        double r[GROUP];
        for (int64_t i = 0; i < m; i++) {
            uint64_t *p = pcg + 4 * (s0 + i);
            state[i] = (unsigned __int128)p[1] << 64 | p[0];
            inc[i] = (unsigned __int128)p[3] << 64 | p[2];
            r[i] = reg[s0 + i];
        }
        int64_t due = gi < n_grid ? grid[gi] - t0 - 1 : -1;
        g = gi;
        for (int64_t b = 0; b < n; b++) {
            for (int64_t i = 0; i < m; i++) {
                double *sum = st + k * (s0 + i), *count = sum + stride * k;
                double *inv = count + stride * k, *mean = inv + stride * k;
                double x = draw(&state[i], inc[i], uniform, width, pm);
                int64_t a = t0 + b;  /* a forced step pulls arm t - 1 */
                if (b >= forced) {
                    /* all K indices; a tie keeps the lowest arm */
                    double best = -INFINITY;
                    a = 0;
                    for (int64_t j = 0; j < k; j++) {
                        double v = mean[j] + root(inv[j] * ct[b]);
                        int take = v > best;
                        best = take ? v : best;
                        a = take ? j : a;
                    }
                }
                pull(sum + a, count + a, inv + a, mean + a, means[a] + x);
                r[i] += gaps[a];
            }
            if (b == due) {
                for (int64_t i = 0; i < m; i++)
                    out[g * stride + s0 + i] = r[i];
                due = ++g < n_grid ? grid[g] - t0 - 1 : -1;
            }
        }
        for (int64_t i = 0; i < m; i++) {
            uint64_t *p = pcg + 4 * (s0 + i);
            reg[s0 + i] = r[i];
            p[0] = (uint64_t)state[i];
            p[1] = (uint64_t)(state[i] >> 64);
        }
    }
    *full += n_seeds * (n - forced);
    return g;
}

/* ucb_block's lazy loop for one noise kind (uniform 0 or 1): a block past
   step K, one seed at a time.  */
INLINE int64_t lazy(int uniform, int64_t n_seeds, int64_t stride, int64_t k,
                    int64_t t0, int64_t n, const double *ct,
                    const double *means, const double *gaps, uint64_t *pcg,
                    double s_res, double *st, double *reg,
                    const int64_t *grid, int64_t n_grid, int64_t gi,
                    double *out, int64_t *full)
{
    int64_t g = gi, n_full = 0;
    double pm[2] = {-s_res, s_res}, width = s_res * sqrt(3.0);
    for (int64_t s = 0; s < n_seeds; s++) {
        double *sum = st + k * s, *count = sum + stride * k;
        double *inv = count + stride * k, *mean = inv + stride * k;
        double r = reg[s], *out_s = out + s;
        uint64_t *p = pcg + 4 * s;
        unsigned __int128 state = (unsigned __int128)p[1] << 64 | p[0];
        unsigned __int128 inc = (unsigned __int128)p[3] << 64 | p[2];
        int64_t b = 0, due = gi < n_grid ? grid[gi] - t0 - 1 : -1;
        g = gi;
        /* The held leader: its four cells, arm mean and gap, with its slab
           cells stale while it is held.  Holding arm 0 as it stands makes
           the first write-back a no-op.  */
        int64_t lead = 0, win = WINDOW;
        double lsum = sum[0], lcount = count[0], linv = inv[0];
        double lmean = mean[0], lmu = means[0], lgap = gaps[0];
        double x = draw(&state, inc, uniform, width, pm);
        for (;;) {
            /* step b: all K indices; a tie keeps the lowest arm */
            /* the held leader, before the pass */
            put(sum, count, inv, mean, lead, lsum, lcount, linv, lmean);
            /* the window: steps b + 1 .. wend, and the largest bound below
               (lo) and above (hi) the leader */
            int64_t wend = b + win < n ? b + win : n - 1;
            double c_end = ct[wend], lo = -INFINITY, hi = -INFINITY;
            /* arm j's index v and bound ub; top is the largest bound so
               far, which becomes lo when arm j takes the lead */
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
            pull(&lsum, &lcount, &linv, &lmean, lmu + x);
            r += lgap;
            checkpoint(b, r, out_s, stride, grid, n_grid, t0, &g, &due);
            /* leader-only steps while the bounds hold */
            for (b++; b <= wend; b++) {
                x = draw(&state, inc, uniform, width, pm);
                if (!(ct[b] <= c_end))
                    break;
                double v = lmean + root(linv * ct[b]);
                if (!(lo < v && hi <= v))
                    break;
                pull(&lsum, &lcount, &linv, &lmean, lmu + x);
                r += lgap;
                checkpoint(b, r, out_s, stride, grid, n_grid, t0, &g, &due);
            }
            if (b <= wend) {  /* a failed check: step b is a full step */
                win = WINDOW;
            } else {  /* the window ran out with the leader kept */
                if (b == n)
                    break;
                win = win < WINDOW_CAP ? 2 * win : WINDOW_CAP;
                x = draw(&state, inc, uniform, width, pm);
            }
        }
        /* the held leader, at the block's end */
        put(sum, count, inv, mean, lead, lsum, lcount, linv, lmean);
        reg[s] = r;
        p[0] = (uint64_t)state; p[1] = (uint64_t)(state >> 64);
    }
    *full += n_full;
    return g;
}

/* Steps t0 + 1 .. t0 + n of seeds 0 .. n_seeds - 1 of a shard of a run of
   stride seeds (n_seeds <= stride).  kernel.simulate passes st, pcg, reg
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
   number of steps that computed all K indices.  A block that starts at or
   before step K (t0 < k) runs dense, a later one lazily.  */
int64_t ucb_block(int64_t n_seeds, int64_t stride, int64_t k, int64_t t0,
                  int64_t n,
                  const double *ct, const double *means, const double *gaps,
                  uint64_t *pcg, double s_res, int64_t kind,
                  double *st, double *reg,
                  const int64_t *grid, int64_t n_grid, int64_t gi,
                  double *out, int64_t *full)
{
    if (n < 1)  /* no step: lazy would read ct[n - 1] */
        return gi;
    if (t0 < k)
        return kind == 1
            ? dense(1, n_seeds, stride, k, t0, n, ct, means, gaps, pcg, s_res,
                    st, reg, grid, n_grid, gi, out, full)
            : dense(0, n_seeds, stride, k, t0, n, ct, means, gaps, pcg, s_res,
                    st, reg, grid, n_grid, gi, out, full);
    if (kind == 1)
        return lazy(1, n_seeds, stride, k, t0, n, ct, means, gaps, pcg, s_res,
                    st, reg, grid, n_grid, gi, out, full);
    return lazy(0, n_seeds, stride, k, t0, n, ct, means, gaps, pcg, s_res, st,
                reg, grid, n_grid, gi, out, full);
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
