/* The alpha-UCT bandit step loop of alphauct.regret, one seed at a time.

   A step's arm is the first maximum of the index mean_j + sqrt(inv_j * c_t)
   over the K arms, as in the numpy loop (regret._numpy_loop).  Wherever the
   kernel computes an index it does the numpy loop's IEEE operations on the
   same operands, and every slab update too, so the two loops give the same
   bits.  The kernel computes all K indices only where it must:

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

   Build it only as kernel.CC does: -O2 with -ffp-contract=off, no fast-math
   and no -march, so that the compiler fuses, reorders or approximates none
   of these operations.  */
#include <math.h>
#include <stdint.h>

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

/* Steps t0 + 1 .. t0 + n of seeds 0 .. n_seeds - 1 of a run of stride
   seeds (n_seeds <= stride).  st holds four slabs sum | count | inv | mean
   of stride * K cells each, seed s's K cells at offset k * s in every slab,
   as in the numpy loop.  Seed s keeps its regret at reg[s] and this block's
   noise at noise + n * s; its regret at checkpoint grid[g] goes to
   out[g * stride + s].  gi is the first checkpoint not yet passed; returns
   the first one after step t0 + n.  Adds to *full the number of steps that
   computed all K indices.  */
int64_t ucb_block(int64_t n_seeds, int64_t stride, int64_t k, int64_t t0,
                  int64_t n,
                  const double *ct, const double *means, const double *gaps,
                  const double *noise, double *st, double *reg,
                  const int64_t *grid, int64_t n_grid, int64_t gi,
                  double *out, int64_t *full)
{
    int64_t g = gi, n_full = 0;
    for (int64_t s = 0; s < n_seeds; s++) {
        double *sum = st + k * s, *count = sum + stride * k;
        double *inv = count + stride * k, *mean = inv + stride * k;
        double r = reg[s];
        const double *x = noise + n * s;
        /* the open window: its leader, last step and c_end, and the largest
           bound below (lo) and above (hi) the leader; none open yet */
        int64_t lead = 0, wend = -1;
        double c_end = 0.0, lo = 0.0, hi = 0.0;
        g = gi;
        for (int64_t b = 0; b < n; b++) {
            int64_t t = t0 + 1 + b, a = t - 1;  /* the first K steps: arm t-1 */
            if (t > k) {
                int keep = b <= wend && ct[b] <= c_end;
                if (keep) {
                    double v = mean[lead] + sqrt(inv[lead] * ct[b]);
                    keep = lo < v && hi <= v;
                }
                if (keep) {
                    a = lead;
                } else {  /* all K indices; a tie keeps the lowest arm */
                    double best = mean[0] + sqrt(inv[0] * ct[b]);
                    a = 0;
                    for (int64_t j = 1; j < k; j++) {
                        double v = mean[j] + sqrt(inv[j] * ct[b]);
                        if (v > best) {
                            best = v;
                            a = j;
                        }
                    }
                    n_full++;
                    lead = a;
                    wend = b + WINDOW < n ? b + WINDOW : n - 1;
                    c_end = ct[wend];
                    lo = hi = -INFINITY;
                    for (int64_t j = 0; j < a; j++) {
                        double u = mean[j] + sqrt(inv[j] * c_end);
                        if (u > lo)
                            lo = u;
                    }
                    for (int64_t j = a + 1; j < k; j++) {
                        double u = mean[j] + sqrt(inv[j] * c_end);
                        if (u > hi)
                            hi = u;
                    }
                }
            }
            sum[a] = sum[a] + (means[a] + x[b]);
            count[a] = count[a] + 1.0;
            inv[a] = 1.0 / count[a];
            mean[a] = sum[a] * inv[a];
            r += gaps[a];
            if (g < n_grid && t == grid[g])
                out[g++ * stride + s] = r;
        }
        reg[s] = r;
    }
    *full += n_full;
    return g;
}
