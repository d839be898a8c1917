/* The alpha-UCT bandit step loop of alphauct.regret, one seed at a time.

   Every floating-point operation here is the IEEE operation the numpy loop
   (regret._numpy_loop) performs on the same operands, so the two loops give
   the same bits.  Build it only as kernel.CC does: -O2 with
   -ffp-contract=off, no fast-math and no -march, so that the compiler fuses,
   reorders or approximates none of them.  */
#include <math.h>
#include <stdint.h>

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
   the first one after step t0 + n.  */
int64_t ucb_block(int64_t n_seeds, int64_t stride, int64_t k, int64_t t0,
                  int64_t n,
                  const double *ct, const double *means, const double *gaps,
                  const double *noise, double *st, double *reg,
                  const int64_t *grid, int64_t n_grid, int64_t gi,
                  double *out)
{
    int64_t g = gi;
    for (int64_t s = 0; s < n_seeds; s++) {
        double *sum = st + k * s, *count = sum + stride * k;
        double *inv = count + stride * k, *mean = inv + stride * k;
        double r = reg[s];
        const double *x = noise + n * s;
        g = gi;
        for (int64_t b = 0; b < n; b++) {
            int64_t t = t0 + 1 + b, a = t - 1;  /* the first K steps: arm t-1 */
            if (t > k) {  /* index mean + sqrt(inv * c_t); a tie keeps the lowest arm */
                double best = mean[0] + sqrt(inv[0] * ct[b]);
                a = 0;
                for (int64_t j = 1; j < k; j++) {
                    double v = mean[j] + sqrt(inv[j] * ct[b]);
                    if (v > best) {
                        best = v;
                        a = j;
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
    return g;
}
