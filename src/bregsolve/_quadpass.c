/* solvers._quadratic_pass with the rules bsor (0: c = omega, thr, tau,
 * gamma; aux = rsub) and blcd (1: c = alpha, gamma; aux = p), which sor and
 * gauss_seidel run at gamma = 0, over the symmetric C-ordered n x n A and
 * r = A y - b, doing each NumPy operation in its order, so that the results
 * are bitwise the same. */

static double shrink(double x, double lam)
{
    return x > lam ? x - lam : x < -lam ? x + lam : 0.0;
}

#ifdef __x86_64__     /* one copy per instruction set, picked at load */
__attribute__((target_clones("avx512f", "avx2", "default")))
#endif
void quad_pass(int rule, long n, const double *A, double *r, double *y,
               double *aux, const double *c)
{
    for (long i = 0; i < n; i++) {
        const double *row = A + i * n;
        double g = r[i], xi = y[i], aii = row[i], x_new;
        if (rule == 0) {
            x_new = shrink(xi - (c[0] / aii) * g + c[1] * aux[i], c[1]);
            aux[i] += (c[2] / (c[3] * aii))
                * (-g - (aii * (2.0 + c[2]) / (2.0 * c[2])) * (x_new - xi));
        } else {
            aux[i] -= (c[0] / aii) * g;
            x_new = shrink(aux[i], c[1]);
        }
        double delta = x_new - xi;
        if (delta != 0.0) {
            for (long j = 0; j < n; j++)
                r[j] += row[j] * delta;
            y[i] = x_new;
        }
    }
}

/* inclusion.solve_inclusion without a guess on the student-t quotient, for
 * the m coordinates of order in turn, each root committed to the h x w image
 * y: out[k], out[m + k], out[2m + k] get the k-th root (x if it stays put)
 * and Clarke interval.  Returns m, or the first k where Python raises.  Each
 * operation is Python's in its order, log1p is math.log1p's, and min and max
 * keep their first argument on a tie. */

#include <math.h>

#define TOL 1e-10                       /* inclusion.RESIDUAL_TOL */
#define RTOL (4.0 * 2.220446049250313e-16)
enum { FOUND, NONE, FAIL };     /* FAIL: DivergenceError, ConvergenceError */

static double pmax(double a, double b) { return b > a ? b : a; }
static double pmin(double a, double b) { return b < a ? b : a; }

typedef struct {
    double x, p, tau, lo, hi, xd, gamma, shift, lower, upper, wt[4], nb[4];
    int nt, err;                        /* err: Python raises another error */
} Coord;

/* a divisor: 0 raises ZeroDivisionError */
static double nonzero(Coord *c, double d) { return c->err |= d == 0.0, d; }

/* StudentTObjective._quotient from x to y */
static double dq(Coord *c, double y)
{
    double step = y - c->x, delta = 0.0;
    if (fabs(step) <= 1e-14 * pmax(1.0, fabs(c->x)))
        return 0.5 * (c->lo + c->hi);
    for (int k = 0; k < c->nt; k++) {
        double d_old = c->x - c->nb[k], d_new = d_old + step;
        double z = step * (d_new + d_old) / (1.0 + d_old * d_old);
        c->err |= z <= -1.0;            /* math.log1p: ValueError */
        delta += c->wt[k] * log1p(z);
    }
    double d_old = c->x - c->xd, d_new = y - c->xd;
    if (d_old >= 0 && d_new >= 0)
        delta += step;
    else if (d_old <= 0 && d_new <= 0)
        delta -= step;
    else
        delta += d_new > 0 ? d_new + d_old : -(d_new + d_old);
    return delta / (y - c->x);
}

/* ScalarBregman.subdiff_interval */
static void subdiff(Coord *c, double y, double *lo, double *hi)
{
    double d = y - c->shift, g = c->gamma;
    c->err |= !(c->lower <= y && y <= c->upper);
    *lo = y == c->lower ? -INFINITY : g == 0.0 ? y : d > 0 ? y + g : y - g;
    *hi = y == c->upper ? INFINITY : g == 0.0 ? y : d < 0 ? y - g : y + g;
}

static double residual(Coord *c, double y)
{
    double t = c->p - c->tau * dq(c, y), lo, hi;
    subdiff(c, y, &lo, &hi);
    return t - pmin(pmax(t, lo), hi);
}

static int brenth(Coord *c, double a, double b, double *root)
{
    double xpre = a, xcur = b, fpre = residual(c, a), fcur = residual(c, b);
    if (fpre == 0 || fcur == 0)
        return *root = fpre == 0 ? a : b, FOUND;
    c->err |= (fpre < 0) == (fcur < 0);
    double xblk = 0.0, fblk = 0.0, spre = 0.0, scur = 0.0;
    for (int it = 0; it < 100 && !c->err; it++) {
        if ((fpre < 0) != (fcur < 0))
            xblk = xpre, fblk = fpre, spre = scur = xcur - xpre;
        if (fabs(fblk) < fabs(fcur))    /* swap as Python's tuples do */
            xpre = xcur, xcur = xblk, xblk = xpre,
            fpre = fcur, fcur = fblk, fblk = fpre;
        double delta = (1e-14 + RTOL * fabs(xcur)) / 2;
        double sbis = (xblk - xcur) / 2, stry = INFINITY;
        if (fcur == 0 || fabs(sbis) < delta)
            return *root = xcur, FOUND;
        if (fabs(spre) > delta && fabs(fcur) < fabs(fpre)) {
            if (xpre == xblk) {
                stry = -fcur * (xcur - xpre) / nonzero(c, fcur - fpre);
            } else {
                double dpre = (fpre - fcur) / nonzero(c, xpre - xcur);
                double dblk = (fblk - fcur) / nonzero(c, xblk - xcur);
                stry = -fcur * (fblk - fpre)
                    / nonzero(c, fblk * dpre - fpre * dblk);
            }
        }
        if (2 * fabs(stry) < pmin(fabs(spre), 3 * fabs(sbis) - delta))
            spre = scur, scur = stry;
        else
            spre = scur = sbis;
        xpre = xcur, fpre = fcur;
        xcur += fabs(scur) > delta ? scur : sbis > 0 ? delta : -delta;
        fcur = residual(c, xcur);
    }
    return FAIL;
}

/* inclusion._snap_to_kink */
static void snap(Coord *c, double *root, double *g)
{
    double kinks[3] = {c->shift, c->lower, c->upper}, r = *root, gk;
    double tol = pmax(1e-9, 1e-9 * fabs(r));
    for (int k = c->gamma > 0 ? 0 : 1; k < 3; k++) {
        if (isfinite(kinks[k]) && fabs(kinks[k] - r) <= tol
                && kinks[k] != c->x && fabs(gk = residual(c, kinks[k]))
                < fabs(*g))
            *root = kinks[k], *g = gk;
    }
}

/* inclusion._ulp_root */
static int ulp_root(Coord *c, double lo, double hi, double *root, double g)
{
    double glo = residual(c, lo), ghi = residual(c, hi);
    if (glo * ghi > 0)
        return FAIL;
    if (g * glo > 0)
        lo = *root, glo = g;
    else if (g * ghi > 0)
        hi = *root, ghi = g;
    for (int it = 0; it < 200; it++) {
        double mid = 0.5 * (lo + hi);
        if (mid <= lo || mid >= hi)
            break;
        double gm = residual(c, mid);
        if (fabs(gm) <= TOL)
            return *root = mid, FOUND;
        if ((gm < 0) == (glo < 0))
            lo = mid, glo = gm;
        else
            hi = mid, ghi = gm;
    }
    return *root = fabs(glo) <= fabs(ghi) ? lo : hi, FOUND;
}

/* inclusion._bracketed_root */
static int bracketed(Coord *c, double a, double b, double *root)
{
    double lo = a < b ? a : b, hi = a < b ? b : a, g;
    if (c->gamma > 0 && lo < c->shift && c->shift < hi) {
        g = residual(c, c->shift);
        if (fabs(g) <= TOL)
            return *root = c->shift, FOUND;
        if ((g < 0) == (residual(c, lo) < 0))
            lo = c->shift;
        else
            hi = c->shift;
    }
    if (brenth(c, lo, hi, root) == FAIL)
        return FAIL;
    g = residual(c, *root);
    if (fabs(g) > TOL)
        snap(c, root, &g);
    return fabs(g) > TOL ? ulp_root(c, lo, hi, root, g) : FOUND;
}

/* inclusion._shrink_inward */
static int shrink_inward(Coord *c, double y_out, double g_out, double *root)
{
    for (int it = 0; it < 200; it++) {
        double y = c->x + (y_out - c->x) * 0.5;
        if (y == c->x)
            break;
        double g = residual(c, y);
        if (fabs(g) <= TOL)
            return *root = y, FOUND;
        if (g * g_out < 0)
            return bracketed(c, y, y_out, root);
        y_out = y, g_out = g;
    }
    return NONE;
}

/* inclusion._solve_on_side */
static int on_side(Coord *c, double d, double y_prev, double dmin,
                   double delta0, double *root)
{
    double bound = d > 0 ? c->upper : c->lower, g_prev = residual(c, y_prev);
    if (fabs(g_prev) <= TOL)
        return *root = y_prev, FOUND;
    if (g_prev * d < 0)
        return shrink_inward(c, y_prev, g_prev, root);
    for (double step = pmax(delta0, 2.0 * dmin); step <= dmin * 0x1p60;
         step *= 2.0) {
        double y = pmin(pmax(c->x + d * step, c->lower), c->upper);
        double g = residual(c, y);
        if (fabs(g) <= TOL)
            return *root = y, FOUND;
        if (g * g_prev < 0)
            return bracketed(c, y_prev, y, root);
        if (y == bound)
            return NONE;
        y_prev = y, g_prev = g;
    }
    return FAIL;
}

/* inclusion.solve_inclusion: the stationary test, then each side in the
 * order of _candidate_sides; x if no side has a root */
static int solve(Coord *c, double *root)
{
    double slo, shi, d[2], y[2], q[2], s;
    int sides = 0, failed = 0;
    c->err |= !(c->tau > 0);
    subdiff(c, c->x, &slo, &shi);
    double alo = isinf(shi) ? c->lo : pmax(c->lo, (c->p - shi) / c->tau);
    double ahi = isinf(slo) ? c->hi : pmin(c->hi, (c->p - slo) / c->tau);
    *root = c->x;
    if (!(alo > ahi))
        return FOUND;
    double dmin = pmax(1e-8, 1e-8 * fabs(c->x));
    double v = pmin(pmax(0.0, c->lo), c->hi);
    double delta0 = pmin(pmax(dmin, 0.5 * c->tau * fabs(v)), dmin * 0x1p30);
    for (s = 1.0; s >= -1.0; s -= 2.0) {
        y[sides] = pmin(pmax(c->x + s * dmin, c->lower), c->upper);
        if (y[sides] != c->x)
            d[sides] = s, q[sides] = s * dq(c, y[sides]), sides++;
    }
    if (sides == 2 && q[1] < q[0])
        s = d[0], d[0] = d[1], d[1] = s, s = y[0], y[0] = y[1], y[1] = s;
    for (int k = 0; k < sides && !c->err; k++) {
        int got = on_side(c, d[k], y[k], dmin, delta0, root);
        if (got == FOUND)
            return FOUND;
        failed |= got == FAIL;
    }
    return *root = c->x, failed ? FAIL : FOUND;
}

long inclusion_sweep(long h, long w, double phi_x, double phi_y, double gamma,
                     double lower, double upper, const double *x_delta,
                     const double *shift, const double *tau, const double *p,
                     double *y, const long *order, long m, double *out)
{
    for (long k = 0; k < m; k++) {
        long i = order[k], r = i / w, col = i % w;
        Coord c = {.x = y[i], .p = p[i], .tau = tau[i], .xd = x_delta[i],
                   .gamma = gamma, .shift = shift[i], .lower = lower,
                   .upper = upper};
        /* StudentTObjective._stencil_terms and coord_clarke_interval */
        long nbs[4] = {col + 1 < w ? i + 1 : -1, col > 0 ? i - 1 : -1,
                       r + 1 < h ? i + w : -1, r > 0 ? i - w : -1};
        double g = 0.0, root;
        for (int t = 0; t < 4; t++) {
            if (nbs[t] >= 0) {
                double u = c.x - y[nbs[t]];
                c.wt[c.nt] = t < 2 ? phi_x : phi_y, c.nb[c.nt++] = y[nbs[t]];
                g += c.wt[c.nt - 1] * (2.0 * u / (1.0 + u * u));
            }
        }
        c.lo = c.x - c.xd > 0 ? g + 1.0 : g - 1.0;
        c.hi = c.x - c.xd < 0 ? g - 1.0 : g + 1.0;
        if (solve(&c, &root) == FAIL || c.err)
            return k;
        out[k] = y[i] = root, out[m + k] = c.lo, out[2 * m + k] = c.hi;
    }
    return m;
}
