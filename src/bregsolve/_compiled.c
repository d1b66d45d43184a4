/* The compiled code of bregsolve, one CPython extension module whose every
 * operation is Python's or NumPy's, in its order, so that its results are
 * bitwise theirs: quad_pass, the closed-form coordinate pass; sweep, the
 * student-t Bregman sweep, which solves each coordinate with the inclusion
 * kernel's search and hands those it cannot solve to Python.  The sweep
 * reads the spec's arrays, shift, gamma and the box, and evaluates each
 * coordinate's quotient once per point, as Python's lru_cache does.
 * The search's constants are Python's, -D flags of _quadpass.flags(). */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

/* Python's max(a, b) and min(a, b): the first argument wins ties and NaN */
static double pmax(double a, double b) { return b > a ? b : a; }
static double pmin(double a, double b) { return b < a ? b : a; }

/* bregman.interval_project */
static double project(double t, double lo, double hi)
{
    return pmin(pmax(t, lo), hi);
}

/* the fields of a ScalarBregman */
typedef struct { double gamma, shift, lower, upper; } Piece;

/* ScalarBregman.j_interval at y in j, and in s its subdiff_interval
 * without the box check */
static void intervals(const Piece *b, double y, double j[2], double s[2])
{
    j[0] = b->gamma == 0.0 ? y : y <= b->shift ? y - b->gamma : y + b->gamma;
    j[1] = b->gamma == 0.0 ? y : y >= b->shift ? y + b->gamma : y - b->gamma;
    s[0] = y == b->lower ? -INFINITY : j[0];
    s[1] = y == b->upper ? INFINITY : j[1];
}

/* inclusion._try_stationary's test at x, whose Clarke interval is [vlo,
 * vhi]: the intervals j and s of the piece there and, in a, the Clarke
 * elements v that keep p - tau * v in s; stationary unless a[0] > a[1] */
static int stationary(const Piece *b, double x, double p, double tau,
                      double vlo, double vhi, double j[2], double s[2],
                      double a[2])
{
    intervals(b, x, j, s);
    a[0] = isinf(s[1]) ? vlo : pmax(vlo, (p - s[1]) / tau);
    a[1] = isinf(s[0]) ? vhi : pmin(vhi, (p - s[0]) / tau);
    return !(a[0] > a[1]);
}

/* Pixel i of the h x w image y: its value x and data, the neighbours nb of
 * StudentTObjective.stencil (right, left, below, above) with their weights,
 * d_old = x - nb and 1 + d_old^2, and StudentTObjective._clarke(y, i) */
typedef struct {
    double x, xd, lo, hi, wt[4], d_old[4], den[4];
    int nt;
} Stencil;

static void stencil(Stencil *s, const double *y, Py_ssize_t h, Py_ssize_t w,
                    const double phi[2], const double *xd, Py_ssize_t i)
{
    Py_ssize_t r = i / w, col = i % w;
    Py_ssize_t nbs[4] = {col + 1 < w ? i + 1 : -1, col > 0 ? i - 1 : -1,
                         r + 1 < h ? i + w : -1, r > 0 ? i - w : -1};
    double g = 0.0;
    s->x = y[i], s->xd = xd[i], s->nt = 0;
    for (int t = 0; t < 4; t++) {
        if (nbs[t] >= 0) {
            double u = s->x - y[nbs[t]], den = 1.0 + u * u;
            s->wt[s->nt] = phi[t / 2], s->d_old[s->nt] = u;
            s->den[s->nt++] = den;
            g += phi[t / 2] * (2.0 * u / den);
        }
    }
    s->lo = s->x - s->xd > 0 ? g + 1.0 : g - 1.0;
    s->hi = s->x - s->xd < 0 ? g - 1.0 : g + 1.0;
}

/* StudentTObjective._quotient(y, i, x, new) on the stencil of i in y;
 * err set where Python raises: a log1p argument at or below -1, an
 * unbounded Clarke interval */
static double quotient(const Stencil *s, double new, int *err)
{
    double step = new - s->x, a = fabs(s->x), delta = 0.0;
    if (fabs(step) <= STATIONARY_REL_TOL * (a > 1.0 ? a : 1.0)) {
        *err |= isinf(s->lo) || isinf(s->hi);
        return 0.5 * (s->lo + s->hi);
    }
    for (int k = 0; k < s->nt; k++) {
        double d_new = s->d_old[k] + step;
        double z = step * (d_new + s->d_old[k]) / s->den[k];
        *err |= z <= -1.0;
        delta += s->wt[k] * log1p(z);
    }
    double d_old = s->x - s->xd, d_new = new - s->xd;
    if (d_old >= 0 && d_new >= 0)
        delta += step;
    else if (d_old <= 0 && d_new <= 0)
        delta -= step;
    else
        delta += d_new > 0 ? d_new + d_old : -(d_new + d_old);
    return delta / step;
}

static double shrink(double x, double lam)
{
    return x > lam ? x - lam : x < -lam ? x + lam : 0.0;
}

/* solvers._quadratic_pass with the rules bsor (0: c = omega, thr, tau,
 * gamma; aux = rsub) and blcd (1: c = alpha, gamma; aux = p), which sor and
 * gauss_seidel run at gamma = 0, over the symmetric C-ordered n x n A and
 * r = A y - b.  The cheap cost model vectorises the row update, each lane
 * rounding as NumPy does. */
#ifdef __x86_64__     /* one copy per instruction set, picked at load */
__attribute__((target_clones("avx512f", "avx2", "default")))
#endif
static void quad_pass(int rule, Py_ssize_t n, const double *A, double *r,
                      double *y, double *aux, const double *c)
{
    for (Py_ssize_t i = 0; i < n; i++) {
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
            for (Py_ssize_t j = 0; j < n; j++)
                r[j] += row[j] * delta;
            y[i] = x_new;
        }
    }
}

/* The inclusion kernel's search of one coordinate, each branch of
 * inclusion._search in its order. */

enum { FOUND, NONE, FAIL };     /* FAIL: DivergenceError, ConvergenceError */
enum { MEMO = 8 };

typedef struct {
    Piece b;
    Stencil s;                          /* s.x: the coordinate's x */
    double p, tau, memo[MEMO][2];       /* memo: (y, quotient) pairs, a ring */
    int err, seen;                      /* err: Python raises another error */
} Coord;

/* a divisor: 0 raises ZeroDivisionError */
static double nonzero(Coord *c, double d) { return c->err |= d == 0.0, d; }

/* the quotient at y, evaluated once per point as the search's lru_cache
 * does: a kept point == y gives its value, so that +-0 share one and NaN
 * none; its err is already in c->err */
static double dq(Coord *c, double y)
{
    int k, kept = c->seen < MEMO ? c->seen : MEMO;
    for (k = 0; k < kept; k++)
        if (c->memo[k][0] == y)
            return c->memo[k][1];
    k = c->seen++ % MEMO;
    c->memo[k][0] = y;
    return c->memo[k][1] = quotient(&c->s, y, &c->err);
}

/* inclusion._residual */
static double residual(Coord *c, double y)
{
    double t = c->p - c->tau * dq(c, y), j[2], s[2];
    c->err |= !(c->b.lower <= y && y <= c->b.upper);
    intervals(&c->b, y, j, s);
    return t - project(t, s[0], s[1]);
}

/* inclusion.brenth on the residual */
static int brenth(Coord *c, double a, double b, double *root)
{
    double xpre = a, xcur = b, fpre = residual(c, a), fcur = residual(c, b);
    if (fpre == 0 || fcur == 0)
        return *root = fpre == 0 ? a : b, FOUND;
    c->err |= (fpre < 0) == (fcur < 0);
    double xblk = 0.0, fblk = 0.0, spre = 0.0, scur = 0.0;
    for (int it = 0; it < BRENT_MAXITER && !c->err; it++) {
        if ((fpre < 0) != (fcur < 0))
            xblk = xpre, fblk = fpre, spre = scur = xcur - xpre;
        if (fabs(fblk) < fabs(fcur))    /* swap as Python's tuples do */
            xpre = xcur, xcur = xblk, xblk = xpre,
            fpre = fcur, fcur = fblk, fblk = fpre;
        double delta = (BRENT_XTOL + BRENT_RTOL * fabs(xcur)) / 2;
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
    double kinks[3] = {c->b.shift, c->b.lower, c->b.upper}, r = *root, gk;
    double tol = pmax(KINK_TOL, KINK_TOL * fabs(r));
    for (int k = c->b.gamma > 0 ? 0 : 1; k < 3; k++) {
        if (isfinite(kinks[k]) && fabs(kinks[k] - r) <= tol
                && kinks[k] != c->s.x && fabs(gk = residual(c, kinks[k]))
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
    for (int it = 0; it < MAX_HALVINGS; it++) {
        double mid = 0.5 * (lo + hi);
        if (mid <= lo || mid >= hi)
            break;
        double gm = residual(c, mid);
        if (fabs(gm) <= RESIDUAL_TOL)
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
    double lo = a < b ? a : b, hi = a < b ? b : a, g, shift = c->b.shift;
    if (c->b.gamma > 0 && lo < shift && shift < hi) {
        g = residual(c, shift);
        if (fabs(g) <= RESIDUAL_TOL)
            return *root = shift, FOUND;
        if ((g < 0) == (residual(c, lo) < 0))
            lo = shift;
        else
            hi = shift;
    }
    if (brenth(c, lo, hi, root) == FAIL)
        return FAIL;
    g = residual(c, *root);
    if (fabs(g) > RESIDUAL_TOL)
        snap(c, root, &g);
    return fabs(g) > RESIDUAL_TOL ? ulp_root(c, lo, hi, root, g) : FOUND;
}

/* inclusion._shrink_inward */
static int shrink_inward(Coord *c, double y_out, double g_out, double *root)
{
    for (int it = 0; it < MAX_HALVINGS; it++) {
        double y = c->s.x + (y_out - c->s.x) * 0.5;
        if (y == c->s.x)
            break;
        double g = residual(c, y);
        if (fabs(g) <= RESIDUAL_TOL)
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
    double bound = d > 0 ? c->b.upper : c->b.lower;
    double g_prev = residual(c, y_prev);
    if (fabs(g_prev) <= RESIDUAL_TOL)
        return *root = y_prev, FOUND;
    if (g_prev * d < 0)
        return shrink_inward(c, y_prev, g_prev, root);
    for (double step = pmax(delta0, 2.0 * dmin);
         step <= ldexp(dmin, MAX_DOUBLINGS); step *= 2.0) {
        double y = project(c->s.x + d * step, c->b.lower, c->b.upper);
        double g = residual(c, y);
        if (fabs(g) <= RESIDUAL_TOL)
            return *root = y, FOUND;
        if (g * g_prev < 0)
            return bracketed(c, y_prev, y, root);
        if (y == bound)
            return NONE;
        y_prev = y, g_prev = g;
    }
    return FAIL;
}

/* inclusion._search up to its fallbacks: each side in the order of
 * _candidate_sides; NONE if no side has a root */
static int solve(Coord *c, double *root)
{
    double x = c->s.x, d[2], y[2], q[2], side;
    int sides = 0, failed = 0;
    double dmin = pmax(DMIN, DMIN * fabs(x));
    double v = project(0.0, c->s.lo, c->s.hi);
    double delta0 = pmin(pmax(dmin, 0.5 * c->tau * fabs(v)),
                         ldexp(dmin, WARM_DOUBLINGS));
    for (side = 1.0; side >= -1.0; side -= 2.0) {
        y[sides] = project(x + side * dmin, c->b.lower, c->b.upper);
        if (y[sides] != x)
            d[sides] = side, q[sides] = side * dq(c, y[sides]), sides++;
    }
    if (sides == 2 && q[1] < q[0])
        side = d[0], d[0] = d[1], d[1] = side,
        side = y[0], y[0] = y[1], y[1] = side;
    for (int k = 0; k < sides && !c->err; k++) {
        int got = on_side(c, d[k], y[k], dmin, delta0, root);
        if (got == FOUND)
            return FOUND;
        failed |= got == FAIL;
    }
    return failed ? FAIL : NONE;
}

/* PyArg_Parse converters to C-contiguous views of doubles, of writable
 * doubles and of longs; the caller releases the buffer, also when the
 * check fails */
static int view(PyObject *o, Py_buffer *b, const char *fmt, int flags)
{
    if (PyObject_GetBuffer(o, b, PyBUF_STRIDES | PyBUF_FORMAT | flags) < 0)
        return 0;
    if (strcmp(b->format, fmt) == 0 && PyBuffer_IsContiguous(b, 'C'))
        return 1;
    PyErr_Format(PyExc_TypeError, "expected a C-contiguous array of '%s'",
                 fmt);
    return 0;
}
static int doubles(PyObject *o, void *b) { return view(o, b, "d", 0); }
static int writable(PyObject *o, void *b)
{
    return view(o, b, "d", PyBUF_WRITABLE);
}
static int longs(PyObject *o, void *b) { return view(o, b, "l", 0); }

/* The solution of coordinate i of the h x w image y, whose piece is b,
 * written to y[i] and p[i]: the stationary test (inclusion._try_stationary)
 * and, where it fails, the kernel's search and inclusion._finish.  0 where
 * Python must solve it: tau not > 0 (Python raises), x outside the box
 * (Python raises), a search that fails, meets an error or returns x. */
static int solved(double *y, double *p, double tau, const Piece *b,
                  Py_ssize_t h, Py_ssize_t w, const double phi[2],
                  const double *xd, Py_ssize_t i, int forget)
{
    Coord c = {.b = *b, .p = p[i], .tau = tau};
    double x = y[i], root, t, j[2], s[2], a[2];
    if (!(tau > 0) || !(b->lower <= x && x <= b->upper))
        return 0;
    stencil(&c.s, y, h, w, phi, xd, i);
    if (stationary(b, x, c.p, tau, c.s.lo, c.s.hi, j, s, a)) {
        t = c.p - tau * pmin(pmax(0.0, a[0]), a[1]);
        root = x;
    } else {
        if (solve(&c, &root) != FOUND || root == x)
            return 0;
        t = c.p - tau * dq(&c, root);
        intervals(b, root, j, s);
        if (c.err)
            return 0;
    }
    y[i] = root;
    p[i] = forget ? project(t, j[0], j[1]) : project(t, s[0], s[1]);
    return 1;
}

/* sweep(y, h, w, phi_x, phi_y, x_delta, idx, shift, gamma, lower, upper, p,
 * tau, forget, fallback): the loop of solvers.bia_sweep on the live y and
 * p, with the pieces of the spec's shift, gamma and box, each coordinate
 * of idx solved and written in place in its turn, or by fallback(i) where
 * Python must solve it.  IndexError for an i outside the image, checked in
 * its turn, since fallback may write idx. */
static PyObject *sweep(PyObject *self, PyObject *args)
{
    Py_buffer y = {0}, xd = {0}, idx = {0}, shift = {0}, p = {0}, tau = {0};
    PyObject *fallback, *at, *got = NULL;
    Py_ssize_t h, w, n, i;
    double phi[2];
    Piece b;
    int forget;
    if (!PyArg_ParseTuple(args, "O&nnddO&O&O&dddO&O&pO", writable, &y, &h,
                          &w, phi, phi + 1, doubles, &xd, longs, &idx,
                          doubles, &shift, &b.gamma, &b.lower, &b.upper,
                          writable, &p, doubles, &tau, &forget, &fallback))
        goto done;
    n = y.len / sizeof(double);
    if (!(h > 0 && w > 0 && h * w == n && xd.len == y.len && p.len == y.len
            && tau.len == y.len && shift.len == y.len)) {
        PyErr_SetString(PyExc_ValueError, "the arrays do not fit the image");
        goto done;
    }
    for (Py_ssize_t k = 0; k < idx.len / (Py_ssize_t)sizeof(long); k++) {
        if ((i = ((const long *)idx.buf)[k]) < 0 || i >= n) {
            PyErr_Format(PyExc_IndexError, "no coordinate %zd", i);
            goto done;
        }
        b.shift = ((const double *)shift.buf)[i];
        if (solved(y.buf, p.buf, ((const double *)tau.buf)[i], &b, h, w,
                   phi, xd.buf, i, forget))
            continue;
        if ((at = PyLong_FromSsize_t(i)) == NULL)
            goto done;
        PyObject *out = PyObject_CallOneArg(fallback, at);
        Py_DECREF(at);
        if (out == NULL)
            goto done;
        Py_DECREF(out);
    }
    got = Py_NewRef(Py_None);
done:
    PyBuffer_Release(&y), PyBuffer_Release(&xd), PyBuffer_Release(&idx);
    PyBuffer_Release(&shift), PyBuffer_Release(&p), PyBuffer_Release(&tau);
    return got;
}

/* quad_pass(rule, A, r, y, aux, *c): the closed-form pass; TypeError
 * before anything is written unless every array is a C-contiguous array
 * of doubles */
static PyObject *quad_pass_call(PyObject *self, PyObject *args)
{
    Py_buffer a[4] = {{0}};             /* A, r, y, aux */
    double c[4] = {0.0};
    int rule;
    PyObject *got = NULL;
    if (PyArg_ParseTuple(args, "iO&O&O&O&dd|dd", &rule, doubles, a,
                         doubles, a + 1, doubles, a + 2, doubles, a + 3, c,
                         c + 1, c + 2, c + 3)) {
        Py_ssize_t n = a[2].len / sizeof(double);
        if (a[0].len != n * a[2].len || a[1].len != a[2].len
                || a[3].len != a[2].len)
            PyErr_SetString(PyExc_ValueError, "the arrays do not fit A");
        else
            quad_pass(rule, n, a[0].buf, a[1].buf, a[2].buf, a[3].buf, c),
                got = Py_NewRef(Py_None);
    }
    for (int k = 0; k < 4; k++)
        PyBuffer_Release(a + k);
    return got;
}

static PyMethodDef methods[] = {
    {"quad_pass", quad_pass_call, METH_VARARGS,
     "quad_pass(rule, A, r, y, aux, *c)\n--\n\n"
     "solvers._quadratic_pass with the rule bsor (0) or blcd (1)."},
    {"sweep", sweep, METH_VARARGS,
     "sweep(y, h, w, phi_x, phi_y, x_delta, idx, shift, gamma, lower, "
     "upper, p, tau, forget, fallback)\n--\n\nThe loop of solvers.bia_sweep "
     "on a student-t image, with the pieces of the spec's shift, gamma and "
     "box; it evaluates each coordinate's quotient once per point."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_compiled", NULL,
                                    -1, methods};

PyMODINIT_FUNC PyInit__compiled(void)
{
    return PyModule_Create(&module);
}
