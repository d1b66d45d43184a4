/* The compiled code of bregsolve, one CPython extension module whose every
 * operation is Python's or NumPy's, in its order, so that its results are
 * bitwise theirs: quad_pass, the closed-form coordinate pass; problems,
 * the problem of each coordinate of a student-t sweep; solve_inclusion,
 * the checked solve of each coordinate, which runs the inclusion kernel's
 * search on such a problem. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <math.h>

#define TOL 1e-10                       /* inclusion.RESIDUAL_TOL */

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

/* Pixel i of the h x w image y: its value and data, the neighbours of
 * StudentTObjective.stencil (right, left, below, above) with their
 * weights, and StudentTObjective._clarke(y, i) */
typedef struct {
    double x, xd, lo, hi, wt[4], nb[4];
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
            double u = s->x - y[nbs[t]];
            s->wt[s->nt] = phi[t / 2], s->nb[s->nt++] = y[nbs[t]];
            g += phi[t / 2] * (2.0 * u / (1.0 + u * u));
        }
    }
    s->lo = s->x - s->xd > 0 ? g + 1.0 : g - 1.0;
    s->hi = s->x - s->xd < 0 ? g - 1.0 : g + 1.0;
}

/* StudentTObjective._quotient(y, i, old, new) on the stencil of i in y;
 * err set where Python raises: a log1p argument at or below -1, an
 * unbounded Clarke interval */
static double quotient(const Stencil *s, double old, double new, int *err)
{
    double step = new - old, a = fabs(old), delta = 0.0;
    if (fabs(step) <= 1e-14 * (a > 1.0 ? a : 1.0)) {    /* stationary */
        *err |= isinf(s->lo) || isinf(s->hi);
        return 0.5 * (s->lo + s->hi);
    }
    for (int k = 0; k < s->nt; k++) {
        double d_old = old - s->nb[k], d_new = d_old + step;
        double z = step * (d_new + d_old) / (1.0 + d_old * d_old);
        *err |= z <= -1.0;
        delta += s->wt[k] * log1p(z);
    }
    double d_old = old - s->xd, d_new = new - s->xd;
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

static PyObject *inclusion, *keep_box, *forget_box;
static PyObject *reference, *search;
static PyTypeObject *Problem, *ScalarBregman, *Solution;

/* the slots of InclusionProblem, ScalarBregman and InclusionSolution */
static const char *const prob_names[] = {"sb", "x", "p", "tau", "dq",
                                         "clarke"};
static const char *const piece_names[] = {"gamma", "shift", "lower",
                                          "upper"};
static const char *const sol_names[] = {"y", "p_new", "stationary"};
enum { SB, X, P, TAU, DQ, CLARKE };
enum { Y, P_NEW, STATIONARY };
static Py_ssize_t prob_at[6], piece_at[4], sol_at[3];
#define SLOT(o, at) (*(PyObject **)((char *)(o) + (at)))

/* every item a float, not of a subclass */
static int floats(PyObject **v, int n)
{
    for (int k = 0; k < n; k++)
        if (v[k] == NULL || !PyFloat_CheckExact(v[k]))
            return 0;
    return 1;
}

/* the fields of sb in b; 0 unless sb is a ScalarBregman, not of a
 * subclass, whose fields are floats */
static int piece(PyObject *sb, Piece *b)
{
    PyObject *f[4] = {NULL};
    if (sb != NULL && Py_IS_TYPE(sb, ScalarBregman))
        for (int k = 0; k < 4; k++)
            f[k] = SLOT(sb, piece_at[k]);
    if (!floats(f, 4))
        return 0;
    *b = (Piece){PyFloat_AS_DOUBLE(f[0]), PyFloat_AS_DOUBLE(f[1]),
                 PyFloat_AS_DOUBLE(f[2]), PyFloat_AS_DOUBLE(f[3])};
    return 1;
}

/* The inclusion kernel's search of one coordinate, each branch of
 * inclusion._search in its order. */

#define RTOL (4.0 * 2.220446049250313e-16)
enum { FOUND, NONE, FAIL };     /* FAIL: DivergenceError, ConvergenceError */

typedef struct {
    Piece b;
    Stencil s;                          /* s.x: the coordinate's x */
    double p, tau;
    int err;                            /* err: Python raises another error */
} Coord;

/* a divisor: 0 raises ZeroDivisionError */
static double nonzero(Coord *c, double d) { return c->err |= d == 0.0, d; }

/* inclusion._residual */
static double residual(Coord *c, double y)
{
    double t = c->p - c->tau * quotient(&c->s, c->s.x, y, &c->err), j[2];
    double s[2];
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
    double kinks[3] = {c->b.shift, c->b.lower, c->b.upper}, r = *root, gk;
    double tol = pmax(1e-9, 1e-9 * fabs(r));
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
    double lo = a < b ? a : b, hi = a < b ? b : a, g, shift = c->b.shift;
    if (c->b.gamma > 0 && lo < shift && shift < hi) {
        g = residual(c, shift);
        if (fabs(g) <= TOL)
            return *root = shift, FOUND;
        if ((g < 0) == (residual(c, lo) < 0))
            lo = shift;
        else
            hi = shift;
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
        double y = c->s.x + (y_out - c->s.x) * 0.5;
        if (y == c->s.x)
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
    double bound = d > 0 ? c->b.upper : c->b.lower;
    double g_prev = residual(c, y_prev);
    if (fabs(g_prev) <= TOL)
        return *root = y_prev, FOUND;
    if (g_prev * d < 0)
        return shrink_inward(c, y_prev, g_prev, root);
    for (double step = pmax(delta0, 2.0 * dmin); step <= dmin * 0x1p60;
         step *= 2.0) {
        double y = project(c->s.x + d * step, c->b.lower, c->b.upper);
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

/* inclusion._search up to its fallbacks: each side in the order of
 * _candidate_sides; NONE if no side has a root */
static int solve(Coord *c, double *root)
{
    double x = c->s.x, d[2], y[2], q[2], side;
    int sides = 0, failed = 0;
    c->err |= !(c->tau > 0);
    double dmin = pmax(1e-8, 1e-8 * fabs(x));
    double v = project(0.0, c->s.lo, c->s.hi);
    double delta0 = pmin(pmax(dmin, 0.5 * c->tau * fabs(v)), dmin * 0x1p30);
    for (side = 1.0; side >= -1.0; side -= 2.0) {
        y[sides] = project(x + side * dmin, c->b.lower, c->b.upper);
        if (y[sides] != x)
            d[sides] = side, q[sides] = side * quotient(&c->s, x, y[sides],
                                                        &c->err), sides++;
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

/* solvers._problems: yields each (i, problem) when its turn comes, read
 * from the live y; the problem's dq is a Quotient,
 * StudentTObjective._quotient at the live y. */
typedef struct {
    PyObject_HEAD
    Py_buffer y, xd, idx;               /* y: the sweep context's, live */
    PyObject *python, *pieces, *p, *tau;    /* python: ctx._quotient */
    Py_ssize_t h, w, k;
    double phi[2];
} Visits;

/* ctx.dq(i): new -> StudentTObjective._quotient(y, i, old, new) */
typedef struct {
    PyObject_HEAD
    vectorcallfunc call;
    Visits *of;
    PyObject *old;
    Py_ssize_t i, calls;
} Quotient;

/* dq(new), counted; Python's ctx._quotient(i, old, new) where the
 * compiled quotient does not apply or Python raises */
static PyObject *quotient_call(PyObject *self, PyObject *const *args,
                               size_t nargsf, PyObject *kwnames)
{
    Quotient *dq = (Quotient *)self;
    Visits *v = dq->of;
    PyObject *at, *got;
    Stencil s;
    int err = 0;
    dq->calls++;
    if (PyVectorcall_NARGS(nargsf) != 1 || kwnames != NULL)
        return PyErr_Format(PyExc_TypeError, "dq takes one argument");
    if (PyFloat_CheckExact(args[0])) {
        stencil(&s, v->y.buf, v->h, v->w, v->phi, v->xd.buf, dq->i);
        double q = quotient(&s, PyFloat_AS_DOUBLE(dq->old),
                            PyFloat_AS_DOUBLE(args[0]), &err);
        if (!err)
            return PyFloat_FromDouble(q);
    }
    if ((at = PyLong_FromSsize_t(dq->i)) == NULL)
        return NULL;
    got = PyObject_Vectorcall(v->python,
                              (PyObject *[]){at, dq->old, args[0]}, 3, NULL);
    Py_DECREF(at);
    return got;
}

static void quotient_free(PyObject *self)
{
    Py_XDECREF(((Quotient *)self)->of), Py_XDECREF(((Quotient *)self)->old);
    PyObject_Free(self);
}

static PyMemberDef quotient_members[] = {
    {"calls", T_PYSSIZET, offsetof(Quotient, calls), READONLY}, {NULL}};

static PyTypeObject quotient_type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "bregsolve._compiled.Quotient",
    .tp_basicsize = sizeof(Quotient),
    .tp_dealloc = quotient_free,
    .tp_vectorcall_offset = offsetof(Quotient, call),
    .tp_call = PyVectorcall_Call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_members = quotient_members,
};

/* InclusionSolution(y, p_new, stationary), its fields set as its __init__
 * sets them */
static PyObject *solution(PyObject *y, double p_new, PyObject *stationary)
{
    PyObject *value = PyFloat_FromDouble(p_new), *sol;
    if (value == NULL || (sol = Solution->tp_alloc(Solution, 0)) == NULL) {
        Py_XDECREF(value);
        return NULL;
    }
    SLOT(sol, sol_at[Y]) = Py_NewRef(y);
    SLOT(sol, sol_at[P_NEW]) = value;
    SLOT(sol, sol_at[STATIONARY]) = Py_NewRef(stationary);
    return sol;
}

/* inclusion.<name>(*args, **kwargs), looked up at each call */
static PyObject *call(PyObject *name, PyObject *const *args, Py_ssize_t n,
                      PyObject *kwnames)
{
    PyObject *f = PyObject_GetAttr(inclusion, name), *out;
    if (f == NULL)
        return NULL;
    out = PyObject_Vectorcall(f, args, n, kwnames);
    Py_DECREF(f);
    return out;
}

/* whether the stencil that dq reads now, set in c->s, is the problem's:
 * x, dq's old value and the Clarke pair [vlo, vhi] bitwise its own */
static int live(Coord *c, const Quotient *dq, double x, double vlo,
                double vhi)
{
    Visits *v = dq->of;
    stencil(&c->s, v->y.buf, v->h, v->w, v->phi, v->xd.buf, dq->i);
    double want[4] = {x, PyFloat_AS_DOUBLE(dq->old), vlo, vhi};
    double got[4] = {c->s.x, c->s.x, c->s.lo, c->s.hi};
    return memcmp(want, got, sizeof want) == 0;
}

/* solve_inclusion(prob, mode): the stationary test
 * (inclusion._try_stationary), then, where prob.dq is a Quotient on the
 * problem's own stencil, the kernel's search and inclusion._finish.  A
 * search that fails, meets an error or returns x, and any other dq, go to
 * inclusion._search.  Any other input (a keyword, a field that is not a
 * float, a Clarke pair that is not a tuple of floats, another mode, a
 * problem or piece of a subclass, tau == 0) goes to
 * inclusion.solve_inclusion whole, so that results and errors stay
 * Python's. */
static PyObject *checked_solve(PyObject *self, PyObject *const *args,
                               Py_ssize_t nargs, PyObject *kwnames)
{
    PyObject *prob = nargs ? args[0] : NULL, *o[6], *clarke;
    PyObject *mode = nargs > 1 ? args[1] : keep_box;
    Coord c = {.err = 0};
    if (kwnames != NULL || nargs < 1 || nargs > 2
            || !Py_IS_TYPE(prob, Problem) || !PyUnicode_CheckExact(mode))
        goto in_python;
    int forget = PyUnicode_Compare(mode, forget_box) == 0;
    if (!forget && PyUnicode_Compare(mode, keep_box) != 0)
        goto in_python;
    for (int k = 0; k < 6; k++)
        o[k] = SLOT(prob, prob_at[k]);
    clarke = o[CLARKE];
    if (!piece(o[SB], &c.b) || o[DQ] == NULL || !floats(o + X, 3)
            || clarke == NULL || !PyTuple_CheckExact(clarke)
            || PyTuple_GET_SIZE(clarke) != 2
            || !floats(((PyTupleObject *)clarke)->ob_item, 2))
        goto in_python;
    double x = PyFloat_AS_DOUBLE(o[X]), y, j[2], s[2], a[2];
    double vlo = PyFloat_AS_DOUBLE(PyTuple_GET_ITEM(clarke, 0));
    double vhi = PyFloat_AS_DOUBLE(PyTuple_GET_ITEM(clarke, 1));
    c.p = PyFloat_AS_DOUBLE(o[P]), c.tau = PyFloat_AS_DOUBLE(o[TAU]);
    if (c.tau == 0.0)                   /* Python raises ZeroDivisionError */
        goto in_python;
    if (stationary(&c.b, x, c.p, c.tau, vlo, vhi, j, s, a)) {
        double t = c.p - c.tau * pmin(pmax(0.0, a[0]), a[1]);
        return solution(o[X], forget ? project(t, j[0], j[1])
                        : project(t, s[0], s[1]), Py_True);
    }
    if (Py_IS_TYPE(o[DQ], &quotient_type)
            && live(&c, (Quotient *)o[DQ], x, vlo, vhi)
            && solve(&c, &y) == FOUND && y != x) {
        double t = c.p - c.tau * quotient(&c.s, x, y, &c.err);
        intervals(&c.b, y, j, s);
        if (!c.err) {
            PyObject *root = PyFloat_FromDouble(y), *sol = NULL;
            if (root != NULL)
                sol = solution(root, forget ? project(t, j[0], j[1])
                               : project(t, s[0], s[1]), Py_False);
            Py_XDECREF(root);
            return sol;
        }
    }
    PyObject *rest[] = {prob, mode};
    return call(search, rest, 2, NULL);
in_python:
    return call(reference, args, nargs, kwnames);
}

/* InclusionProblem(*f), its slots set as its __init__ sets them where its
 * checks pass; else the class's own, which raises as Python does */
static PyObject *problem(PyObject **f)
{
    PyObject *prob;
    double x = PyFloat_AS_DOUBLE(f[X]);
    Piece b;
    if (piece(f[SB], &b) && floats(f + TAU, 1)
            && PyFloat_AS_DOUBLE(f[TAU]) > 0 && b.lower <= x
            && x <= b.upper) {
        if ((prob = Problem->tp_alloc(Problem, 0)) != NULL)
            for (int k = 0; k < 6; k++)
                SLOT(prob, prob_at[k]) = Py_NewRef(f[k]);
        return prob;
    }
    return PyObject_Vectorcall((PyObject *)Problem, f, 6, NULL);
}

/* The k-th coordinate i of idx and its problem, built from the live y.
 * IndexError for an i outside the image, checked here since idx and p may
 * change between visits. */
static PyObject *visit(PyObject *self)
{
    Visits *v = (Visits *)self;
    Py_ssize_t i, n = v->y.len / sizeof(double);
    Stencil s;
    if (v->k >= v->idx.len / (Py_ssize_t)sizeof(long))
        return NULL;
    i = ((const long *)v->idx.buf)[v->k++];
    if (i < 0 || i >= n || i >= PyList_GET_SIZE(v->p)
            || i >= PyList_GET_SIZE(v->tau))
        return PyErr_Format(PyExc_IndexError, "no coordinate %zd", i);
    PyObject *pt[2] = {Py_NewRef(PyList_GET_ITEM(v->p, i)),
                       Py_NewRef(PyList_GET_ITEM(v->tau, i))};
    stencil(&s, v->y.buf, v->h, v->w, v->phi, v->xd.buf, i);
    Quotient *dq = PyObject_New(Quotient, &quotient_type);
    PyObject *old = PyFloat_FromDouble(s.x), *got = NULL, *prob;
    PyObject *lo = PyFloat_FromDouble(s.lo), *hi = PyFloat_FromDouble(s.hi);
    PyObject *at = PyLong_FromSsize_t(i);
    PyObject *f[6] = {PyTuple_GET_ITEM(v->pieces, i), old, pt[0], pt[1],
                      (PyObject *)dq,
                      lo && hi ? PyTuple_Pack(2, lo, hi) : NULL};
    if (dq != NULL)
        dq->call = quotient_call, dq->of = (Visits *)Py_NewRef(self),
        dq->old = Py_XNewRef(old), dq->i = i, dq->calls = 0;
    if (dq && old && f[CLARKE] && at && (prob = problem(f)) != NULL)
        got = PyTuple_Pack(2, at, prob), Py_DECREF(prob);
    Py_XDECREF(dq), Py_XDECREF(old), Py_XDECREF(lo), Py_XDECREF(hi);
    Py_XDECREF(f[CLARKE]), Py_XDECREF(at);
    Py_DECREF(pt[0]), Py_DECREF(pt[1]);
    return got;
}

static void visits_free(PyObject *self)
{
    Visits *v = (Visits *)self;
    PyBuffer_Release(&v->y), PyBuffer_Release(&v->xd);
    PyBuffer_Release(&v->idx);
    Py_XDECREF(v->python), Py_XDECREF(v->pieces);
    Py_XDECREF(v->p), Py_XDECREF(v->tau);
    PyObject_Free(self);
}

static PyTypeObject visits_type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "bregsolve._compiled.Visits",
    .tp_basicsize = sizeof(Visits),
    .tp_dealloc = visits_free,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_iter = PyObject_SelfIter,
    .tp_iternext = visit,
};

/* PyArg_Parse converters to C-contiguous views of doubles and of longs;
 * the caller releases the buffer, also when the check fails */
static int view(PyObject *o, Py_buffer *b, const char *fmt)
{
    if (PyObject_GetBuffer(o, b, PyBUF_STRIDES | PyBUF_FORMAT) < 0)
        return 0;
    if (strcmp(b->format, fmt) == 0 && PyBuffer_IsContiguous(b, 'C'))
        return 1;
    PyErr_Format(PyExc_TypeError, "expected a C-contiguous array of '%s'",
                 fmt);
    return 0;
}
static int doubles(PyObject *o, void *b) { return view(o, b, "d"); }
static int longs(PyObject *o, void *b) { return view(o, b, "l"); }

/* problems(y, quotient, h, w, phi_x, phi_y, x_delta, idx, pieces, p, tau):
 * the visits of idx */
static PyObject *problems(PyObject *self, PyObject *args)
{
    Visits *v = PyObject_New(Visits, &visits_type);
    if (v == NULL)
        return NULL;
    memset(&v->y, 0, sizeof *v - offsetof(Visits, y));
    if (!PyArg_ParseTuple(args, "O&OnnddO&O&O!O!O!", doubles, &v->y,
                          &v->python, &v->h, &v->w, v->phi, v->phi + 1,
                          doubles, &v->xd, longs, &v->idx, &PyTuple_Type,
                          &v->pieces, &PyList_Type, &v->p, &PyList_Type,
                          &v->tau)) {
        v->python = v->pieces = v->p = v->tau = NULL;
        Py_DECREF(v);
        return NULL;
    }
    Py_INCREF(v->python), Py_INCREF(v->pieces);
    Py_INCREF(v->p), Py_INCREF(v->tau);
    Py_ssize_t n = v->y.len / sizeof(double);
    if (v->h > 0 && v->w > 0 && v->h * v->w == n && v->xd.len == v->y.len
            && PyTuple_GET_SIZE(v->pieces) == n && PyList_GET_SIZE(v->p) == n
            && PyList_GET_SIZE(v->tau) == n)
        return (PyObject *)v;
    PyErr_SetString(PyExc_ValueError, "the arrays do not fit the image");
    Py_DECREF(v);
    return NULL;
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

/* the offset of each slot in names of type; ImportError if one is not a
 * slot holding an object */
static int offsets(PyTypeObject *type, const char *const *names, int n,
                   Py_ssize_t *at)
{
    for (int k = 0; k < n; k++) {
        PyObject *d = PyObject_GetAttrString((PyObject *)type, names[k]);
        int ok = d != NULL && Py_IS_TYPE(d, &PyMemberDescr_Type)
            && ((PyMemberDescrObject *)d)->d_member->type == T_OBJECT_EX;
        if (ok)
            at[k] = ((PyMemberDescrObject *)d)->d_member->offset;
        Py_XDECREF(d);
        if (!ok) {
            PyErr_Format(PyExc_ImportError, "%s.%s is not a slot",
                         type->tp_name, names[k]);
            return -1;
        }
    }
    return 0;
}

static PyTypeObject *type_of(const char *name)
{
    PyObject *t = PyObject_GetAttrString(inclusion, name);
    if (t != NULL && !PyType_Check(t)) {
        PyErr_Format(PyExc_ImportError, "inclusion.%s is not a class", name);
        Py_CLEAR(t);
    }
    return (PyTypeObject *)t;
}

static PyMethodDef methods[] = {
    {"quad_pass", quad_pass_call, METH_VARARGS,
     "quad_pass(rule, A, r, y, aux, *c)\n--\n\n"
     "solvers._quadratic_pass with the rule bsor (0) or blcd (1)."},
    {"problems", problems, METH_VARARGS,
     "problems(y, quotient, h, w, phi_x, phi_y, x_delta, idx, pieces, p, "
     "tau)\n--\n\nsolvers._problems."},
    {"solve_inclusion", (PyCFunction)(void (*)(void))checked_solve,
     METH_FASTCALL | METH_KEYWORDS,
     "solve_inclusion(prob, mode='keep_box')\n--\n\n"
     "inclusion.solve_inclusion, whose search runs compiled on the "
     "problems of problems()."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_compiled", NULL,
                                    -1, methods};

PyMODINIT_FUNC PyInit__compiled(void)
{
    if (inclusion == NULL) {
        PyObject **names[] = {&keep_box, &forget_box, &reference, &search};
        const char *text[] = {"keep_box", "forget_box", "solve_inclusion",
                              "_search"};
        int ok = (inclusion = PyImport_ImportModule("bregsolve.inclusion"))
            != NULL;
        for (int k = 0; ok && k < 4; k++)
            ok = (*names[k] = PyUnicode_InternFromString(text[k])) != NULL;
        if (!ok || !(Problem = type_of("InclusionProblem"))
                || !(ScalarBregman = type_of("ScalarBregman"))
                || !(Solution = type_of("InclusionSolution"))
                || offsets(Problem, prob_names, 6, prob_at)
                || offsets(ScalarBregman, piece_names, 4, piece_at)
                || offsets(Solution, sol_names, 3, sol_at)
                || PyType_Ready(&quotient_type)
                || PyType_Ready(&visits_type)) {
            Py_CLEAR(inclusion);
            return NULL;
        }
    }
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddType(m, &quotient_type) < 0)
        Py_CLEAR(m);
    return m;
}
