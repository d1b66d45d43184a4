/* inclusion.solve_inclusion as a CPython extension, bitwise alike: its
 * stationary test (inclusion._try_stationary) and its guess check
 * (inclusion._take_guess) run here, each operation Python's in its order,
 * and the rest is Python's own: prob.dq for the guess residual,
 * inclusion._squeezed when that misses the tolerance, inclusion._search
 * when neither update applies.  Any other input (a keyword, a field that
 * is not a float, a Clarke pair that is not a tuple of floats, a guess
 * that is not None or a float, another mode, a problem or piece of a
 * subclass, tau == 0) goes to inclusion.solve_inclusion whole, so that
 * results and errors stay Python's. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

#define TOL 1e-10                       /* inclusion.RESIDUAL_TOL */

static PyObject *inclusion, *keep_box, *forget_box;
static PyObject *reference, *search, *squeezed, *guess_update;
static PyTypeObject *Problem, *Piece, *Solution;

/* the slots of InclusionProblem, ScalarBregman and InclusionSolution */
static const char *const prob_names[] = {"sb", "x", "p", "tau", "dq",
                                         "clarke"};
static const char *const piece_names[] = {"gamma", "shift", "lower",
                                          "upper"};
static const char *const sol_names[] = {"y", "p_new", "stationary"};
enum { SB, X, P, TAU, DQ, CLARKE };
enum { GAMMA, SHIFT, LOWER, UPPER };
enum { Y, P_NEW, STATIONARY };
static Py_ssize_t prob_at[6], piece_at[4], sol_at[3];
#define SLOT(o, at) (*(PyObject **)((char *)(o) + (at)))

/* bregman.interval_project */
static double project(double t, double lo, double hi)
{
    t = lo > t ? lo : t;
    return hi < t ? hi : t;
}

/* ScalarBregman.j_interval */
static void j_interval(double y, double gamma, double shift, double *lo,
                       double *hi)
{
    *lo = gamma == 0.0 ? y : y <= shift ? y - gamma : y + gamma;
    *hi = gamma == 0.0 ? y : y >= shift ? y + gamma : y - gamma;
}

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

/* every item a float, not of a subclass */
static int floats(PyObject **v, int n)
{
    for (int k = 0; k < n; k++)
        if (v[k] == NULL || !PyFloat_CheckExact(v[k]))
            return 0;
    return 1;
}

static PyObject *solve(PyObject *self, PyObject *const *args,
                       Py_ssize_t nargs, PyObject *kwnames)
{
    PyObject *prob = nargs ? args[0] : NULL, *o[6], *s[4];
    PyObject *mode = nargs > 1 ? args[1] : keep_box;
    PyObject *guess = nargs > 2 ? args[2] : Py_None, *clarke;
    if (kwnames != NULL || nargs < 1 || nargs > 4
            || !Py_IS_TYPE(prob, Problem) || !PyUnicode_CheckExact(mode))
        goto in_python;
    int forget = PyUnicode_Compare(mode, forget_box) == 0;
    if (!forget && PyUnicode_Compare(mode, keep_box) != 0)
        goto in_python;
    for (int k = 0; k < 6; k++)
        o[k] = SLOT(prob, prob_at[k]);
    clarke = o[CLARKE];
    if (o[SB] == NULL || !Py_IS_TYPE(o[SB], Piece) || o[DQ] == NULL
            || !floats(o + X, 3) || clarke == NULL
            || !PyTuple_CheckExact(clarke) || PyTuple_GET_SIZE(clarke) != 2
            || !floats(((PyTupleObject *)clarke)->ob_item, 2)
            || !(guess == Py_None || PyFloat_CheckExact(guess)))
        goto in_python;
    for (int k = 0; k < 4; k++)
        s[k] = SLOT(o[SB], piece_at[k]);
    if (!floats(s, 4))
        goto in_python;
    double x = PyFloat_AS_DOUBLE(o[X]), p = PyFloat_AS_DOUBLE(o[P]);
    double tau = PyFloat_AS_DOUBLE(o[TAU]);
    double vlo = PyFloat_AS_DOUBLE(PyTuple_GET_ITEM(clarke, 0));
    double vhi = PyFloat_AS_DOUBLE(PyTuple_GET_ITEM(clarke, 1));
    double gamma = PyFloat_AS_DOUBLE(s[GAMMA]);
    double shift = PyFloat_AS_DOUBLE(s[SHIFT]);
    double lower = PyFloat_AS_DOUBLE(s[LOWER]);
    double upper = PyFloat_AS_DOUBLE(s[UPPER]);
    if (tau == 0.0)                     /* Python raises ZeroDivisionError */
        goto in_python;

    /* _try_stationary */
    double jlo, jhi, lo, hi;
    j_interval(x, gamma, shift, &jlo, &jhi);
    double slo = x == lower ? -INFINITY : jlo;
    double shi = x == upper ? INFINITY : jhi;
    double alo = shi == INFINITY || shi == -INFINITY ? vlo : (p - shi) / tau;
    double ahi = slo == INFINITY || slo == -INFINITY ? vhi : (p - slo) / tau;
    alo = alo > vlo ? alo : vlo;
    ahi = ahi < vhi ? ahi : vhi;
    if (!(alo > ahi)) {
        double v = alo > 0.0 ? alo : 0.0;
        double t = p - tau * (ahi < v ? ahi : v);
        return solution(o[X], forget ? project(t, jlo, jhi)
                        : project(t, slo, shi), Py_True);
    }

    /* _take_guess */
    if (guess == Py_None)
        goto searching;
    double y = PyFloat_AS_DOUBLE(guess);
    if (y == x || !(lower <= y && y <= upper))
        goto searching;
    PyObject *dq = Py_NewRef(o[DQ]);    /* dq may reassign prob.dq */
    PyObject *q = PyObject_CallOneArg(dq, guess), *got;
    Py_DECREF(dq);
    if (q == NULL)
        return NULL;
    if (!PyFloat_CheckExact(q)) {
        PyObject *rest[] = {prob, mode, guess, q};
        got = call(guess_update, rest, 4, NULL);
        Py_DECREF(q);
        if (got != Py_None)
            return got;
        Py_DECREF(got);
        goto searching;
    }
    double t = p - tau * PyFloat_AS_DOUBLE(q);
    Py_DECREF(q);
    j_interval(y, gamma, shift, &jlo, &jhi);
    lo = y == lower ? -INFINITY : jlo;
    hi = y == upper ? INFINITY : jhi;
    double p_new = project(t, lo, hi), g = t - p_new;
    if (!(-TOL <= g && g <= TOL)) {
        PyObject *residual = PyFloat_FromDouble(g);
        if (residual == NULL)
            return NULL;
        PyObject *check[] = {prob, guess, residual};
        got = call(squeezed, check, 3, NULL);
        Py_DECREF(residual);
        int take = got == NULL ? -1 : PyObject_IsTrue(got);
        Py_XDECREF(got);
        if (take < 0)
            return NULL;
        if (!take)
            goto searching;
    }
    return solution(guess, forget ? project(t, jlo, jhi) : p_new, Py_False);

searching: {
        PyObject *rest[] = {prob, mode, nargs > 3 ? args[3] : Py_None};
        return call(search, rest, 3, NULL);
    }
in_python:
    return call(reference, args, nargs, kwnames);
}

/* solvers._problems for the coordinates the compiled inclusion sweep
 * solved: problems(y, quotient, h, w, phi_x, phi_y, x_delta, pieces, p,
 * tau, idx, out) yields each (i, problem, root) when its turn comes, the
 * problem's dq a Quotient, StudentTObjective._quotient at the live y. */
typedef struct {
    PyObject_HEAD
    Py_buffer y, xd, idx, out;          /* out: (3, m) roots, lo, hi */
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

/* StudentTObjective._quotient(y, i, old, new); 0 where Python raises: a
 * log1p argument at or below -1, an unbounded Clarke interval */
static int quotient(Visits *v, Py_ssize_t i, double old, double new,
                    double *q)
{
    const double *y = v->y.buf, xd = ((const double *)v->xd.buf)[i];
    Py_ssize_t r = i / v->w, c = i % v->w;
    Py_ssize_t nb[4] = {i + 1, i - 1, i + v->w, i - v->w};
    int in[4] = {c + 1 < v->w, c > 0, r + 1 < v->h, r > 0};
    double step = new - old, a = fabs(old), delta = 0.0, g = 0.0, d, u, z;
    if (fabs(step) <= 1e-14 * (a > 1.0 ? a : 1.0)) {    /* stationary */
        for (int t = 0; t < 4; t++)     /* _midpoint(*_clarke(y, i)) */
            if (in[t])
                u = y[i] - y[nb[t]], g += v->phi[t / 2] * (2.0 * u
                                                          / (1.0 + u * u));
        double lo = (d = y[i] - xd) > 0 ? g + 1.0 : g - 1.0;
        double hi = d < 0 ? g - 1.0 : g + 1.0;
        *q = 0.5 * (lo + hi);
        return !isinf(lo) && !isinf(hi);
    }
    for (int t = 0; t < 4; t++) {       /* right, left, below, above */
        if (!in[t])
            continue;
        double d_old = old - y[nb[t]], d_new = d_old + step;
        if ((z = step * (d_new + d_old) / (1.0 + d_old * d_old)) <= -1.0)
            return 0;
        delta += v->phi[t / 2] * log1p(z);
    }
    double d_old = old - xd, d_new = new - xd;
    if (d_old >= 0 && d_new >= 0)
        delta += step;
    else if (d_old <= 0 && d_new <= 0)
        delta -= step;
    else
        delta += d_new > 0 ? d_new + d_old : -(d_new + d_old);
    return *q = delta / step, 1;
}

/* dq(new), counted; Python's ctx._quotient(i, old, new) where the
 * compiled quotient does not apply */
static PyObject *quotient_call(PyObject *self, PyObject *const *args,
                               size_t nargsf, PyObject *kwnames)
{
    Quotient *dq = (Quotient *)self;
    PyObject *at, *got;
    double q;
    dq->calls++;
    if (PyVectorcall_NARGS(nargsf) != 1 || kwnames != NULL)
        return PyErr_Format(PyExc_TypeError, "dq takes one argument");
    if (PyFloat_CheckExact(args[0]) && quotient(dq->of, dq->i,
            PyFloat_AS_DOUBLE(dq->old), PyFloat_AS_DOUBLE(args[0]), &q))
        return PyFloat_FromDouble(q);
    if ((at = PyLong_FromSsize_t(dq->i)) == NULL)
        return NULL;
    got = PyObject_Vectorcall(dq->of->python,
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
    .tp_name = "bregsolve._checked.Quotient",
    .tp_basicsize = sizeof(Quotient),
    .tp_dealloc = quotient_free,
    .tp_vectorcall_offset = offsetof(Quotient, call),
    .tp_call = PyVectorcall_Call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_members = quotient_members,
};

/* InclusionProblem(*f), its slots set as its __init__ sets them where its
 * checks pass; else the class's own, which raises as Python does */
static PyObject *problem(PyObject **f)
{
    PyObject *sb = f[SB], *prob, *box[2] = {NULL, NULL};
    if (Py_IS_TYPE(sb, Piece))
        box[0] = SLOT(sb, piece_at[LOWER]), box[1] = SLOT(sb, piece_at[UPPER]);
    double x = PyFloat_AS_DOUBLE(f[X]);
    if (floats(box, 2) && floats(f + TAU, 1) && PyFloat_AS_DOUBLE(f[TAU]) > 0
            && PyFloat_AS_DOUBLE(box[0]) <= x
            && x <= PyFloat_AS_DOUBLE(box[1])) {
        if ((prob = Problem->tp_alloc(Problem, 0)) != NULL)
            for (int k = 0; k < 6; k++)
                SLOT(prob, prob_at[k]) = Py_NewRef(f[k]);
        return prob;
    }
    return PyObject_Vectorcall((PyObject *)Problem, f, 6, NULL);
}

static PyObject *visit(PyObject *self)
{
    Visits *v = (Visits *)self;
    Py_ssize_t k = v->k, m = v->out.shape[1], i;
    const double *out = v->out.buf;
    if (k >= v->idx.shape[0])
        return NULL;
    i = ((const long *)v->idx.buf)[k];
    if (i < 0 || i >= v->y.shape[0] || i >= PyList_GET_SIZE(v->p)
            || i >= PyList_GET_SIZE(v->tau))
        return PyErr_Format(PyExc_IndexError, "no coordinate %zd", i);
    Quotient *dq = PyObject_New(Quotient, &quotient_type);
    PyObject *old = PyFloat_FromDouble(((const double *)v->y.buf)[i]);
    PyObject *lo = PyFloat_FromDouble(out[m + k]), *got = NULL, *prob;
    PyObject *hi = PyFloat_FromDouble(out[2 * m + k]);
    PyObject *at = PyLong_FromSsize_t(i), *root = PyFloat_FromDouble(out[k]);
    PyObject *f[6] = {PyTuple_GET_ITEM(v->pieces, i), old,
                      Py_NewRef(PyList_GET_ITEM(v->p, i)),
                      Py_NewRef(PyList_GET_ITEM(v->tau, i)), (PyObject *)dq,
                      lo && hi ? PyTuple_Pack(2, lo, hi) : NULL};
    v->k++;
    if (dq != NULL)
        dq->call = quotient_call, dq->of = (Visits *)Py_NewRef(self),
        dq->old = Py_XNewRef(old), dq->i = i, dq->calls = 0;
    if (dq && old && f[CLARKE] && at && root && (prob = problem(f)) != NULL)
        got = PyTuple_Pack(3, at, prob, root), Py_DECREF(prob);
    Py_XDECREF(dq), Py_XDECREF(old), Py_XDECREF(lo), Py_XDECREF(hi);
    Py_XDECREF(f[CLARKE]), Py_XDECREF(at), Py_XDECREF(root);
    Py_DECREF(f[P]), Py_DECREF(f[TAU]);
    return got;
}

static void visits_free(PyObject *self)
{
    Visits *v = (Visits *)self;
    PyBuffer_Release(&v->y), PyBuffer_Release(&v->xd);
    PyBuffer_Release(&v->idx), PyBuffer_Release(&v->out);
    Py_XDECREF(v->python), Py_XDECREF(v->pieces);
    Py_XDECREF(v->p), Py_XDECREF(v->tau);
    PyObject_Free(self);
}

static PyTypeObject visits_type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "bregsolve._checked.Visits",
    .tp_basicsize = sizeof(Visits),
    .tp_dealloc = visits_free,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_iter = PyObject_SelfIter,
    .tp_iternext = visit,
};

/* PyArg_Parse converters to C-contiguous views: of doubles, of longs,
 * and of a (3, m) table of doubles */
static int view(PyObject *o, Py_buffer *b, int ndim, const char *fmt)
{
    if (PyObject_GetBuffer(o, b, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return 0;
    if (b->ndim == ndim && strcmp(b->format, fmt) == 0
            && (ndim == 1 || b->shape[0] == 3))
        return 1;
    PyErr_Format(PyExc_TypeError, "expected a %d-d array of '%s'", ndim, fmt);
    return 0;
}
static int doubles(PyObject *o, void *b) { return view(o, b, 1, "d"); }
static int longs(PyObject *o, void *b) { return view(o, b, 1, "l"); }
static int table(PyObject *o, void *b) { return view(o, b, 2, "d"); }

static PyObject *problems(PyObject *self, PyObject *args)
{
    Visits *v = PyObject_New(Visits, &visits_type);
    if (v == NULL)
        return NULL;
    memset(&v->y, 0, sizeof *v - offsetof(Visits, y));
    if (PyArg_ParseTuple(args, "O&OnnddO&O!O!O!O&O&", doubles, &v->y,
                         &v->python, &v->h, &v->w, v->phi, v->phi + 1,
                         doubles, &v->xd, &PyTuple_Type, &v->pieces,
                         &PyList_Type, &v->p, &PyList_Type, &v->tau, longs,
                         &v->idx, table, &v->out)) {
        Py_INCREF(v->python), Py_INCREF(v->pieces);
        Py_INCREF(v->p), Py_INCREF(v->tau);
        if (v->h > 0 && v->w > 0 && v->h * v->w == v->y.shape[0]
                && v->xd.shape[0] == v->y.shape[0]
                && PyTuple_GET_SIZE(v->pieces) == v->y.shape[0]
                && v->out.shape[1] >= v->idx.shape[0])
            return (PyObject *)v;
        PyErr_SetString(PyExc_ValueError, "the arrays do not fit the image");
    } else
        v->python = v->pieces = v->p = v->tau = NULL;
    Py_DECREF(v);
    return NULL;
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
    {"solve_inclusion", (PyCFunction)(void (*)(void))solve,
     METH_FASTCALL | METH_KEYWORDS,
     "solve_inclusion(prob, mode='keep_box', guess=None, delta0=None)\n--\n\n"
     "inclusion.solve_inclusion with its stationary test and guess check "
     "compiled."},
    {"problems", problems, METH_VARARGS,
     "problems(y, quotient, h, w, phi_x, phi_y, x_delta, pieces, p, tau, "
     "idx, out)\n--\n\nsolvers._problems with the kernel's out, in C."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_checked", NULL,
                                    -1, methods};

PyMODINIT_FUNC PyInit__checked(void)
{
    if (inclusion == NULL) {
        PyObject **names[] = {&keep_box, &forget_box, &reference, &search,
                              &squeezed, &guess_update};
        const char *text[] = {"keep_box", "forget_box", "solve_inclusion",
                              "_search", "_squeezed", "_guess_update"};
        int ok = (inclusion = PyImport_ImportModule("bregsolve.inclusion"))
            != NULL;
        for (int k = 0; ok && k < 6; k++)
            ok = (*names[k] = PyUnicode_InternFromString(text[k])) != NULL;
        if (!ok || !(Problem = type_of("InclusionProblem"))
                || !(Piece = type_of("ScalarBregman"))
                || !(Solution = type_of("InclusionSolution"))
                || offsets(Problem, prob_names, 6, prob_at)
                || offsets(Piece, piece_names, 4, piece_at)
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
