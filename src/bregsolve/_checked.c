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
                || offsets(Solution, sol_names, 3, sol_at)) {
            Py_CLEAR(inclusion);
            return NULL;
        }
    }
    return PyModule_Create(&module);
}
