/* solvers._quadratic_pass with the rules bsor (0: c = omega, thr, tau,
 * gamma; aux = rsub) and blcd (1: c = alpha, gamma; aux = p), which sor and
 * gauss_seidel run at gamma = 0, over the symmetric C-ordered n x n A and
 * r = A y - b, doing each NumPy operation in its order, so that the results
 * are bitwise the same. */

static double shrink(double x, double lam)
{
    return x > lam ? x - lam : x < -lam ? x + lam : 0.0;
}

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
