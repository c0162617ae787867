"""The standard normal cdf `ndtr` and its inverse `ndtri`, bit for bit.

Numpy ports of the Cephes library (S. L. Moshier, *Methods and Programs
for Mathematical Functions*, 1989), which scipy.special computes: W. J.
Cody's rational approximations (Math. Comp. 1969) in Cephes' tables and
operation order, so each result has scipy's bytes without importing scipy.
`exp` and `log` must be the platform libm's, as in the compiled Cephes, so
they run element by element through `math` on the branch that needs them
(numpy's SIMD `np.exp` rounds some results differently).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ndtr", "ndtri"]

# ndtr.c: erfc on [1, 8) (P/Q) and from 8 up (R/S); erf below 1 (T/U)
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
# ndtri.c: the centre |y - 1/2| <= 1/2 - exp(-2) (P0/Q0); the tails, with
# x = sqrt(-2 log y) below 8 (P1/Q1) and from 8 up (P2/Q2)
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)
_MAXLOG = 7.09782712893383996843e2
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_SQRT_2PI = 2.50662827463100050242e0
_SQRT1_2 = 0.70710678118654752440


def _polevl(x, coef):
    """coef[0] x^n + ... + coef[n] in Horner order (Cephes' p1evl is the
    case coef[0] = 1, since 1 * x is x)."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _libm(f, x):
    """f of math (the platform libm) on each element of x."""
    return np.fromiter(map(f, x.tolist()), dtype=float, count=x.size)


def _erf(x):
    """Cephes erf for |x| < 1."""
    z = x * x
    return x * _polevl(z, _T) / _polevl(z, _U)


def _erfc(x):
    """Cephes erfc for x >= 1/sqrt(2); 0 where exp(-x^2) underflows."""
    y = np.zeros_like(x)
    near = x < 1.0
    y[near] = 1.0 - _erf(x[near])
    far = ~near & (x * x <= _MAXLOG)
    xf = x[far]
    e = _libm(math.exp, -xf * xf)
    y[far] = np.where(xf < 8.0, e * _polevl(xf, _P) / _polevl(xf, _Q),
                      e * _polevl(xf, _R) / _polevl(xf, _S))
    return y


def ndtr(a):
    """The standard normal cdf at a, as scipy.special.ndtr computes it."""
    a = np.asarray(a, dtype=float)
    y = np.full_like(a, np.nan)
    with np.errstate(all="ignore"):
        x = a * _SQRT1_2
        z = np.abs(x)
        mid = z < _SQRT1_2
        y[mid] = 0.5 + 0.5 * _erf(x[mid])
        tail = z >= _SQRT1_2
        y[tail] = 0.5 * _erfc(z[tail])
        up = tail & (x > 0)
        y[up] = 1.0 - y[up]
    return y[()]


def ndtri(y0):
    """The standard normal quantile at y0, as scipy.special.ndtri computes
    it: -inf at 0, inf at 1, nan outside [0, 1]."""
    y0 = np.asarray(y0, dtype=float)
    x = np.full_like(y0, np.nan)
    with np.errstate(all="ignore"):
        x[y0 == 0.0] = -np.inf
        x[y0 == 1.0] = np.inf
        upper = y0 > 1.0 - _EXP_M2
        y = np.where(upper, 1.0 - y0, y0)
        inside = ~((y0 <= 0.0) | (y0 >= 1.0))  # nan takes the tail, as in Cephes
        mid = inside & (y > _EXP_M2)
        ym = y[mid] - 0.5
        y2 = ym * ym
        x[mid] = (ym + ym * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))) * _SQRT_2PI
        tail = inside & ~mid
        xt = np.sqrt(-2.0 * _libm(math.log, y[tail]))
        x0 = xt - _libm(math.log, xt) / xt
        zt = 1.0 / xt
        x1 = np.where(xt < 8.0, zt * _polevl(zt, _P1) / _polevl(zt, _Q1),
                      zt * _polevl(zt, _P2) / _polevl(zt, _Q2))
        x[tail] = np.where(upper[tail], x0 - x1, -(x0 - x1))
    return x[()]
