/* Compiled kernels.
 *
 * Mirrors ``stirlingperms._pure`` function for function; see that module
 * for the semantics.  Words are packed ``bytes`` (letter k = byte value k,
 * sentinel 0), multiplicity vectors are sequences of positive ints.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

enum { FIXED, FREE_DESCENT_PLATEAU, SINGLE_DOUBLE_DESCENT, DOUBLE_ASCENT };

#define MAX_LETTERS 255

/* setup.py defines this as the sha256 of this file, so a test can tell
 * an extension built from another revision of it. */
#ifndef SOURCE_SHA256
#define SOURCE_SHA256 ""
#endif

/* Validate ``parts`` into ``buf`` and its sum into ``*total``; returns
 * the number of letters, or -1 with an exception set. */
static Py_ssize_t
fill_parts(PyObject *parts, Py_ssize_t *buf, Py_ssize_t *total)
{
    PyObject *seq = PySequence_Fast(parts, "parts must be a sequence");
    Py_ssize_t n, k;
    if (seq == NULL)
        return -1;
    n = PySequence_Fast_GET_SIZE(seq);
    if (n > MAX_LETTERS) {
        PyErr_SetString(PyExc_ValueError, "at most 255 distinct letters are supported");
        n = -1;
    }
    for (k = 0, *total = 0; k < n; k++) {
        buf[k] = PyLong_AsSsize_t(PySequence_Fast_GET_ITEM(seq, k));
        if (buf[k] == -1 && PyErr_Occurred())
            n = -1;
        else if (buf[k] < 1)
            n = -1, PyErr_SetString(PyExc_ValueError, "multiplicities must be positive");
        else if (buf[k] > PY_SSIZE_T_MAX - *total)
            n = -1, PyErr_SetString(PyExc_OverflowError, "total multiplicity is too large");
        else
            *total += buf[k];
    }
    Py_DECREF(seq);
    return n;
}

/* The shared check of the two-argument functions. */
static int
two_args(const char *name, Py_ssize_t nargs)
{
    if (nargs == 2)
        return 1;
    PyErr_Format(PyExc_TypeError, "%s() takes exactly 2 arguments (%zd given)", name, nargs);
    return 0;
}

static PyObject *
words_of(PyObject *Py_UNUSED(self), PyObject *arg)
{
    Py_ssize_t parts[MAX_LETTERS], total;
    Py_ssize_t n = fill_parts(arg, parts, &total), k, i, g;
    Py_ssize_t count = 1, len = 0, ncount, nlen, idx;
    unsigned char *cur, *nxt = NULL, *dst;
    PyObject *out = NULL, *w;

    if (n < 0)
        return NULL;
    if (n == 0)
        return Py_BuildValue("[y#]", "", (Py_ssize_t)0);
    if ((cur = PyMem_Malloc(1)) == NULL) /* the empty word, level 0 */
        return PyErr_NoMemory();
    /* Level k inserts the block (k+1)^parts[k] into every gap of every
     * level-(k-1) word.  Inner levels live in flat buffers of
     * ``count * len`` bytes; the last level is written straight into
     * bytes objects.  Gaps run from right to left, so each word's children
     * come out increasing and the final sort sees ascending runs. */
    for (k = 0; k < n; k++, count = ncount, len = nlen) {
        int last = k == n - 1;
        nlen = len + parts[k];
        if (count > PY_SSIZE_T_MAX / (len + 1) / nlen)
            goto fail;
        ncount = count * (len + 1);
        if (last ? (out = PyList_New(ncount)) == NULL
                 : (nxt = PyMem_Malloc((size_t)(ncount * nlen))) == NULL)
            goto fail;
        for (i = 0, idx = 0; i < count; i++) {
            const unsigned char *src = cur + i * len;
            for (g = len; g >= 0; g--, idx++) {
                if (last) {
                    if ((w = PyBytes_FromStringAndSize(NULL, nlen)) == NULL)
                        goto fail;
                    PyList_SET_ITEM(out, idx, w);
                    dst = (unsigned char *)PyBytes_AS_STRING(w);
                }
                else
                    dst = nxt + idx * nlen;
                memcpy(dst, src, g);
                memset(dst + g, (int)(k + 1), parts[k]);
                memcpy(dst + g + parts[k], src + g, len - g);
            }
        }
        PyMem_Free(cur);
        cur = nxt;
        nxt = NULL;
    }
    if (PyList_Sort(out) == 0)
        return out;
fail:
    if (!PyErr_Occurred())
        PyErr_NoMemory();
    PyMem_Free(cur);
    PyMem_Free(nxt);
    Py_XDECREF(out);
    return NULL;
}

static PyObject *
enum_counts(PyObject *Py_UNUSED(self), PyObject *arg)
{
    PyObject *ws = words_of(NULL, arg);
    Py_ssize_t i, total, distinct = 0;
    if (ws == NULL)
        return NULL;
    total = PyList_GET_SIZE(ws);
    /* sorted words of equal length, so duplicates are adjacent */
    for (i = 0; i < total; i++)
        distinct += i == 0 || memcmp(PyBytes_AS_STRING(PyList_GET_ITEM(ws, i - 1)),
                                     PyBytes_AS_STRING(PyList_GET_ITEM(ws, i)),
                                     PyBytes_GET_SIZE(PyList_GET_ITEM(ws, i))) != 0;
    Py_DECREF(ws);
    return Py_BuildValue("(nn)", total, distinct);
}

/* Stack of letters with more occurrences still to come; the stack is
 * strictly increasing, so any letter smaller than the top sits between two
 * occurrences of the top letter.  ``w`` must have content ``mult``, so a
 * letter's count is only read after its first occurrence has set it. */
static int
stirling_property(const unsigned char *w, Py_ssize_t m, const Py_ssize_t *mult)
{
    Py_ssize_t seen[MAX_LETTERS + 1];
    unsigned char stack[MAX_LETTERS + 1];
    int top = -1;
    Py_ssize_t i;
    for (i = 0; i < m; i++) {
        unsigned char c = w[i];
        if (top >= 0 && stack[top] == c) {
            if (++seen[c] == mult[c])
                top--;
        }
        else {
            if (top >= 0 && stack[top] > c)
                return 0;
            seen[c] = 1;
            if (mult[c] > 1)
                stack[++top] = c;
        }
    }
    return 1;
}

static PyObject *
is_stirling(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Py_ssize_t parts[MAX_LETTERS], mult[MAX_LETTERS + 1] = {0};
    Py_ssize_t n, m, k, total;
    const unsigned char *w;
    PyObject *wb;
    int ok = 0;

    if (!two_args("is_stirling", nargs) || (n = fill_parts(args[1], parts, &total)) < 0
        || (wb = PyBytes_FromObject(args[0])) == NULL)
        return NULL;
    w = (const unsigned char *)PyBytes_AS_STRING(wb);
    m = PyBytes_GET_SIZE(wb);
    if (m != total)
        goto done;
    for (k = 0; k < m; k++) {
        if (w[k] < 1 || w[k] > n)
            goto done;
        mult[w[k]]++;
    }
    for (k = 1; k <= n; k++)
        if (mult[k] != parts[k - 1])
            goto done;
    ok = stirling_property(w, m, mult);
done:
    Py_DECREF(wb);
    return PyBool_FromLong(ok);
}

static int
next_permutation(unsigned char *a, Py_ssize_t m)
{
    Py_ssize_t i = m - 2, j, lo, hi;
    unsigned char t;
    while (i >= 0 && a[i] >= a[i + 1])
        i--;
    if (i < 0)
        return 0;
    j = m - 1;
    while (a[j] <= a[i])
        j--;
    t = a[i], a[i] = a[j], a[j] = t;
    for (lo = i + 1, hi = m - 1; lo < hi; lo++, hi--)
        t = a[lo], a[lo] = a[hi], a[hi] = t;
    return 1;
}

static PyObject *
brute_count(PyObject *Py_UNUSED(self), PyObject *arg)
{
    Py_ssize_t parts[MAX_LETTERS], mult[MAX_LETTERS + 1] = {0};
    Py_ssize_t m, n = fill_parts(arg, parts, &m), k, i;
    unsigned long long count = 0;
    unsigned char *arr;

    if (n < 0)
        return NULL;
    if (m == 0)
        return PyLong_FromLong(1);
    if ((arr = PyMem_Malloc((size_t)m)) == NULL)
        return PyErr_NoMemory();
    for (k = 0, i = 0; k < n; i += parts[k], k++) {
        mult[k + 1] = parts[k];
        memset(arr + i, (int)(k + 1), parts[k]);
    }
    Py_BEGIN_ALLOW_THREADS
    do
        count += stirling_property(arr, m, mult);
    while (next_permutation(arr, m));
    Py_END_ALLOW_THREADS
    PyMem_Free(arr);
    return PyLong_FromUnsignedLongLong(count);
}

static PyObject *
profile12(PyObject *Py_UNUSED(self), PyObject *arg)
{
    Py_ssize_t mult[256] = {0}, first[256] = {0}, m, i;
    Py_ssize_t asc = 0, plat = 0, des = 0, sdes = 0, mdes = 0, fplat = 0, uplat = 0;
    Py_ssize_t dasc = 0, sddes = 0, fdesp = 0, ascpp = 0, mdup = 0;
    const unsigned char *w;
    PyObject *wb = PyBytes_FromObject(arg);

    if (wb == NULL)
        return NULL;
    w = (const unsigned char *)PyBytes_AS_STRING(wb);
    m = PyBytes_GET_SIZE(wb);
    if (m == 0) {
        /* the empty word is the grammar base case and counts one ascent */
        Py_DECREF(wb);
        return Py_BuildValue("(iiiiiiiiiiii)", 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0);
    }
    for (i = 0; i < m; i++) {
        mult[w[i]]++;
        if (first[w[i]] == 0)
            first[w[i]] = i + 1;
    }
    for (i = 0; i <= m; i++) {
        unsigned char a = i >= 1 ? w[i - 1] : 0, b = i < m ? w[i] : 0;
        if (a < b)
            asc++;
        else if (a == b)
            plat++;
        else
            des++;
    }
    for (i = 1; i <= m; i++) {
        unsigned char p = i >= 2 ? w[i - 2] : 0, c = w[i - 1], nx = i < m ? w[i] : 0;
        int multiple = mult[c] > 1, leftmost = first[c] == i;
        if (c > nx) {
            if (multiple)
                mdes++, mdup++;
            else
                sdes++;
        }
        else if (c == nx) {
            if (leftmost)
                fplat++;
            if (!(p > c && leftmost) && !(p < c))
                uplat++, mdup++;
        }
        if (p < c && c < nx)
            dasc++;
        if (p > c && c > nx && !multiple)
            sddes++;
        if (p > c && c == nx && leftmost)
            fdesp++;
        if (p < c && c >= nx)
            ascpp++;
    }
    Py_DECREF(wb);
    return Py_BuildValue("(nnnnnnnnnnnn)", asc, plat, des, sdes, mdes, fplat,
                         uplat, dasc, sddes, fdesp, ascpp, mdup);
}

/* The value class of letter ``x`` from the window around its leftmost
 * occurrence ``pos`` (0-based) in the word ``w`` of length ``m``. */
static int
letter_class(const unsigned char *w, Py_ssize_t m, Py_ssize_t pos, long x)
{
    unsigned char p = pos >= 1 ? w[pos - 1] : 0, nx = pos + 1 < m ? w[pos + 1] : 0;
    Py_ssize_t i, cnt = 0;
    if (p > x && x == nx)
        return FREE_DESCENT_PLATEAU;
    if (p > x && x > nx) {
        for (i = 0; i < m; i++)
            cnt += w[i] == x;
        if (cnt == 1)
            return SINGLE_DOUBLE_DESCENT;
    }
    if (p < x && x < nx)
        return DOUBLE_ASCENT;
    return FIXED;
}

/* Write the hop of letter ``x`` of class ``cls`` (not FIXED), whose
 * leftmost occurrence in ``w`` is ``pos``, into the ``m`` bytes at
 * ``dst``. */
static void
hop(const unsigned char *w, Py_ssize_t m, Py_ssize_t pos, long x, int cls, unsigned char *dst)
{
    Py_ssize_t k, l1 = pos + 1; /* 1-based leftmost occurrence */
    if (cls == FREE_DESCENT_PLATEAU || cls == SINGLE_DOUBLE_DESCENT) {
        /* hop left: land after the nearest smaller letter (the left
         * neighbour is larger, so k starts at 0 or beyond) */
        for (k = l1 - 2; k > 0 && w[k - 1] >= x; k--)
            ;
        memcpy(dst, w, k);
        dst[k] = (unsigned char)x;
        memcpy(dst + k + 1, w + k, l1 - 1 - k);
        memcpy(dst + l1, w + l1, m - l1);
    }
    else {
        /* hop right: land before the nearest letter <= x */
        for (k = l1 + 2; k <= m && w[k - 1] > x; k++)
            ;
        memcpy(dst, w, l1 - 1);
        memcpy(dst + l1 - 1, w + l1, k - 1 - l1);
        dst[k - 2] = (unsigned char)x;
        memcpy(dst + k - 1, w + k - 1, m - k + 1);
    }
}

/* Shared by classify_letter and phi_letter: parse ``(word, x)`` into the
 * word as bytes in ``*wb``, the letter in ``*x`` and its leftmost
 * occurrence (0-based) in ``*pos``, and return its value class; or -1
 * with an exception set (ValueError when the letter does not occur). */
static int
classify(const char *name, PyObject *const *args, Py_ssize_t nargs,
         PyObject **wb, long *x, Py_ssize_t *pos)
{
    const unsigned char *w;
    Py_ssize_t i, m;
    int overflow;

    if (!two_args(name, nargs))
        return -1;
    *x = PyLong_AsLongAndOverflow(args[1], &overflow);
    if ((*x == -1 && PyErr_Occurred()) || (*wb = PyBytes_FromObject(args[0])) == NULL)
        return -1;
    w = (const unsigned char *)PyBytes_AS_STRING(*wb);
    m = PyBytes_GET_SIZE(*wb);
    for (i = 0; i < m && !overflow && w[i] != *x; i++)
        ;
    if (i == m || overflow) {
        Py_CLEAR(*wb);
        PyErr_Format(PyExc_ValueError, "letter %R does not occur in the word", args[1]);
        return -1;
    }
    *pos = i;
    return letter_class(w, m, i, *x);
}

static PyObject *
classify_letter(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *wb;
    long x;
    Py_ssize_t pos;
    int cls = classify("classify_letter", args, nargs, &wb, &x, &pos);
    if (cls < 0)
        return NULL;
    Py_DECREF(wb);
    return PyLong_FromLong(cls);
}

static PyObject *
phi_letter(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *wb, *nw;
    long x;
    Py_ssize_t pos;
    int cls = classify("phi_letter", args, nargs, &wb, &x, &pos);

    if (cls < 0)
        return NULL;
    if (cls == FIXED)
        return wb;
    nw = PyBytes_FromStringAndSize(NULL, PyBytes_GET_SIZE(wb));
    if (nw != NULL)
        hop((const unsigned char *)PyBytes_AS_STRING(wb), PyBytes_GET_SIZE(wb), pos, x, cls,
            (unsigned char *)PyBytes_AS_STRING(nw));
    Py_DECREF(wb);
    return nw;
}

/* Index of the ``m``-byte word ``w`` in the sorted list ``words`` of
 * ``m``-byte words, or -1. */
static Py_ssize_t
find_word(PyObject *words, const unsigned char *w, Py_ssize_t m)
{
    Py_ssize_t lo = 0, hi = PyList_GET_SIZE(words), mid;
    int c;
    while (lo < hi) {
        mid = lo + (hi - lo) / 2;
        c = memcmp(PyBytes_AS_STRING(PyList_GET_ITEM(words, mid)), w, (size_t)m);
        if (c == 0)
            return mid;
        if (c < 0)
            lo = mid + 1;
        else
            hi = mid;
    }
    return -1;
}

static PyObject *
hop_tables(PyObject *Py_UNUSED(self), PyObject *arg)
{
    PyObject *words = words_of(NULL, arg), *phis = NULL, *classes = NULL, *px, *cx, *v;
    Py_ssize_t count, m, n = 0, i, pos, j;
    const unsigned char *w;
    unsigned char *img = NULL, *cls_out;
    long x;
    int cls;

    if (words == NULL)
        return NULL;
    count = PyList_GET_SIZE(words);
    w = (const unsigned char *)PyBytes_AS_STRING(PyList_GET_ITEM(words, 0));
    m = PyBytes_GET_SIZE(PyList_GET_ITEM(words, 0));
    for (i = 0; i < m; i++) /* every letter occurs, so n is the largest */
        n = w[i] > n ? w[i] : n;
    if ((img = PyMem_Malloc((size_t)m + 1)) == NULL || (phis = PyList_New(n)) == NULL
        || (classes = PyList_New(n)) == NULL)
        goto fail;
    for (x = 1; x <= n; x++) {
        if ((px = PyList_New(count)) == NULL)
            goto fail;
        PyList_SET_ITEM(phis, x - 1, px);
        if ((cx = PyBytes_FromStringAndSize(NULL, count)) == NULL)
            goto fail;
        PyList_SET_ITEM(classes, x - 1, cx);
        cls_out = (unsigned char *)PyBytes_AS_STRING(cx);
        for (i = 0; i < count; i++) {
            w = (const unsigned char *)PyBytes_AS_STRING(PyList_GET_ITEM(words, i));
            pos = (const unsigned char *)memchr(w, (int)x, (size_t)m) - w;
            cls_out[i] = (unsigned char)(cls = letter_class(w, m, pos, x));
            j = i;
            if (cls != FIXED) {
                hop(w, m, pos, x, cls, img);
                j = find_word(words, img, m);
            }
            if ((v = PyLong_FromSsize_t(j)) == NULL)
                goto fail;
            PyList_SET_ITEM(px, i, v);
        }
    }
    PyMem_Free(img);
    return Py_BuildValue("(NNN)", words, phis, classes);
fail:
    if (!PyErr_Occurred())
        PyErr_NoMemory();
    PyMem_Free(img);
    Py_DECREF(words);
    Py_XDECREF(phis);
    Py_XDECREF(classes);
    return NULL;
}

static PyMethodDef core_methods[] = {
    {"words_of", words_of, METH_O,
     "words_of(parts)\n--\n\n"
     "Sorted list of all generalized Stirling words with content ``parts``."},
    {"enum_counts", enum_counts, METH_O,
     "enum_counts(parts)\n--\n\n"
     "``(total, distinct)`` sizes of the insertion-construction output."},
    {"is_stirling", (PyCFunction)(void (*)(void))is_stirling, METH_FASTCALL,
     "is_stirling(word, parts)\n--\n\n"
     "Content check against ``parts`` plus the nesting property."},
    {"brute_count", brute_count, METH_O,
     "brute_count(parts)\n--\n\n"
     "Count Stirling words by filtering every multiset permutation."},
    {"profile12", profile12, METH_O,
     "profile12(word)\n--\n\n"
     "The twelve comparison statistics; see the pure backend docstring."},
    {"classify_letter", (PyCFunction)(void (*)(void))classify_letter, METH_FASTCALL,
     "classify_letter(word, x)\n--\n\n"
     "Value class of letter ``x`` (0 fixed, 1 free descent-plateau value,\n"
     "2 single double-descent value, 3 double-ascent value)."},
    {"phi_letter", (PyCFunction)(void (*)(void))phi_letter, METH_FASTCALL,
     "phi_letter(word, x)\n--\n\n"
     "One hop of the letter action; see the pure backend docstring."},
    {"hop_tables", hop_tables, METH_O,
     "hop_tables(parts)\n--\n\n"
     "``(words, phis, classes)``: the sorted words of ``parts`` and, per\n"
     "letter, the index of each word's hop image (-1 when it is not a word)\n"
     "and the bytes of each word's value class."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef core_module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "stirlingperms._core",
    .m_doc = "Compiled kernels; mirrors ``stirlingperms._pure`` function for function.",
    .m_size = -1,
    .m_methods = core_methods,
};

PyMODINIT_FUNC
PyInit__core(void)
{
    PyObject *mod = PyModule_Create(&core_module);
    if (mod == NULL
        || PyModule_AddStringConstant(mod, "BACKEND_NAME", "c") < 0
        || PyModule_AddStringConstant(mod, "SOURCE_SHA256", SOURCE_SHA256) < 0
        || PyModule_AddIntConstant(mod, "FIXED", FIXED) < 0
        || PyModule_AddIntConstant(mod, "FREE_DESCENT_PLATEAU", FREE_DESCENT_PLATEAU) < 0
        || PyModule_AddIntConstant(mod, "SINGLE_DOUBLE_DESCENT", SINGLE_DOUBLE_DESCENT) < 0
        || PyModule_AddIntConstant(mod, "DOUBLE_ASCENT", DOUBLE_ASCENT) < 0) {
        Py_XDECREF(mod);
        return NULL;
    }
    return mod;
}
