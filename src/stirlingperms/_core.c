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

/* The number of words of the ``n`` parts ``parts`` of sum ``total``,
 * prod_k (1 + parts[0] + ... + parts[k-1]); or -1 with OverflowError set
 * when two buffers of that many rows of ``total`` bytes would not fit in
 * PY_SSIZE_T_MAX. */
static Py_ssize_t
word_count(const Py_ssize_t *parts, Py_ssize_t n, Py_ssize_t total)
{
    Py_ssize_t rows = 1, m = 0, k;
    for (k = 0; k < n && rows <= PY_SSIZE_T_MAX / (m + 1); m += parts[k], k++)
        rows *= m + 1;
    if (k < n || (total > 0 && rows > PY_SSIZE_T_MAX / 2 / total)) {
        PyErr_SetString(PyExc_OverflowError, "the word set is too large to enumerate");
        return -1;
    }
    return rows;
}

/* The sorted word set of ``parts`` as one flat buffer of ``*count``
 * rows of ``*len`` bytes each (release it with PyMem_Free), with the
 * number of letters in ``*n``; or NULL with an exception set. */
static unsigned char *
sorted_words(PyObject *arg, Py_ssize_t *n, Py_ssize_t *count, Py_ssize_t *len)
{
    Py_ssize_t parts[MAX_LETTERS], *start;
    Py_ssize_t total, rows, m, k, i, j, g, lo;
    unsigned char *cur, *nxt, *dst;

    /* Two buffers of the last level's size serve every level, as source
     * and destination in turn: the last level has word_count rows of
     * ``total`` bytes, and every earlier level is smaller.  ``start``
     * holds one row index per prefix length 0..total. */
    if ((*n = fill_parts(arg, parts, &total)) < 0 || (rows = word_count(parts, *n, total)) < 0)
        return NULL;
    cur = PyMem_Malloc((size_t)(rows * total) + 1);
    nxt = PyMem_Malloc((size_t)(rows * total) + 1);
    start = PyMem_Malloc((size_t)(total + 1) * sizeof *start);
    if (cur == NULL || nxt == NULL || start == NULL) {
        PyMem_Free(cur);
        PyMem_Free(nxt);
        PyMem_Free(start);
        PyErr_NoMemory();
        return NULL;
    }
    /* Level k inserts the block (k+1)^parts[k] into every gap of every
     * level-(k-1) word; level 0 is the empty word.  The block's letter
     * exceeds every letter placed, so w[:g] + block + w[g:] sorts after
     * every insertion deeper into a word that shares w[:g], and two
     * insertions at one gap keep the order of their source rows.  So a
     * sorted level is written sorted by one walk over its rows: start[g]
     * is the first row of the open prefix of length g, and once row i
     * leaves that prefix (row i+1 shares only ``lo`` letters with it),
     * every gap past ``lo``, deepest first, takes the block in each of
     * the rows start[g]..i. */
    for (k = 0, rows = 1, m = 0; k < *n; k++) {
        Py_ssize_t b = parts[k], nm = m + b;
        memset(start, 0, (size_t)(m + 1) * sizeof *start);
        for (i = 0, dst = nxt; i < rows; i++) {
            const unsigned char *src = cur + i * m;
            lo = -1;
            if (i + 1 < rows)
                for (lo = 0; lo < m && src[lo] == src[m + lo]; lo++)
                    ;
            for (g = m; g > lo; g--)
                for (j = start[g]; j <= i; j++, dst += nm) {
                    const unsigned char *row = cur + j * m;
                    memcpy(dst, row, g);
                    memset(dst + g, (int)(k + 1), b);
                    memcpy(dst + g + b, row + g, m - g);
                }
            for (g = lo + 1; g <= m; g++)
                start[g] = i + 1;
        }
        dst = cur, cur = nxt, nxt = dst;
        rows *= m + 1;
        m = nm;
    }
    PyMem_Free(nxt);
    PyMem_Free(start);
    *count = rows;
    *len = m;
    return cur;
}

/* The ``count`` rows of ``len`` bytes at ``buf`` as a list of bytes. */
static PyObject *
rows_list(const unsigned char *buf, Py_ssize_t count, Py_ssize_t len)
{
    PyObject *out = PyList_New(count), *w;
    Py_ssize_t i;
    for (i = 0; out != NULL && i < count; i++) {
        if ((w = PyBytes_FromStringAndSize((const char *)buf + i * len, len)) == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, i, w);
    }
    return out;
}

static PyObject *
words_of(PyObject *Py_UNUSED(self), PyObject *arg)
{
    Py_ssize_t n, count, len;
    unsigned char *buf = sorted_words(arg, &n, &count, &len);
    PyObject *out;
    if (buf == NULL)
        return NULL;
    out = rows_list(buf, count, len);
    PyMem_Free(buf);
    return out;
}

static PyObject *
enum_counts(PyObject *Py_UNUSED(self), PyObject *arg)
{
    Py_ssize_t n, count, len, i, distinct = 0;
    unsigned char *buf = sorted_words(arg, &n, &count, &len);
    if (buf == NULL)
        return NULL;
    /* A row counts as distinct only when it is strictly greater than the
     * row before: sorted_words emits its order rather than sorting, so a
     * duplicated or mis-ordered row makes distinct < count. */
    for (i = 0; i < count; i++)
        distinct += i == 0 || memcmp(buf + (i - 1) * len, buf + i * len, (size_t)len) < 0;
    PyMem_Free(buf);
    return Py_BuildValue("(nn)", count, distinct);
}

/* The first index at which the ``m``-byte word ``w`` fails the nesting
 * property, or -1 when it passes.  Stack of letters with more occurrences
 * still to come; the stack is strictly increasing, so any letter smaller
 * than the top sits between two occurrences of the top letter.  The
 * decision at index ``i`` reads only ``w[0..i]``.  ``w`` must have content
 * ``mult``, so a letter's count is only read after its first occurrence
 * has set it. */
static Py_ssize_t
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
                return i;
            seen[c] = 1;
            if (mult[c] > 1)
                stack[++top] = c;
        }
    }
    return -1;
}

/* Whether the ``m``-byte word ``w`` holds exactly ``mult[c]`` copies of
 * each letter ``c`` in 1..n and no other letter. */
static int
has_content(const unsigned char *w, Py_ssize_t m, Py_ssize_t n, const Py_ssize_t *mult)
{
    Py_ssize_t count[MAX_LETTERS + 1], k;
    for (k = 1; k <= n; k++)
        count[k] = 0;
    for (k = 0; k < m; k++) {
        if (w[k] < 1 || w[k] > n)
            return 0;
        count[w[k]]++;
    }
    for (k = 1; k <= n; k++)
        if (count[k] != mult[k])
            return 0;
    return 1;
}

static PyObject *
is_stirling(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Py_ssize_t parts[MAX_LETTERS], mult[MAX_LETTERS + 1] = {0};
    Py_ssize_t n, m, k, total;
    const unsigned char *w;
    PyObject *wb;
    int ok;

    if (!two_args("is_stirling", nargs) || (n = fill_parts(args[1], parts, &total)) < 0
        || (wb = PyBytes_FromObject(args[0])) == NULL)
        return NULL;
    w = (const unsigned char *)PyBytes_AS_STRING(wb);
    m = PyBytes_GET_SIZE(wb);
    for (k = 0; k < n; k++)
        mult[k + 1] = parts[k];
    ok = m == total && has_content(w, m, n, mult) && stirling_property(w, m, mult) < 0;
    Py_DECREF(wb);
    return PyBool_FromLong(ok);
}

/* Step ``a`` to the next permutation in lexicographic order; returns the
 * first index it changed, or -1 after the last permutation. */
static Py_ssize_t
next_permutation(unsigned char *a, Py_ssize_t m)
{
    Py_ssize_t i = m - 2, j, lo, hi;
    unsigned char t;
    while (i >= 0 && a[i] >= a[i + 1])
        i--;
    if (i < 0)
        return -1;
    j = m - 1;
    while (a[j] <= a[i])
        j--;
    t = a[i], a[i] = a[j], a[j] = t;
    for (lo = i + 1, hi = m - 1; lo < hi; lo++, hi--)
        t = a[lo], a[lo] = a[hi], a[hi] = t;
    return i;
}

/* Count Stirling words by deciding every multiset permutation, in
 * lexicographic order from the sorted one.  The scan that fails at index
 * ``i`` reads only ``arr[0..i]``, so every permutation with that prefix
 * fails too; they form one block, which ends when the suffix
 * ``arr[i+1..]`` is in descending order.  A failure sorts that suffix
 * descending, so the next permutation leaves the block: the count stays
 * exact.  Every permutation visited is a word or a (valid prefix, next
 * letter) pair, so the visits number at most
 * ``words * (1 + (total + 1) * letters)``, and the word set is refused
 * where ``sorted_words`` refuses it.
 *
 * The scan is stirling_property's, resumed where the permutation changed:
 * ``top[i]`` and ``rem[i]`` are the open letter on top of the stack
 * before index ``i`` (0 when none is open) and its copies still to come.
 * A letter is pushed only at its first occurrence, so the stack is linked
 * through per-letter arrays: ``below[c]`` is the letter under ``c`` and
 * ``under[c]`` its copies left when ``c`` was pushed, which stay put while
 * ``c`` is open.  The state before index ``i`` depends only on
 * ``arr[0..i-1]``, which next_permutation leaves alone before the index it
 * returns, so each visit rescans only from that index.  That index is at
 * most the last index scanned (a failure at ``i`` rewrites only
 * ``arr[i+1..]``), so the state read there was written by an earlier scan
 * of the same prefix, as were ``below`` and ``under`` of every letter
 * then open.  The state costs one byte and one Py_ssize_t (9 bytes on
 * 64-bit) per letter of the word, on top of the word itself. */
static PyObject *
brute_count(PyObject *Py_UNUSED(self), PyObject *arg)
{
    Py_ssize_t parts[MAX_LETTERS], mult[MAX_LETTERS + 1] = {0}, left[MAX_LETTERS + 1] = {0};
    Py_ssize_t under[MAX_LETTERS + 1], *rem;
    Py_ssize_t m, n = fill_parts(arg, parts, &m), k, i, j, p = 0, r;
    unsigned char below[MAX_LETTERS + 1], *arr, *top, c, t;
    unsigned long long count = 0;

    if (n < 0 || word_count(parts, n, m) < 0)
        return NULL;
    if (m == 0)
        return PyLong_FromLong(1);
    if (m >= PY_SSIZE_T_MAX / (Py_ssize_t)(2 + sizeof *rem)
        || (rem = PyMem_Malloc((size_t)(m + 1) * (2 + sizeof *rem))) == NULL)
        return PyErr_NoMemory();
    top = (unsigned char *)(rem + m + 1);
    arr = top + m + 1;
    top[0] = 0, rem[0] = 0;
    for (k = 0, i = 0; k < n; i += parts[k], k++) {
        mult[k + 1] = parts[k];
        memset(arr + i, (int)(k + 1), parts[k]);
    }
    Py_BEGIN_ALLOW_THREADS
    do {
        for (i = p, t = top[p], r = rem[p]; i < m; top[++i] = t, rem[i] = r) {
            c = arr[i];
            if (c == t) {
                if (--r == 0)
                    r = under[t], t = below[t];
            }
            else if (c < t)
                break;
            else if (mult[c] > 1)
                below[c] = t, under[c] = r, t = c, r = mult[c] - 1;
        }
        if (i == m)
            count++;
        else {
            /* counting sort of arr[i+1..] into descending order, which
             * leaves ``left`` all zero again */
            for (j = i + 1; j < m; j++)
                left[arr[j]]++;
            for (k = n, j = i + 1; j < m; k--)
                for (; left[k] > 0; left[k]--)
                    arr[j++] = (unsigned char)k;
        }
    } while ((p = next_permutation(arr, m)) >= 0);
    Py_END_ALLOW_THREADS
    PyMem_Free(rem);
    return PyLong_FromUnsignedLongLong(count);
}

/* The twelve statistics of the ``m``-byte word ``w`` into ``out``, in
 * the order of profile12.  ``mult[c]`` is the number of occurrences of
 * letter ``c`` in ``w``; ``seen`` is all zero on entry and on return. */
static void
stats12(const unsigned char *w, Py_ssize_t m, const Py_ssize_t *mult, unsigned char *seen,
        Py_ssize_t *out)
{
    Py_ssize_t asc = 0, plat = 0, des = 0, sdes = 0, mdes = 0, fplat = 0, uplat = 0;
    Py_ssize_t dasc = 0, sddes = 0, fdesp = 0, ascpp = 0, mdup = 0, i;

    if (m == 0) /* the empty word is the grammar base case: one ascent */
        asc = 1;
    else if (w[0] == 0) /* index 0 compares the sentinel with w[0] */
        plat++;
    else
        asc++;
    for (i = 1; i <= m; i++) {
        unsigned char p = i >= 2 ? w[i - 2] : 0, c = w[i - 1], nx = i < m ? w[i] : 0;
        int multiple = mult[c] > 1, leftmost = !seen[c];
        seen[c] = 1;
        if (c > nx) {
            des++;
            if (multiple)
                mdes++, mdup++;
            else
                sdes++;
        }
        else if (c == nx) {
            plat++;
            if (leftmost)
                fplat++;
            if (!(p > c && leftmost) && !(p < c))
                uplat++, mdup++;
        }
        else
            asc++;
        if (p < c && c < nx)
            dasc++;
        if (p > c && c > nx && !multiple)
            sddes++;
        if (p > c && c == nx && leftmost)
            fdesp++;
        if (p < c && c >= nx)
            ascpp++;
    }
    for (i = 0; i < m; i++)
        seen[w[i]] = 0;
    out[0] = asc, out[1] = plat, out[2] = des, out[3] = sdes, out[4] = mdes;
    out[5] = fplat, out[6] = uplat, out[7] = dasc, out[8] = sddes, out[9] = fdesp;
    out[10] = ascpp, out[11] = mdup;
}

/* The twelve values at ``v`` as a tuple of ints. */
static PyObject *
stats_tuple(const Py_ssize_t *v)
{
    return Py_BuildValue("(nnnnnnnnnnnn)", v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7],
                         v[8], v[9], v[10], v[11]);
}

static PyObject *
profile12(PyObject *Py_UNUSED(self), PyObject *arg)
{
    Py_ssize_t mult[256] = {0}, out[12], m, i;
    unsigned char seen[256] = {0};
    const unsigned char *w;
    PyObject *wb = PyBytes_FromObject(arg);

    if (wb == NULL)
        return NULL;
    w = (const unsigned char *)PyBytes_AS_STRING(wb);
    m = PyBytes_GET_SIZE(wb);
    for (i = 0; i < m; i++)
        mult[w[i]]++;
    stats12(w, m, mult, seen, out);
    Py_DECREF(wb);
    return stats_tuple(out);
}

/* The value class of letter ``x`` from the window ``(p, x, nx)`` around
 * its leftmost occurrence; ``single`` when it has no other occurrence. */
static int
window_class(unsigned char p, long x, unsigned char nx, int single)
{
    if (p > x && x == nx)
        return FREE_DESCENT_PLATEAU;
    if (p > x && x > nx && single)
        return SINGLE_DOUBLE_DESCENT;
    if (p < x && x < nx)
        return DOUBLE_ASCENT;
    return FIXED;
}

/* The value class of letter ``x`` (0..255) in the ``m``-byte word ``w``,
 * whose leftmost occurrence goes into ``*pos`` (0-based); or -1 when
 * ``x`` does not occur. */
static int
class_at(const unsigned char *w, Py_ssize_t m, long x, Py_ssize_t *pos)
{
    const unsigned char *at = memchr(w, (int)x, (size_t)m), *end = w + m;
    if (at == NULL)
        return -1;
    *pos = at - w;
    return window_class(at > w ? at[-1] : 0, x, at + 1 < end ? at[1] : 0,
                        memchr(at + 1, (int)x, (size_t)(end - at - 1)) == NULL);
}

/* The value class and leftmost occurrence of every letter 1..n of the
 * ``m``-byte word ``w`` into ``cls[1..n]`` and ``pos[1..n]``, in one pass;
 * every letter must occur in ``w``. */
static void
class_table(const unsigned char *w, Py_ssize_t m, Py_ssize_t n, unsigned char *cls,
            Py_ssize_t *pos)
{
    Py_ssize_t i, x;
    for (x = 1; x <= n; x++)
        pos[x] = -1, cls[x] = 1; /* cls[x]: x has occurred at most once */
    for (i = 0; i < m; i++) {
        if (pos[w[i]] < 0)
            pos[w[i]] = i;
        else
            cls[w[i]] = 0;
    }
    for (x = 1; x <= n; x++)
        cls[x] = (unsigned char)window_class(pos[x] > 0 ? w[pos[x] - 1] : 0, x,
                                             pos[x] + 1 < m ? w[pos[x] + 1] : 0, cls[x]);
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
    int overflow, cls = -1;

    if (!two_args(name, nargs))
        return -1;
    /* an int that overflows a long reads as -1, outside the letters */
    *x = PyLong_AsLongAndOverflow(args[1], &overflow);
    if ((*x == -1 && PyErr_Occurred()) || (*wb = PyBytes_FromObject(args[0])) == NULL)
        return -1;
    if (*x >= 0 && *x <= 255)
        cls = class_at((const unsigned char *)PyBytes_AS_STRING(*wb), PyBytes_GET_SIZE(*wb), *x,
                       pos);
    if (cls < 0) {
        Py_CLEAR(*wb);
        PyErr_Format(PyExc_ValueError, "letter %R does not occur in the word", args[1]);
    }
    return cls;
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

/* The depth-first walk of gfs_scan over the Stirling words of one
 * content, in lexicographic order, cut to the words with sddes = fdesp =
 * 0 (see stats12); the pure backend's _representatives mirrors it.  Call
 * a letter open when it is placed and has copies left: a letter may
 * come next exactly when it is >= every open letter, so the open letters
 * form an increasing stack, and trying the letters in increasing order
 * visits the words in order.  Both statistics are local: the window (p,
 * c, nx) at an index is final once nx is placed, so a prefix is cut as
 * soon as the letter placed after it shows one. */
typedef struct {
    Py_ssize_t n, m, d;         /* letters, word length, letters placed */
    Py_ssize_t unseen;          /* letters with no copy placed */
    const Py_ssize_t *mult;     /* copies of each letter */
    Py_ssize_t left[MAX_LETTERS + 1]; /* copies of each letter not yet placed */
    unsigned char stack[MAX_LETTERS + 1];
    int top;                    /* index of the top open letter, -1 for none */
    unsigned char *w, *first;   /* the word; first[i]: w[i] is a leftmost copy */
} walk;

/* Whether placing ``a`` (0: the end sentinel) after the ``d`` letters
 * placed shows a single double-descent or a free descent-plateau at the
 * last letter placed. */
static int
walk_cut(const walk *wk, int a)
{
    unsigned char p, c;
    if (wk->d == 0)
        return 0;
    c = wk->w[wk->d - 1];
    p = wk->d >= 2 ? wk->w[wk->d - 2] : 0;
    return p > c && ((c > a && wk->mult[c] == 1) || (c == a && wk->first[wk->d - 1]));
}

static void
walk_place(walk *wk, int a)
{
    wk->w[wk->d] = (unsigned char)a;
    wk->first[wk->d] = wk->left[a] == wk->mult[a];
    wk->unseen -= wk->first[wk->d];
    if (--wk->left[a] == 0) {
        if (!wk->first[wk->d])
            wk->top--;
    }
    else if (wk->first[wk->d])
        wk->stack[++wk->top] = (unsigned char)a;
    wk->d++;
}

/* Take back the last letter placed, and return it. */
static int
walk_unplace(walk *wk)
{
    int a = wk->w[--wk->d];
    wk->unseen += wk->first[wk->d];
    if (wk->left[a]++ == 0) {
        if (!wk->first[wk->d])
            wk->stack[++wk->top] = (unsigned char)a;
    }
    else if (wk->first[wk->d])
        wk->top--;
    return a;
}

/* Move ``wk`` to its next leaf, the whole word in ``wk->w``: the first
 * one when ``fresh``, else the one after the current leaf.  Returns 0
 * when no leaf is left.  The walk is a loop, not a recursion over the
 * word length. */
static int
walk_next(walk *wk, int fresh)
{
    int a = 0, back = !fresh, t, c;
    Py_ssize_t i, j;
    for (;;) {
        if (back) {
            if (wk->d == 0)
                return 0;
            a = walk_unplace(wk);
        }
        back = 1;
        if (wk->unseen == 0) {
            /* every letter has a copy placed, so the rest is forced: the
             * open letters' copies, top first.  Each is a later copy of a
             * letter with more than one, so no cut shows past the window
             * at the last letter placed */
            for (i = wk->d, j = wk->top; j >= 0; i += wk->left[c], j--) {
                c = wk->stack[j];
                memset(wk->w + i, c, (size_t)wk->left[c]);
            }
            if (!walk_cut(wk, wk->d < wk->m ? wk->w[wk->d] : 0))
                return 1;
            continue;
        }
        /* the next letter after ``a``: the top open letter, or a letter
         * above it with no copy placed */
        t = wk->top >= 0 ? wk->stack[wk->top] : 0;
        for (a = a + 1 > t ? a + 1 : t; a <= wk->n; a++)
            if ((a == t || wk->left[a] == wk->mult[a]) && !walk_cut(wk, a))
                break;
        if (a <= wk->n) {
            walk_place(wk, a);
            a = 0, back = 0;
        }
    }
}

/* The orbit buffers of gfs_scan: ``cap`` rows of members (``m`` bytes
 * each) and of their class tables (``n + 1`` classes and leftmost
 * occurrences each, from class_table), and one image row. */
typedef struct {
    Py_ssize_t n, m, cap;
    const Py_ssize_t *mult;
    Py_ssize_t bit[MAX_LETTERS + 1]; /* the bit of a letter in a member index, 0 if fixed */
    unsigned char seen[MAX_LETTERS + 1]; /* stats12's scratch */
    unsigned char *member, *cls, *img;
    Py_ssize_t *pos;
} orbit;

/* Make room for ``rows`` rows in ``o``, keeping the rows it has; returns
 * 0 with an exception set when that fails. */
static int
orbit_reserve(orbit *o, Py_ssize_t rows)
{
    Py_ssize_t w1 = o->n + 1;
    unsigned char *member, *cls;
    Py_ssize_t *pos;
    if (rows <= o->cap)
        return 1;
    if (rows > PY_SSIZE_T_MAX / (o->m + 1 + w1 * (Py_ssize_t)(1 + sizeof *pos))) {
        PyErr_NoMemory();
        return 0;
    }
    if ((member = PyMem_Realloc(o->member, (size_t)(rows * o->m + 1))) != NULL)
        o->member = member;
    if ((cls = PyMem_Realloc(o->cls, (size_t)(rows * w1))) != NULL)
        o->cls = cls;
    if ((pos = PyMem_Realloc(o->pos, (size_t)(rows * w1) * sizeof *pos)) != NULL)
        o->pos = pos;
    if (member == NULL || cls == NULL || pos == NULL) {
        PyErr_NoMemory();
        return 0;
    }
    o->cap = rows;
    return 1;
}

/* The checks of gfs_scan on the orbit of the representative in row 0 of
 * ``o``, with profile ``pr`` and class table in row 0 (see the pure
 * backend), and ``k`` moving letters with their bits in ``o->bit``; ``o``
 * has room for ``2^k`` rows.  One pass over the members: member ``s``
 * gets its own checks, then every letter hops it once.  A letter whose
 * bit is above ``s`` builds the member it reaches, which is the first hop
 * to reach it; every other hop lands on a member built before.  Returns
 * the name of the failed check, or NULL; a failed check of one member
 * names it in ``*at`` (left at the representative for a check of the
 * whole orbit), and the letter of a failed hop in ``*letter``. */
static const char *
orbit_failure(orbit *o, Py_ssize_t k, const Py_ssize_t *pr, const unsigned char **at,
              long *letter)
{
    Py_ssize_t size = (Py_ssize_t)1 << k, terms[64] = {0}, binom[64] = {1}, p[12];
    Py_ssize_t s, i, j, t, reps = 0, m = o->m, w1 = o->n + 1;
    const unsigned char *cls;
    const Py_ssize_t *pos;
    const char *failure = NULL;
    unsigned char *v, *u;
    long x;

    memcpy(p, pr, sizeof p);
    for (s = 0, v = o->member; s < size; s++, v += m) {
        cls = o->cls + s * w1, pos = o->pos + s * w1;
        if (s > 0)
            stats12(v, m, o->mult, o->seen, p);
        if (p[11] != pr[11]) {
            *at = v;
            return "mdup-invariance";
        }
        i = p[0] - pr[10];
        if (p[0] + p[5] + p[3] != 2 * pr[10] + k || i < 0 || i > k)
            return "orbit-sum";
        terms[i]++;
        reps += !(p[8] || p[9]);
        for (x = 1; x <= o->n; x++) {
            t = s ^ o->bit[x], u = o->member + t * m;
            if (o->bit[x] > s) { /* the first hop to reach member t builds it */
                if (cls[x] == FIXED)
                    memcpy(u, v, (size_t)m);
                else
                    hop(v, m, pos[x], x, cls[x], u);
                if (stirling_property(u, m, o->mult) >= 0)
                    failure = "closure";
                else
                    class_table(u, m, o->n, o->cls + t * w1, o->pos + t * w1);
            }
            else if (cls[x] != FIXED) {
                hop(v, m, pos[x], x, cls[x], o->img);
                if (memcmp(o->img, u, (size_t)m) != 0)
                    failure = stirling_property(o->img, m, o->mult) < 0 ? "hop" : "closure";
            }
            else if (t != s && memcmp(v, u, (size_t)m) != 0)
                failure = "hop"; /* v stays put, and is a Stirling word */
            if (failure == NULL
                && (cls[x] == FREE_DESCENT_PLATEAU || cls[x] == SINGLE_DOUBLE_DESCENT)
                       != (o->cls[t * w1 + x] == DOUBLE_ASCENT))
                failure = "toggle";
            if (failure != NULL) {
                *at = v, *letter = x;
                return failure;
            }
        }
    }
    /* row k of Pascal's triangle */
    for (i = 1; i <= k; i++)
        for (j = i; j > 0; j--)
            binom[j] += binom[j - 1];
    for (i = 0; i <= k; i++)
        if (terms[i] != binom[i])
            return "orbit-sum";
    return reps != 1 ? "unique-representative" : NULL;
}

/* The representatives come from the walk, and each leaf is checked
 * again before it is used, so a pass does not rest on the cut: the leaf
 * must be a Stirling word of the content, have sddes = fdesp = 0 in its
 * profile (else it is skipped), and come strictly after the
 * representative before it, which row 0 of the orbit still holds.  The
 * orbit sizes are counted down from word_count, so no word set is built,
 * although the scan refuses the word sets that sorted_words refuses. */
static PyObject *
gfs_scan(PyObject *Py_UNUSED(self), PyObject *arg)
{
    Py_ssize_t parts[MAX_LETTERS], mult[MAX_LETTERS + 1] = {0}, pr[12];
    Py_ssize_t total, left, k, x, size;
    long letter = 0;
    int fresh, have_prev = 0;
    const unsigned char *r, *at = NULL;
    const char *failure = NULL;
    PyObject *out = NULL;
    walk wk = {0};
    orbit o = {0};

    if ((o.n = fill_parts(arg, parts, &total)) < 0 || (left = word_count(parts, o.n, total)) < 0)
        return NULL;
    for (k = 0; k < o.n; k++)
        mult[k + 1] = wk.left[k + 1] = parts[k];
    wk.n = wk.unseen = o.n, wk.m = o.m = total, wk.mult = o.mult = mult, wk.top = -1;
    if ((wk.w = PyMem_Malloc((size_t)total + 1)) == NULL
        || (wk.first = PyMem_Malloc((size_t)total + 1)) == NULL
        || (o.img = PyMem_Malloc((size_t)total + 1)) == NULL || !orbit_reserve(&o, 1))
        goto done;
    for (fresh = 1; walk_next(&wk, fresh); fresh = 0) {
        r = at = wk.w;
        if (!has_content(r, total, o.n, mult) || stirling_property(r, total, mult) >= 0) {
            failure = "closure";
            break;
        }
        stats12(r, total, mult, o.seen, pr);
        if (pr[8] || pr[9]) /* not a representative */
            continue;
        if (have_prev && memcmp(o.member, r, (size_t)total) >= 0) {
            failure = "cover";
            break;
        }
        have_prev = 1;
        class_table(r, total, o.n, o.cls, o.pos);
        for (x = 1, k = 0; x <= o.n; x++)
            k += o.cls[x] != FIXED;
        if (pr[0] - pr[7] != pr[5] + pr[3] || pr[5] + pr[3] != pr[10])
            failure = "identity-ascpp";
        else if (pr[7] != total + 1 - pr[11] - 2 * pr[10])
            failure = "identity-dasc";
        else if (k != pr[7])
            failure = "orbit-size";
        else if (k >= (Py_ssize_t)(8 * sizeof left - 1) || (left >> k) == 0) /* 2^k > left */
            failure = "cover";
        if (failure != NULL)
            break;
        size = (Py_ssize_t)1 << k;
        if (!orbit_reserve(&o, size))
            goto done;
        memcpy(o.member, r, (size_t)total);
        for (x = 1, k = 0; x <= o.n; x++)
            o.bit[x] = o.cls[x] != FIXED ? (Py_ssize_t)1 << k++ : 0;
        if ((failure = orbit_failure(&o, k, pr, &at, &letter)) != NULL)
            break;
        left -= size;
    }
    if (failure == NULL && left != 0)
        failure = "cover", at = NULL;
    /* ``at`` points into ``wk.w`` or ``o.member``; y# makes None of NULL */
    if (failure != NULL)
        out = Py_BuildValue("(sy#l)", failure, (const char *)at, total, letter);
    else
        out = Py_NewRef(Py_None);
done:
    if (out == NULL && !PyErr_Occurred())
        PyErr_NoMemory();
    PyMem_Free(wk.w);
    PyMem_Free(wk.first);
    PyMem_Free(o.img);
    PyMem_Free(o.member);
    PyMem_Free(o.cls);
    PyMem_Free(o.pos);
    return out;
}

/* The value kept with each key of a key_table. */
typedef union {
    Py_ssize_t count; /* joint_hist: words with this profile */
    PyObject *coef;   /* derive_chain: the coefficient of this term */
} key_value;

/* An open-addressing index of keys of ``width`` Py_ssize_t values each,
 * numbered 0, 1, ... in order of first insertion, with one value per key.
 * The ``cap`` slots (a power of two) are kept at most half full, so the
 * keys and values have room for ``cap / 2`` entries. */
typedef struct {
    Py_ssize_t width, used, cap;
    Py_ssize_t *keys;
    key_value *value;
    Py_ssize_t *slot; /* key number + 1, or 0 for an empty slot */
} key_table;

/* FNV-1a over the ``n`` values at ``v``, high half folded into the low
 * half. */
static size_t
key_hash(const Py_ssize_t *v, Py_ssize_t n)
{
    unsigned long long h = 14695981039346656037ULL;
    Py_ssize_t k;
    for (k = 0; k < n; k++)
        h = (h ^ (unsigned long long)v[k]) * 1099511628211ULL;
    return (size_t)(h ^ (h >> 32));
}

/* Size ``t`` for ``cap`` slots, keeping its keys and values; returns 0
 * with an exception set when that fails, leaving them as they were. */
static int
key_table_resize(key_table *t, Py_ssize_t cap)
{
    Py_ssize_t *slot, *keys, k;
    key_value *value;
    size_t mask = (size_t)cap - 1, h;

    if (cap / 2 > PY_SSIZE_T_MAX / (Py_ssize_t)(t->width * sizeof *keys + sizeof *value))
        return PyErr_NoMemory(), 0;
    if ((slot = PyMem_Calloc((size_t)cap, sizeof *slot)) == NULL)
        return PyErr_NoMemory(), 0;
    if ((keys = PyMem_Realloc(t->keys, (size_t)(cap / 2 * t->width) * sizeof *keys)) != NULL)
        t->keys = keys;
    if (keys == NULL || (value = PyMem_Realloc(t->value, (size_t)cap / 2 * sizeof *value)) == NULL) {
        PyMem_Free(slot);
        return PyErr_NoMemory(), 0;
    }
    PyMem_Free(t->slot);
    t->value = value, t->slot = slot, t->cap = cap;
    for (k = 0; k < t->used; k++) {
        for (h = key_hash(t->keys + k * t->width, t->width) & mask; slot[h]; h = (h + 1) & mask)
            ;
        slot[h] = k + 1;
    }
    return 1;
}

/* The number of ``key`` in ``t``; a new key gets the next number and a
 * zeroed value.  Returns -1 with an exception set when the table fails
 * to grow (the new key is kept). */
static Py_ssize_t
key_table_find(key_table *t, const Py_ssize_t *key)
{
    size_t mask = (size_t)t->cap - 1, h;
    size_t size = (size_t)t->width * sizeof *key;
    Py_ssize_t k;

    for (h = key_hash(key, t->width) & mask; t->slot[h]; h = (h + 1) & mask)
        if (memcmp(t->keys + (t->slot[h] - 1) * t->width, key, size) == 0)
            return t->slot[h] - 1;
    k = t->used++;
    memcpy(t->keys + k * t->width, key, size);
    memset(&t->value[k], 0, sizeof t->value[k]);
    t->slot[h] = k + 1;
    return 2 * t->used == t->cap && !key_table_resize(t, 2 * t->cap) ? -1 : k;
}

static void
key_table_free(key_table *t)
{
    PyMem_Free(t->keys);
    PyMem_Free(t->value);
    PyMem_Free(t->slot);
}

static PyObject *
joint_hist(PyObject *Py_UNUSED(self), PyObject *arg)
{
    Py_ssize_t n, count, m, i, k, mult[MAX_LETTERS + 1] = {0}, prof[12];
    unsigned char seen[MAX_LETTERS + 1] = {0}, *buf = sorted_words(arg, &n, &count, &m);
    key_table t = {.width = 12};
    PyObject *out = NULL, *item;

    if (buf == NULL)
        return NULL;
    /* every word has the content of the composition */
    for (i = 0; i < m; i++)
        mult[buf[i]]++;
    /* the profiles in order of first occurrence */
    if (!key_table_resize(&t, 16))
        goto done;
    for (i = 0; i < count; i++) {
        stats12(buf + i * m, m, mult, seen, prof);
        if ((k = key_table_find(&t, prof)) < 0)
            goto done;
        t.value[k].count++;
    }
    if ((out = PyTuple_New(t.used)) == NULL)
        goto done;
    for (k = 0; k < t.used; k++) {
        item = Py_BuildValue("(Nn)", stats_tuple(t.keys + 12 * k), t.value[k].count);
        if (item == NULL) {
            Py_CLEAR(out);
            break;
        }
        PyTuple_SET_ITEM(out, k, item);
    }
done:
    PyMem_Free(buf);
    key_table_free(&t);
    return out;
}

/* Read the exponent vector ``obj`` into ``*out`` and add its sum to
 * ``*bound``.  ``len`` is the length it must have, with room for it at
 * ``*out``; or -1 for any length, in a block this allocates at ``*out``
 * (release it with PyMem_Free).  Returns the length, or -1 with the
 * exception of derive_chain's refusals set. */
static Py_ssize_t
read_exponents(PyObject *obj, Py_ssize_t len, Py_ssize_t **out, Py_ssize_t *bound)
{
    PyObject *seq = PySequence_Fast(obj, "an exponent vector must be a sequence");
    Py_ssize_t n, k;
    long long e;
    int overflow;

    if (seq == NULL)
        return -1;
    n = PySequence_Fast_GET_SIZE(seq);
    if (len >= 0 && n != len) {
        PyErr_SetString(PyExc_ValueError, "every rule must have one exponent per variable of start");
        n = -1;
    }
    else if (*out == NULL && (*out = PyMem_Malloc((size_t)n * sizeof **out + 1)) == NULL) {
        PyErr_NoMemory();
        n = -1;
    }
    for (k = 0; k < n; k++) {
        e = PyLong_AsLongLongAndOverflow(PySequence_Fast_GET_ITEM(seq, k), &overflow);
        if (e == -1 && PyErr_Occurred())
            n = -1;
        else if (overflow < 0 || (overflow == 0 && e < 0))
            n = -1, PyErr_SetString(PyExc_ValueError, "exponents must be nonnegative");
        else if (overflow > 0 || e > PY_SSIZE_T_MAX - *bound)
            n = -1, PyErr_SetString(PyExc_OverflowError, "the degree bound is too large");
        else
            (*out)[k] = (Py_ssize_t)e, *bound += (Py_ssize_t)e;
    }
    Py_DECREF(seq);
    return n;
}

/* Add ``term`` (a new reference, or NULL after a failed operation) at
 * ``key`` in ``t``; returns 0 with an exception set on failure. */
static int
add_term(key_table *t, const Py_ssize_t *key, PyObject *term)
{
    Py_ssize_t k;
    PyObject *sum;
    if (term == NULL || (k = key_table_find(t, key)) < 0) {
        Py_XDECREF(term);
        return 0;
    }
    if (t->value[k].coef == NULL) {
        t->value[k].coef = term;
        return 1;
    }
    sum = PyNumber_Add(t->value[k].coef, term);
    Py_DECREF(term);
    if (sum == NULL)
        return 0;
    Py_SETREF(t->value[k].coef, sum);
    return 1;
}

/* Drop every term of ``t``, keeping its room. */
static void
clear_terms(key_table *t)
{
    Py_ssize_t k;
    for (k = 0; k < t->used; k++)
        Py_XDECREF(t->value[k].coef);
    memset(t->slot, 0, (size_t)t->cap * sizeof *t->slot);
    t->used = 0;
}

/* ``c * e``, for a Python int ``c`` and ``e >= 1``, as a new reference;
 * or NULL with an exception set. */
static PyObject *
times(PyObject *c, Py_ssize_t e)
{
    PyObject *f, *out;
    if (e == 1)
        return Py_NewRef(c);
    if ((f = PyLong_FromSsize_t(e)) == NULL)
        return NULL;
    out = PyNumber_Multiply(c, f);
    Py_DECREF(f);
    return out;
}

/* Terms are keys of ``nv`` exponents with Python int coefficients, in two
 * tables that serve as source and destination of each step in turn.  The
 * degree bound (the exponents of ``start`` and of every rule, summed) is
 * checked before any step: a rule of another length or a negative
 * exponent raise ValueError, a non-integer exponent TypeError, and a
 * bound past PY_SSIZE_T_MAX OverflowError.  The bound caps every exponent
 * of every step, so no key overflows. */
static PyObject *
derive_chain(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Py_ssize_t nv, nr, i, j, u, v, bound = 0, *start = NULL, *rules = NULL, *base = NULL;
    PyObject *seq = NULL, *out = NULL, *key, *ev;
    key_table a = {0}, b = {0}, *cur = &a, *nxt = &b, *tmp;

    if (!two_args("derive_chain", nargs) || (nv = read_exponents(args[0], -1, &start, &bound)) < 0
        || (seq = PySequence_Fast(args[1], "rules must be a sequence")) == NULL)
        goto done;
    nr = PySequence_Fast_GET_SIZE(seq);
    if (nv > 0 && nr > PY_SSIZE_T_MAX / nv / (Py_ssize_t)sizeof *rules) {
        PyErr_NoMemory();
        goto done;
    }
    if ((rules = PyMem_Malloc((size_t)(nr * nv) * sizeof *rules + 1)) == NULL
        || (base = PyMem_Malloc((size_t)nv * sizeof *base + 1)) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (i = 0; i < nr; i++) {
        Py_ssize_t *row = rules + i * nv;
        if (read_exponents(PySequence_Fast_GET_ITEM(seq, i), nv, &row, &bound) < 0)
            goto done;
    }
    a.width = b.width = nv;
    if (!key_table_resize(&a, 16) || !key_table_resize(&b, 16)
        || !add_term(cur, start, PyLong_FromLong(1)))
        goto done;
    /* D_r on a term c * x^key: for each v with key[v] > 0, the term
     * c * key[v] * x^(key + r - e_v), in order of v */
    for (i = 0; i < nr; i++) {
        const Py_ssize_t *r = rules + i * nv;
        for (j = 0; j < cur->used; j++) {
            const Py_ssize_t *k = cur->keys + j * nv;
            for (u = 0; u < nv; u++)
                base[u] = k[u] + r[u];
            for (v = 0; v < nv; v++) {
                if (k[v] == 0)
                    continue;
                base[v]--;
                if (!add_term(nxt, base, times(cur->value[j].coef, k[v])))
                    goto done;
                base[v]++;
            }
        }
        clear_terms(cur);
        tmp = cur, cur = nxt, nxt = tmp;
    }
    if ((out = PyDict_New()) == NULL)
        goto done;
    for (j = 0; j < cur->used; j++) {
        key = PyTuple_New(nv);
        for (u = 0; key != NULL && u < nv; u++) {
            if ((ev = PyLong_FromSsize_t(cur->keys[j * nv + u])) == NULL)
                Py_CLEAR(key);
            else
                PyTuple_SET_ITEM(key, u, ev);
        }
        if (key == NULL || PyDict_SetItem(out, key, cur->value[j].coef) < 0) {
            Py_XDECREF(key);
            Py_CLEAR(out);
            break;
        }
        Py_DECREF(key);
    }
done:
    if (a.slot != NULL)
        clear_terms(&a);
    if (b.slot != NULL)
        clear_terms(&b);
    key_table_free(&a);
    key_table_free(&b);
    Py_XDECREF(seq);
    PyMem_Free(start);
    PyMem_Free(rules);
    PyMem_Free(base);
    return out;
}

/* One term of gamma_table's input: its key and coefficient (new
 * references), its power of z (borrowed from the key, or the caller's
 * zero), its x exponent, its row length x + y + 1 (-1 when that is past
 * PY_SSIZE_T_MAX) and the number of its slice. */
typedef struct {
    PyObject *key, *c, *z;
    Py_ssize_t ex, len, slice;
} gamma_term;

/* Read the x, y and z exponents of ``t->key`` at the positions ``at``,
 * where one past the end of the key reads ``zero``; returns 0 with an
 * exception set on failure. */
static int
read_term(gamma_term *t, const Py_ssize_t *at, PyObject *zero)
{
    PyObject *e[3];
    long long x, y;
    int k, ox, oy;

    if (!PyTuple_Check(t->key)) {
        PyErr_SetString(PyExc_TypeError, "every key must be a tuple of exponents");
        return 0;
    }
    for (k = 0; k < 3; k++) {
        if (at[k] > PyTuple_GET_SIZE(t->key)) {
            PyErr_SetString(PyExc_IndexError, "tuple index out of range");
            return 0;
        }
        e[k] = at[k] < PyTuple_GET_SIZE(t->key) ? PyTuple_GET_ITEM(t->key, at[k]) : zero;
    }
    t->z = e[2];
    x = PyLong_AsLongLongAndOverflow(e[0], &ox);
    if (x == -1 && PyErr_Occurred())
        return 0;
    y = PyLong_AsLongLongAndOverflow(e[1], &oy);
    if (y == -1 && PyErr_Occurred())
        return 0;
    if (ox < 0 || oy < 0 || (!ox && x < 0) || (!oy && y < 0)) {
        PyErr_SetString(PyExc_ValueError, "exponents must be nonnegative");
        return 0;
    }
    t->ex = (Py_ssize_t)x;
    t->len = ox || oy || x > PY_SSIZE_T_MAX - 1 - y ? -1 : (Py_ssize_t)(x + y + 1);
    return 1;
}

/* C(n, k + 1) = C(n, k) (n - k) / (k + 1) from ``b`` = C(n, k), for
 * k < n, as a new reference; or NULL with an exception set. */
static PyObject *
next_binomial(PyObject *b, Py_ssize_t n, Py_ssize_t k)
{
    PyObject *t = times(b, n - k), *f, *out;

    if (t == NULL || (f = PyLong_FromSsize_t(k + 1)) == NULL) {
        Py_XDECREF(t);
        return NULL;
    }
    out = PyNumber_FloorDivide(t, f);
    Py_DECREF(t);
    Py_DECREF(f);
    return out;
}

/* Eliminate the coefficient row ``row`` of a slice of degree ``d`` in
 * place, peeling g_j = row[j] and subtracting g_j C(d - 2j, k) from
 * row[j + k], and add {(z, j): g_j} to ``entries`` for every nonzero
 * g_j; returns 0 with an exception set on failure. */
static int
eliminate(PyObject **row, Py_ssize_t d, PyObject *z, PyObject *entries)
{
    Py_ssize_t j, k, n;
    PyObject *g, *b, *key, *t;
    int nonzero, ok;

    for (j = 0; 2 * j <= d; j++) {
        if ((nonzero = PyObject_IsTrue(row[j])) <= 0) {
            if (nonzero < 0)
                return 0;
            continue;
        }
        g = Py_NewRef(row[j]);
        key = Py_BuildValue("(On)", z, j);
        ok = key != NULL && PyDict_SetItem(entries, key, g) == 0;
        Py_XDECREF(key);
        n = d - 2 * j;
        b = ok ? PyLong_FromLong(1) : NULL;
        for (k = 0; b != NULL && k <= n; k++) {
            if ((t = PyNumber_Multiply(g, b)) == NULL)
                break;
            Py_SETREF(t, PyNumber_Subtract(row[j + k], t));
            if (t == NULL)
                break;
            Py_SETREF(row[j + k], t);
            if (k < n)
                Py_SETREF(b, next_binomial(b, n, k));
        }
        ok = b != NULL && k > n;
        Py_XDECREF(b);
        Py_DECREF(g);
        if (!ok)
            return 0;
    }
    return 1;
}

/* The check that one slice fails, given its ``cnt`` terms ``ts`` and
 * its zeroed row of ``len`` coefficients: NULL when it passes, with its
 * entries added to ``entries`` and the largest i + d so far in
 * ``*degree``; or "homogeneous", "symmetric" or "residue" (the residue
 * left in ``row``).  Sets ``*failed``, with an exception, on error. */
static const char *
gamma_slice(gamma_term *term, const Py_ssize_t *ts, Py_ssize_t cnt, PyObject **row,
            Py_ssize_t len, PyObject *zero, PyObject *entries, PyObject **degree, int *failed)
{
    Py_ssize_t k;
    PyObject *d, *top;
    int r;

    for (k = 0; k < cnt; k++) {
        if (term[ts[k]].len != len)
            return "homogeneous";
        Py_XSETREF(row[term[ts[k]].ex], Py_NewRef(term[ts[k]].c));
    }
    for (k = 0; k < len; k++)
        if (row[k] == NULL)
            row[k] = Py_NewRef(zero);
    for (k = 0; 2 * k < len; k++) {
        if ((r = PyObject_RichCompareBool(row[k], row[len - 1 - k], Py_EQ)) <= 0) {
            *failed = r < 0;
            return r < 0 ? NULL : "symmetric";
        }
    }
    if (!eliminate(row, len - 1, term[ts[0]].z, entries)) {
        *failed = 1;
        return NULL;
    }
    for (k = 0; k < len; k++) {
        if ((r = PyObject_IsTrue(row[k])) != 0) {
            *failed = r < 0;
            return r < 0 ? NULL : "residue";
        }
    }
    d = PyLong_FromSsize_t(len - 1);
    top = d == NULL ? NULL : PyNumber_Add(term[ts[0]].z, d);
    Py_XDECREF(d);
    if (top == NULL || (r = PyObject_RichCompareBool(top, *degree, Py_GT)) < 0) {
        Py_XDECREF(top);
        *failed = 1;
        return NULL;
    }
    if (r)
        Py_SETREF(*degree, top);
    else
        Py_DECREF(top);
    return NULL;
}

/* The terms are read into ``term`` in dict order, then put in slice
 * order by a counting sort that keeps that order within each slice; the
 * distinct powers of z are numbered in a dict and sorted as Python ints,
 * so a power past PY_SSIZE_T_MAX is a slice like any other. */
static PyObject *
gamma_table(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Py_ssize_t at[3], n, nt = 0, ns, i, s, k, len, pos = 0, *first = NULL, *order = NULL;
    gamma_term *term = NULL;
    PyObject *key, *c, *num, *zero = NULL, *slices = NULL, *zs = NULL, *entries = NULL;
    PyObject *degree = NULL, *out = NULL, **row = NULL, *list;
    const char *check = NULL;
    int failed = 0;

    if (nargs != 4) {
        PyErr_Format(PyExc_TypeError, "gamma_table() takes exactly 4 arguments (%zd given)", nargs);
        return NULL;
    }
    if (!PyDict_Check(args[0])) {
        PyErr_SetString(PyExc_TypeError, "terms must be a dict");
        return NULL;
    }
    for (k = 0; k < 3; k++) {
        if ((at[k] = PyNumber_AsSsize_t(args[k + 1], PyExc_IndexError)) == -1 && PyErr_Occurred())
            return NULL;
        if (at[k] < 0) {
            PyErr_SetString(PyExc_IndexError, "tuple index out of range");
            return NULL;
        }
    }
    n = PyDict_GET_SIZE(args[0]);
    if ((term = PyMem_Malloc((size_t)n * sizeof *term + 1)) == NULL
        || (order = PyMem_Malloc((size_t)n * sizeof *order + 1)) == NULL
        || (first = PyMem_Calloc((size_t)n + 2, sizeof *first)) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    /* own every key and coefficient before any Python code can run */
    while (nt < n && PyDict_Next(args[0], &pos, &key, &c)) {
        term[nt].key = Py_NewRef(key);
        term[nt++].c = Py_NewRef(c);
    }
    if ((zero = PyLong_FromLong(0)) == NULL || (slices = PyDict_New()) == NULL
        || (entries = PyDict_New()) == NULL || (degree = Py_NewRef(zero)) == NULL)
        goto done;
    for (i = 0; i < nt; i++) {
        if (!read_term(&term[i], at, zero))
            goto done;
        if ((num = PyDict_GetItemWithError(slices, term[i].z)) != NULL)
            term[i].slice = PyLong_AsSsize_t(num);
        else if (PyErr_Occurred())
            goto done;
        else {
            term[i].slice = PyDict_GET_SIZE(slices);
            num = PyLong_FromSsize_t(term[i].slice);
            if (num == NULL || PyDict_SetItem(slices, term[i].z, num) < 0) {
                Py_XDECREF(num);
                goto done;
            }
            Py_DECREF(num);
        }
        first[term[i].slice + 2]++;
    }
    ns = PyDict_GET_SIZE(slices);
    /* first[s + 1] counts the terms before slice s, then is moved past
     * them as they are placed, so that first[s] opens slice s */
    for (s = 2; s <= ns; s++)
        first[s] += first[s - 1];
    for (i = 0; i < nt; i++)
        order[first[term[i].slice + 1]++] = i;
    if ((zs = PyDict_Keys(slices)) == NULL || PyList_Sort(zs) < 0)
        goto done;
    for (k = 0; k < ns && check == NULL; k++) {
        if ((num = PyDict_GetItemWithError(slices, PyList_GET_ITEM(zs, k))) == NULL)
            goto done;
        s = PyLong_AsSsize_t(num);
        /* the first term of the slice sets its row length */
        if ((len = term[order[first[s]]].len) < 0) {
            PyErr_SetString(PyExc_OverflowError, "cannot fit 'int' into an index-sized integer");
            goto done;
        }
        if ((row = PyMem_Calloc((size_t)len, sizeof *row)) == NULL) {
            PyErr_NoMemory();
            goto done;
        }
        check = gamma_slice(term, order + first[s], first[s + 1] - first[s], row, len, zero,
                            entries, &degree, &failed);
        if (failed)
            goto done;
        if (check == NULL) {
            for (i = 0; i < len; i++)
                Py_XDECREF(row[i]);
            PyMem_Free(row);
            row = NULL;
        }
    }
    if (check == NULL)
        out = PyTuple_Pack(2, degree, entries);
    else if (strcmp(check, "residue") != 0)
        out = Py_BuildValue("(sO)", check, PyList_GET_ITEM(zs, k - 1));
    else if ((list = PyList_New(len)) != NULL) {
        for (i = 0; i < len; i++)
            PyList_SET_ITEM(list, i, Py_NewRef(row[i]));
        out = Py_BuildValue("(sON)", check, PyList_GET_ITEM(zs, k - 1), list);
    }
done:
    if (row != NULL) {
        for (i = 0; i < len; i++)
            Py_XDECREF(row[i]);
        PyMem_Free(row);
    }
    for (i = 0; i < nt; i++) {
        Py_DECREF(term[i].key);
        Py_DECREF(term[i].c);
    }
    PyMem_Free(term);
    PyMem_Free(order);
    PyMem_Free(first);
    Py_XDECREF(zero);
    Py_XDECREF(slices);
    Py_XDECREF(zs);
    Py_XDECREF(entries);
    Py_XDECREF(degree);
    return out;
}

/* math.gcd, looked up when the module is created */
static PyObject *gcd;

/* The pseudo-remainder of ``f`` (``nf`` coefficients) by ``g`` (``ng``
 * >= 2 of them) into ``r``, step by step as the pure kernel's
 * _pseudo_rem builds it; returns its length once trailing zeros are
 * stripped, or -1 with an exception set and no reference left in ``r``. */
static Py_ssize_t
pseudo_rem(PyObject **r, PyObject *const *f, Py_ssize_t nf, PyObject *const *g, Py_ssize_t ng)
{
    Py_ssize_t d = ng - 1, top, off, i, nr;
    PyObject *lg = g[d], *q = NULL, *a, *b, *t;
    int nz;

    for (nr = 0; nr < nf; nr++)
        r[nr] = Py_NewRef(f[nr]);
    /* r <- lg * r - r[top] * x^(top - d) * g, which cancels r[top] */
    for (top = nf - 1; top >= d; top--) {
        q = r[top], nr = top, off = top - d;
        if ((nz = PyObject_IsTrue(q)) < 0)
            goto fail;
        for (i = 0; i < top; i++) {
            if ((a = PyNumber_Multiply(r[i], lg)) != NULL && nz && i >= off) {
                b = PyNumber_Multiply(q, g[i - off]);
                t = b == NULL ? NULL : PyNumber_Subtract(a, b);
                Py_XDECREF(b);
                Py_SETREF(a, t);
            }
            if (a == NULL)
                goto fail;
            Py_SETREF(r[i], a);
        }
        Py_CLEAR(q);
    }
    while (nr > 0 && (nz = PyObject_IsTrue(r[nr - 1])) == 0)
        Py_DECREF(r[--nr]);
    if (nr > 0 && nz < 0)
        goto fail;
    return nr;
fail:
    Py_XDECREF(q);
    while (nr > 0)
        Py_DECREF(r[--nr]);
    return -1;
}

/* The members of the chain live in three arrays of as many slots as p
 * has coefficients: f and g, the last two members, and r, the room for
 * the next; each step rotates them, so nothing is allocated per member
 * but its Python int coefficients. */
static PyObject *
sturm_walk(PyObject *Py_UNUSED(self), PyObject *arg)
{
    PyObject *seq = PySequence_Fast(arg, "the coefficients must be a sequence");
    PyObject **buf = NULL, **f, **g, **r, **tmp, *lengths = NULL, *zero = NULL, *d = NULL;
    PyObject *out = NULL, *num, *t;
    Py_ssize_t n, nf = 0, ng = 0, nr = 0, i, changes = 0;
    int at_pos, at_neg, pos, neg;

    if (seq == NULL)
        return NULL;
    n = PySequence_Fast_GET_SIZE(seq);
    if (n > PY_SSIZE_T_MAX / 3 / (Py_ssize_t)sizeof *buf
        || (buf = PyMem_Malloc((size_t)(3 * n) * sizeof *buf + 1)) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    f = buf, g = buf + n, r = buf + 2 * n;
    for (; nf < n; nf++)
        if ((f[nf] = PyNumber_Index(PySequence_Fast_GET_ITEM(seq, nf))) == NULL)
            goto done;
    if ((lengths = Py_BuildValue("[n]", nf)) == NULL || (zero = PyLong_FromLong(0)) == NULL)
        goto done;
    if (nf < 2) {
        out = Py_BuildValue("(nO)", changes, lengths);
        goto done;
    }
    /* g = p' */
    for (; ng < nf - 1; ng++)
        if ((g[ng] = times(f[ng + 1], ng + 1)) == NULL)
            goto done;
    /* the sign of each member at plus infinity, and at minus infinity,
     * where a member of odd degree (even length) flips it */
    if ((at_pos = PyObject_RichCompareBool(f[nf - 1], zero, Py_GT)) < 0)
        goto done;
    at_neg = at_pos == nf % 2;
    for (;;) {
        if ((num = PyLong_FromSsize_t(ng)) == NULL || PyList_Append(lengths, num) < 0) {
            Py_XDECREF(num);
            goto done;
        }
        Py_DECREF(num);
        if ((pos = PyObject_RichCompareBool(g[ng - 1], zero, Py_GT)) < 0)
            goto done;
        neg = pos == ng % 2;
        changes += (at_neg != neg) - (at_pos != pos);
        at_pos = pos, at_neg = neg;
        if (ng < 2)
            break;
        if ((nr = pseudo_rem(r, f, nf, g, ng)) <= 0) {
            nr = 0;
            if (PyErr_Occurred())
                goto done;
            break;
        }
        /* divide by the content, negated when the scale factor of the
         * pseudo-remainder, lc(g)^(nf - ng + 1), is positive */
        if ((d = PyObject_Vectorcall(gcd, r, (size_t)nr, NULL)) == NULL)
            goto done;
        if (pos || (nf - ng) % 2) {
            Py_SETREF(d, PyNumber_Negative(d));
            if (d == NULL)
                goto done;
        }
        for (i = 0; i < nr; i++) {
            if ((t = PyNumber_FloorDivide(r[i], d)) == NULL)
                goto done;
            Py_SETREF(r[i], t);
        }
        Py_CLEAR(d);
        while (nf > 0)
            Py_DECREF(f[--nf]);
        tmp = f, f = g, nf = ng, g = r, ng = nr, r = tmp, nr = 0;
    }
    out = Py_BuildValue("(nO)", changes, lengths);
done:
    if (buf != NULL) {
        while (nf > 0)
            Py_DECREF(f[--nf]);
        while (ng > 0)
            Py_DECREF(g[--ng]);
        while (nr > 0)
            Py_DECREF(r[--nr]);
    }
    PyMem_Free(buf);
    Py_XDECREF(d);
    Py_XDECREF(zero);
    Py_XDECREF(lengths);
    Py_DECREF(seq);
    return out;
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
     "Count Stirling words by deciding every multiset permutation,\n"
     "skipping each block that shares a failing prefix."},
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
    {"joint_hist", joint_hist, METH_O,
     "joint_hist(parts)\n--\n\n"
     "``(profile12 tuple, word count)`` pairs over ``words_of(parts)``, in\n"
     "order of first occurrence."},
    {"derive_chain", (PyCFunction)(void (*)(void))derive_chain, METH_FASTCALL,
     "derive_chain(start, rules)\n--\n\n"
     "The terms of D_{r_n} ... D_{r_1}(x^start), with D_r = x^r * (sum of\n"
     "all partials); see the pure backend docstring."},
    {"gamma_table", (PyCFunction)(void (*)(void))gamma_table, METH_FASTCALL,
     "gamma_table(terms, ix, iy, iz)\n--\n\n"
     "``(degree, entries)`` of the gamma expansion of every z-slice, or\n"
     "the check and slice of the first failure; see the pure backend\n"
     "docstring."},
    {"sturm_walk", sturm_walk, METH_O,
     "sturm_walk(coeffs)\n--\n\n"
     "``(distinct real roots, chain member lengths)`` of an integer\n"
     "polynomial; see the pure backend docstring."},
    {"gfs_scan", gfs_scan, METH_O,
     "gfs_scan(parts)\n--\n\n"
     "Check the hopping action orbit by orbit: ``None`` on a pass, or\n"
     "``(check, word, letter)`` at the first failure; see the pure backend\n"
     "docstring."},
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
    PyObject *mod, *math = PyImport_ImportModule("math");

    if (math == NULL)
        return NULL;
    gcd = PyObject_GetAttrString(math, "gcd");
    Py_DECREF(math);
    if (gcd == NULL)
        return NULL;
    mod = PyModule_Create(&core_module);
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
